package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"aero/internal/dataset"
	"aero/internal/evt"
	"aero/internal/stats"
	"aero/internal/tensor"
	"aero/internal/window"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Model is a trained (or trainable) AERO detector over a fixed number of
// variates. Create one with New, train with Fit, then call Scores or
// Detect on test series.
type Model struct {
	cfg Config
	n   int

	temporal *temporalModule
	noise    *noiseModule

	norm    *window.Normalizer
	dtScale float64
	thr     evt.Threshold
	trained bool

	// Epochs1 and Epochs2 record how many epochs each stage actually ran
	// (after early stopping); useful for efficiency reporting.
	Epochs1, Epochs2 int

	scratches scratches // the inference forward's work buffers, lent per call
}

// stateShape is what sizes the state a detector keeps for a model: the
// window geometry and, with a temporal module, its width, depth and input
// width, and whether an evolving graph is kept. Two models of one shape
// can serve one detector's buffers.
type stateShape struct {
	n, w, omega    int
	dm, layers, in int // 0 without a temporal module
	evolvingGraph  bool
}

func (m *Model) stateShape() stateShape {
	sh := stateShape{
		n: m.n, w: m.cfg.LongWindow, omega: m.cfg.ShortWindow,
		evolvingGraph: m.cfg.Variant == VariantDynamicGraph,
	}
	if tm := m.temporal; tm != nil {
		sh.dm, sh.layers, sh.in = tm.te.dm, len(tm.enc), tm.inDim
	}
	return sh
}

// New constructs an untrained AERO model for n variates.
func New(cfg Config, n int) (*Model, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one variate, got %d", n)
	}
	rng := newRand(cfg.Seed)
	inDim := 1
	if cfg.multivariateInput() {
		inDim = n
	}
	m := &Model{cfg: cfg, n: n, dtScale: 1}
	if cfg.usesTemporal() {
		m.temporal = newTemporalModule(cfg, inDim, rng)
	}
	if cfg.usesNoise() {
		m.noise = newNoiseModule(cfg.ShortWindow, cfg.Seed+1)
	}
	return m, nil
}

// Config returns the model's (normalized) configuration.
func (m *Model) Config() Config { return m.cfg }

// Variates returns the number of variates (stars) the model was built for.
func (m *Model) Variates() int { return m.n }

// prepared holds a series after normalization, ready for windowing.
type prepared struct {
	data [][]float64 // normalized to [0, 1]
	time []float64
}

func (m *Model) prepare(s *dataset.Series) *prepared {
	return &prepared{data: m.norm.Transform(s.Data), time: s.Time}
}

// times assembles the window-local positions and normalized intervals for
// the window ending at index end into buf's slices and returns them; the
// scoring scratch and the training scratch each thread their own buffer
// through here.
func (m *Model) times(p *prepared, end int, buf *windowTimes) windowTimes {
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	wt := *buf
	start := end - w + 1
	for i := 0; i < w; i++ {
		idx := start + i
		wt.posL[i] = float64(i)
		if idx > 0 {
			wt.dtL[i] = (p.time[idx] - p.time[idx-1]) / m.dtScale
		} else {
			wt.dtL[i] = 1
		}
	}
	copy(wt.posS, wt.posL[w-omega:])
	copy(wt.dtS, wt.dtL[w-omega:])
	return wt
}

// longShort fills the long (W×inDim) and short (ω×inDim) input matrices for
// the window ending at end. In univariate mode inDim is 1 and v selects the
// variate; in multivariate mode v is ignored and columns are variates.
func (m *Model) longShort(p *prepared, v, end int, long, short *tensor.Dense) {
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	if m.cfg.multivariateInput() {
		for i := 0; i < w; i++ {
			for vv := 0; vv < m.n; vv++ {
				long.Set(i, vv, p.data[vv][end-w+1+i])
			}
		}
		copy(short.Data, long.Data[(w-omega)*m.n:])
		return
	}
	src := window.Slice(p.data[v], end, w)
	copy(long.Data, src)
	copy(short.Data, src[w-omega:])
}

// Fit trains the model on the (unsupervised) training series following
// Algorithm 1, then calibrates the POT threshold on the training scores
// (Eq. 18).
func (m *Model) Fit(train *dataset.Series) error {
	if err := m.checkShape(train); err != nil {
		return err
	}
	if err := checkTrainValues(train); err != nil {
		return err
	}
	m.norm = window.FitNormalizer(train.Data)
	if d := stats.Median(stats.Diff(train.Time)); d > 0 {
		m.dtScale = d
	}
	p := m.prepare(train)

	if m.cfg.usesTemporal() {
		m.Epochs1 = m.trainStage1(p)
	}
	if m.cfg.usesNoise() {
		m.Epochs2 = m.trainStage2(p)
	}

	// Threshold calibration on training scores (paper Eq. 18: s is the
	// collection of anomaly scores over training instances, pooled across
	// variates into one global POT threshold).
	scores := m.scoreSeries(p)
	pool := make([]float64, 0, len(scores)*len(scores[0]))
	for _, row := range scores {
		pool = append(pool, row...)
	}
	th, err := evt.POT(pool, m.cfg.POTLevel, m.cfg.POTQ)
	if err != nil && th.Z == 0 {
		return fmt.Errorf("core: threshold calibration: %w", err)
	}
	m.thr = th
	m.trained = true
	return nil
}

// scoreSeries produces per-variate, per-timestamp anomaly scores for a
// prepared series, following Algorithm 2 with the configured EvalStride.
// Timestamps before the first full window score zero.
//
// Every worker borrows one scratch, so window scoring reuses its buffers
// instead of re-allocating per window; each window writes a disjoint
// score range ((prevEnd, end], clipped to the short window), which makes
// the copy-out safe to run inside the workers.
func (m *Model) scoreSeries(p *prepared) [][]float64 {
	T := len(p.time)
	scores := make([][]float64, m.n)
	for v := range scores {
		scores[v] = make([]float64, T)
	}
	insts := window.Indices(T, m.cfg.LongWindow, m.cfg.EvalStride)
	omega := m.cfg.ShortWindow

	writeWindow := func(i int, final *tensor.Dense) {
		inst := insts[i]
		prevEnd := insts[0].End - omega // first window covers its whole suffix
		if i > 0 {
			prevEnd = insts[i-1].End
		}
		lo := prevEnd + 1
		if lo < inst.End-omega+1 {
			lo = inst.End - omega + 1
		}
		for t := lo; t <= inst.End; t++ {
			col := omega - 1 - (inst.End - t)
			for v := 0; v < m.n; v++ {
				scores[v][t] = final.At(v, col)
			}
		}
	}

	if m.cfg.Variant == VariantDynamicGraph {
		// The evolving graph is sequential by construction.
		dyn := newDynamicGraphState(m.n)
		sc := m.borrowScratch()
		defer m.returnScratch(sc)
		for i, inst := range insts {
			final, _ := m.windowScores(p, inst.End, dyn, sc)
			writeWindow(i, final)
		}
		return scores
	}
	m.parallelWindows(len(insts), func(i int, sc *scratch) {
		final, _ := m.windowScores(p, insts[i].End, nil, sc)
		writeWindow(i, final)
	})
	return scores
}

// parallelWindows runs f(i, sc) for i in [0, n) on the configured worker
// pool; each worker borrows a scratch for its run, so a window's forward is
// one goroutine while windows proceed in parallel.
func (m *Model) parallelWindows(n int, f func(i int, sc *scratch)) {
	workers := m.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sc := m.borrowScratch()
		defer m.returnScratch(sc)
		for i := 0; i < n; i++ {
			f(i, sc)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := m.borrowScratch()
			defer m.returnScratch(sc)
			for i := range ch {
				f(i, sc)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// checkSeries is the validation Scores, StageErrors and GraphAt share: a
// fitted model and a series checkShape accepts.
func (m *Model) checkSeries(s *dataset.Series) error {
	if !m.trained {
		return fmt.Errorf("core: model not fitted")
	}
	return m.checkShape(s)
}

// checkShape accepts a series with the variate count the model was built
// for, at least one full window, and one value per timestamp in every row.
func (m *Model) checkShape(s *dataset.Series) error {
	if s.N() != m.n {
		return fmt.Errorf("core: model built for %d variates, series has %d", m.n, s.N())
	}
	if s.Len() < m.cfg.LongWindow {
		return fmt.Errorf("core: series length %d shorter than window %d", s.Len(), m.cfg.LongWindow)
	}
	for v, row := range s.Data {
		if len(row) != s.Len() {
			return fmt.Errorf("core: variate %d has %d values for %d timestamps", v, len(row), s.Len())
		}
	}
	return nil
}

// checkTrainValues is the rest of Fit's validation, run before any
// training: finite magnitudes, and finite, strictly increasing times. A NaN
// magnitude would otherwise train both stages and then fail the threshold
// calibration naming nothing, and a repeated time would make a Δt of 0.
func checkTrainValues(s *dataset.Series) error {
	for i, tm := range s.Time {
		if math.IsNaN(tm) || math.IsInf(tm, 0) {
			return fmt.Errorf("core: time %d is %v, want a finite time", i, tm)
		}
		if i > 0 && !(tm > s.Time[i-1]) {
			return fmt.Errorf("core: time %d (%v) does not follow time %d (%v): times must strictly increase", i, tm, i-1, s.Time[i-1])
		}
	}
	for v, row := range s.Data {
		for i, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("core: variate %d has magnitude %v at index %d, want a finite magnitude", v, x, i)
			}
		}
	}
	return nil
}

// Scores returns anomaly scores (N×T) for a series. The model must have
// been fitted.
func (m *Model) Scores(s *dataset.Series) ([][]float64, error) {
	if err := m.checkSeries(s); err != nil {
		return nil, err
	}
	return m.scoreSeries(m.prepare(s)), nil
}

// Threshold returns the calibrated POT threshold.
func (m *Model) Threshold() float64 { return m.thr.Z }

// Detect scores the series and applies the calibrated threshold, returning
// binary labels (N×T).
func (m *Model) Detect(s *dataset.Series) ([][]bool, error) {
	scores, err := m.Scores(s)
	if err != nil {
		return nil, err
	}
	out := make([][]bool, m.n)
	for v := range scores {
		out[v] = make([]bool, len(scores[v]))
		for t, sc := range scores[v] {
			out[v][t] = sc >= m.thr.Z
		}
	}
	return out, nil
}

// StageErrors returns the stage-1 reconstruction error |Y − Ŷ1| and the
// final error |Y − Ŷ1 − Ŷ2| per variate and timestamp — the series
// visualized in the paper's Fig. 9.
func (m *Model) StageErrors(s *dataset.Series) (stage1, final [][]float64, err error) {
	if err := m.checkSeries(s); err != nil {
		return nil, nil, err
	}
	p := m.prepare(s)
	T := len(p.time)
	stage1 = make([][]float64, m.n)
	final = make([][]float64, m.n)
	for v := 0; v < m.n; v++ {
		stage1[v] = make([]float64, T)
		final[v] = make([]float64, T)
	}
	insts := window.Indices(T, m.cfg.LongWindow, m.cfg.EvalStride)
	var dyn *dynamicGraphState
	if m.cfg.Variant == VariantDynamicGraph {
		dyn = newDynamicGraphState(m.n)
	}
	sc := m.borrowScratch()
	defer m.returnScratch(sc)
	omega := m.cfg.ShortWindow
	prevEnd := insts[0].End - omega
	for _, inst := range insts {
		fin, e1 := m.windowScores(p, inst.End, dyn, sc)
		lo := prevEnd + 1
		if lo < inst.End-omega+1 {
			lo = inst.End - omega + 1
		}
		for t := lo; t <= inst.End; t++ {
			col := omega - 1 - (inst.End - t)
			for v := 0; v < m.n; v++ {
				stage1[v][t] = math.Abs(e1.At(v, col))
				final[v][t] = fin.At(v, col)
			}
		}
		prevEnd = inst.End
	}
	return stage1, final, nil
}

// GraphAt returns the window-wise learned adjacency matrix (before
// self-loop removal) for the window ending at index end — the structure
// visualized in the paper's Fig. 8.
func (m *Model) GraphAt(s *dataset.Series, end int) (*tensor.Dense, error) {
	if err := m.checkSeries(s); err != nil {
		return nil, err
	}
	if end < m.cfg.LongWindow-1 || end >= s.Len() {
		return nil, fmt.Errorf("core: window end %d out of range [%d, %d)", end, m.cfg.LongWindow-1, s.Len())
	}
	p := m.prepare(s)
	sc := m.borrowScratch()
	defer m.returnScratch(sc)
	return windowGraph(m.stage1Errors(p, end, m.times(p, end, &sc.wt), m.ownState(sc), sc)), nil
}
