package core

import (
	"fmt"
	"math"

	"aero/internal/dataset"
	"aero/internal/tensor"
)

// StreamDetector wraps a trained Model for frame-at-a-time online
// detection (§III-F): each arriving frame (one magnitude per star plus a
// timestamp) lands in a fixed circular buffer of the long-window length,
// and once the window is full every frame is scored against the calibrated
// POT threshold — the paper's Algorithm 2 with stride 1, incrementally.
//
// The hot path is allocation-free in steady state: frames are normalized
// on insertion, the ring never grows, and all scoring buffers (window
// views, time metadata, tensors, activation rings) live in a per-detector
// scratch that is reused on every Push.
//
// A StreamDetector is not safe for concurrent use; the engine package
// provides a sharded multi-tenant front end that serializes access.
type StreamDetector struct {
	m *Model

	// Fixed-size rings over the last LongWindow frames. data holds
	// normalized magnitudes; raw holds the magnitudes as pushed, so Swap
	// and RestoreState can re-normalize the warm window under a different
	// model's bounds. Slot i of each ring is frame (count-1) when
	// (count-1) % w == i.
	times []float64
	data  [][]float64 // [variate][ring slot], normalized
	raw   [][]float64 // [variate][ring slot], as pushed
	count int
	last  float64 // timestamp of the newest frame

	dyn *dynamicGraphState // only for VariantDynamicGraph models

	prep     prepared    // chronological window view, rebuilt per score
	prepData [][]float64 // backing storage for prep.data
	scores   []float64   // per-variate score of the newest frame
	alarms   []Alarm     // Push's reusable alarm buffer

	inc  *incrementalState // the forward's scratch and caches
	snap *scratch          // GraphSnapshot's own scratch, allocated on first use
}

// Frame is one observation instant: the magnitudes of all stars at Time.
type Frame struct {
	Time       float64
	Magnitudes []float64
}

// Alarm reports one star crossing the anomaly threshold at a frame.
type Alarm struct {
	Variate int
	Time    float64
	Score   float64
}

// NewStreamDetector returns an online detector backed by the fitted model.
func NewStreamDetector(m *Model) (*StreamDetector, error) {
	if !m.trained {
		return nil, fmt.Errorf("core: streaming requires a fitted model")
	}
	w := m.cfg.LongWindow
	s := &StreamDetector{
		m:        m,
		times:    make([]float64, w),
		data:     make([][]float64, m.n),
		raw:      make([][]float64, m.n),
		prepData: make([][]float64, m.n),
		scores:   make([]float64, m.n),
		alarms:   make([]Alarm, 0, m.n),
	}
	for v := 0; v < m.n; v++ {
		s.data[v] = make([]float64, w)
		s.raw[v] = make([]float64, w)
		s.prepData[v] = make([]float64, w)
	}
	s.prep.time = make([]float64, w)
	if m.cfg.Variant == VariantDynamicGraph {
		s.dyn = newDynamicGraphState(m.n)
	}
	s.inc = newIncrementalState(m)
	return s, nil
}

// IncrementalStats reports how scored frames were served so far.
func (s *StreamDetector) IncrementalStats() IncrementalStats { return s.inc.stats }

// InvalidateIncremental drops every cached activation; the next scored
// frame runs a full exact pass. Hosts call it whenever the window contents
// changed behind the detector's back (e.g. the engine's frame hygiene
// repaired a frame in place); calling it before every push yields the
// always-exact score stream, the reference the incremental path is tested
// against.
func (s *StreamDetector) InvalidateIncremental() { s.inc.valid = false }

// Kind implements StreamBackend: the AERO backend kind tag.
func (s *StreamDetector) Kind() string { return KindAERO }

// Model returns the fitted model currently serving the detector (the
// latest swapped-in one). Hosts use it to share one set of weights
// across many detectors.
func (s *StreamDetector) Model() *Model { return s.m }

// Variates returns the number of stars each frame must carry.
func (s *StreamDetector) Variates() int { return s.m.n }

// Ready reports whether enough frames have arrived to fill one window.
func (s *StreamDetector) Ready() bool { return s.count >= s.m.cfg.LongWindow }

// LastTime returns the timestamp of the newest frame and whether any frame
// has arrived. After RestoreState, it is the restored cursor — feeds that
// resume a checkpointed detector must continue strictly after it.
func (s *StreamDetector) LastTime() (float64, bool) { return s.last, s.count > 0 }

// Push appends one frame and, once the window is warm, scores it,
// returning the alarms raised at this instant (nil when none). The
// returned slice is owned by the detector and reused by the next Push;
// callers that retain alarms across pushes must copy them out.
func (s *StreamDetector) Push(f Frame) ([]Alarm, error) {
	scores, err := s.PushScores(f)
	if err != nil || scores == nil {
		return nil, err
	}
	s.alarms = s.alarms[:0]
	for v, sc := range scores {
		if sc >= s.m.thr.Z {
			s.alarms = append(s.alarms, Alarm{Variate: v, Time: f.Time, Score: sc})
		}
	}
	if len(s.alarms) == 0 {
		return nil, nil
	}
	return s.alarms, nil
}

// PushScores appends one frame and, once the window is warm, returns the
// raw per-variate scores of this instant (nil during warm-up). The slice
// is reused by the next push. Push derives alarms from these scores; a
// composable alarming stage (see internal/backend's DSPOT wrapper)
// consumes them directly instead. A frame of the wrong width, or whose time
// is NaN, ±Inf or not after the previous frame's, is an error and changes
// nothing.
func (s *StreamDetector) PushScores(f Frame) ([]float64, error) {
	if len(f.Magnitudes) != s.m.n {
		return nil, fmt.Errorf("core: frame has %d stars, model expects %d", len(f.Magnitudes), s.m.n)
	}
	if math.IsNaN(f.Time) || math.IsInf(f.Time, 0) {
		return nil, fmt.Errorf("core: frame time %v is not finite", f.Time)
	}
	if s.count > 0 && f.Time <= s.last {
		return nil, fmt.Errorf("core: frame time %v not after previous %v", f.Time, s.last)
	}
	w := s.m.cfg.LongWindow
	slot := s.count % w
	s.times[slot] = f.Time
	for v := 0; v < s.m.n; v++ {
		// Normalizing on insertion keeps re-scoring the window from
		// re-transforming all W×N values on every frame; the raw value is
		// retained so Swap/RestoreState can re-normalize later.
		s.raw[v][slot] = f.Magnitudes[v]
		s.data[v][slot] = s.m.norm.TransformValue(v, f.Magnitudes[v])
	}
	s.count++
	s.last = f.Time
	if !s.Ready() {
		return nil, nil
	}
	return s.inc.score(s), nil
}

// window linearizes the rings into the reusable chronological prepared
// view. Callers must consume the view before the next Push.
func (s *StreamDetector) window() *prepared {
	w := s.m.cfg.LongWindow
	head := s.count % w // ring slot of the oldest retained frame
	copy(s.prep.time, s.times[head:])
	copy(s.prep.time[w-head:], s.times[:head])
	for v := 0; v < s.m.n; v++ {
		copy(s.prepData[v], s.data[v][head:])
		copy(s.prepData[v][w-head:], s.data[v][:head])
	}
	s.prep.data = s.prepData
	return &s.prep
}

// Swap installs a different fitted model into the warm detector without
// losing the window: the retained raw magnitudes are re-normalized under
// the new model's bounds, so the next Push scores a full window with the
// new weights instead of restarting a cold ring. The new model must have
// the same variate count and long-window length (the ring geometry);
// everything else — weights, normalizer, threshold, short window, even
// the graph variant — may differ.
//
// Swapping in a model with bit-identical weights and calibration (e.g. a
// Save/Load round-trip of the current model) leaves the score stream
// bit-identical: re-normalization applies the same pure function to the
// same raw values.
//
// Like every StreamDetector method, Swap must not race Push; the engine
// serializes the two on the subscription lock so a swap always lands at a
// frame boundary.
func (s *StreamDetector) Swap(m *Model) error {
	if !m.trained {
		return fmt.Errorf("core: cannot swap in an unfitted model")
	}
	if m.n != s.m.n {
		return fmt.Errorf("core: swap model has %d variates, detector has %d", m.n, s.m.n)
	}
	if m.cfg.LongWindow != s.m.cfg.LongWindow {
		return fmt.Errorf("core: swap model window %d, detector window %d", m.cfg.LongWindow, s.m.cfg.LongWindow)
	}
	w := m.cfg.LongWindow
	s.m = m
	switch {
	case m.cfg.Variant != VariantDynamicGraph:
		s.dyn = nil
	case s.dyn == nil:
		s.dyn = newDynamicGraphState(m.n)
	}
	// Re-normalize the retained window. Ring slots fill in order 0..w-1
	// before wrapping, so exactly min(count, w) leading slots hold frames.
	filled := s.count
	if filled > w {
		filled = w
	}
	for v := 0; v < m.n; v++ {
		for i := 0; i < filled; i++ {
			s.data[v][i] = m.norm.TransformValue(v, s.raw[v][i])
		}
	}
	// Cached activations belong to the old weights (and possibly the old
	// geometry): rebuild them, keeping the counters, so the next frame
	// scores with a full exact pass.
	st := s.inc.stats
	s.inc = newIncrementalState(m)
	s.inc.stats = st
	s.snap = nil
	return nil
}

// SwapArtifact implements StreamBackend: the AERO artifact is the model
// JSON written by Model.Save, decoded and installed via Swap (the warm
// window is kept and re-normalized under the new model's bounds).
func (s *StreamDetector) SwapArtifact(artifact []byte) error {
	m, err := LoadBytes(artifact)
	if err != nil {
		return err
	}
	return s.Swap(m)
}

// Threshold returns the alarm threshold in use.
func (s *StreamDetector) Threshold() float64 { return s.m.thr.Z }

// Replay pushes every frame of a series through the detector and returns
// all alarms, a convenience for backtesting archived nights.
func (s *StreamDetector) Replay(series *dataset.Series) ([]Alarm, error) {
	var all []Alarm
	frame := Frame{Magnitudes: make([]float64, series.N())}
	for t := 0; t < series.Len(); t++ {
		frame.Time = series.Time[t]
		for v := 0; v < series.N(); v++ {
			frame.Magnitudes[v] = series.Data[v][t]
		}
		alarms, err := s.Push(frame)
		if err != nil {
			return all, err
		}
		all = append(all, alarms...)
	}
	return all, nil
}

// GraphSnapshot returns the current window-wise learned adjacency, for
// live monitoring dashboards (Fig. 8 in real time). The matrix is a fresh
// copy owned by the caller. Returns an error before the window is warm.
//
// A snapshot is an observation: it recomputes the window's stage-1 errors
// exactly, in a scratch of its own, and leaves the detector's caches,
// evolving graph and counters as they were.
func (s *StreamDetector) GraphSnapshot() (*tensor.Dense, error) {
	if !s.Ready() {
		return nil, fmt.Errorf("core: window not yet full (%d/%d frames)", s.count, s.m.cfg.LongWindow)
	}
	if s.snap == nil {
		s.snap = s.m.newScratch(1)
	}
	end := s.m.cfg.LongWindow - 1
	p := s.window()
	return windowGraph(s.m.stage1Errors(p, end, s.m.times(p, end, &s.snap.wt), s.snap)), nil
}
