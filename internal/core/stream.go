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
// The hot path is allocation-free in steady state: the rings never grow.
// A detector keeps only the state it carries from frame to frame — the raw
// window, the activation rings and rolling stage-1 errors, the evolving
// graph and its counters. Every buffer a forward overwrites before it reads
// (window views, time metadata, the time embedding, activations in flight)
// is borrowed from the model's free list for the call, so a model serving
// many detectors holds one set per goroutine scoring on it, not one per
// detector.
//
// A StreamDetector is not safe for concurrent use; the engine package
// provides a sharded multi-tenant front end that serializes access.
type StreamDetector struct {
	m *Model

	// Fixed-size rings over the last LongWindow frames. raw holds the
	// magnitudes as pushed; every read normalizes them under the serving
	// model's bounds (value), so Swap and RestoreState need not. Slot i of
	// each ring is frame (count-1) when (count-1) % w == i.
	times []float64
	raw   [][]float64 // [variate][ring slot], as pushed
	count int
	last  float64 // timestamp of the newest frame

	dyn *dynamicGraphState // only for VariantDynamicGraph models

	scores []float64 // per-variate score of the newest frame
	alarms []Alarm   // Push's reusable alarm buffer

	inc *incrementalState // the forward's activation rings and caches
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
		m:      m,
		times:  make([]float64, w),
		raw:    make([][]float64, m.n),
		scores: make([]float64, m.n),
		alarms: make([]Alarm, 0, m.n),
	}
	for v := 0; v < m.n; v++ {
		s.raw[v] = make([]float64, w)
	}
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
		s.raw[v][slot] = f.Magnitudes[v]
	}
	s.count++
	s.last = f.Time
	if !s.Ready() {
		return nil, nil
	}
	sc := s.m.borrowScratch()
	scores := s.inc.score(s, sc)
	s.m.returnScratch(sc)
	return scores, nil
}

// value is the normalized magnitude of variate v in ring slot i.
func (s *StreamDetector) value(v, i int) float64 {
	return s.m.norm.TransformValue(v, s.raw[v][i])
}

// window linearizes and normalizes the rings into sc's chronological
// window view and returns it, valid while sc is borrowed.
func (s *StreamDetector) window(sc *scratch) *prepared {
	w := s.m.cfg.LongWindow
	head := s.count % w // ring slot of the oldest retained frame
	p := &sc.prep
	copy(p.time, s.times[head:])
	copy(p.time[w-head:], s.times[:head])
	norm := s.m.norm
	for v, row := range p.data {
		for i, x := range s.raw[v][head:] {
			row[i] = norm.TransformValue(v, x)
		}
		for i, x := range s.raw[v][:head] {
			row[w-head+i] = norm.TransformValue(v, x)
		}
	}
	return p
}

// Swap installs a different fitted model into the warm detector without
// losing the window: the retained raw magnitudes are read under the new
// model's bounds from the next Push on, which scores a full window with the
// new weights instead of restarting a cold ring. The new model must have
// the same variate count and long-window length (the ring geometry);
// everything else — weights, normalizer, threshold, short window, even
// the graph variant — may differ. A model whose forward has the detector's
// state shape (stateShape) keeps its buffers, so such a swap allocates
// nothing.
//
// Swapping in a model with bit-identical weights and calibration (e.g. a
// Save/Load round-trip of the current model) leaves the score stream
// bit-identical: normalization applies the same pure function to the same
// raw values.
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
	same := m.stateShape() == s.m.stateShape()
	s.m = m
	switch {
	case m.cfg.Variant != VariantDynamicGraph:
		s.dyn = nil
	case s.dyn == nil:
		s.dyn = newDynamicGraphState(m.n)
	}
	// Cached activations belong to the old weights, so the next frame
	// scores with a full exact pass, which rewrites every ring at head 0.
	// Under another geometry the buffers are resized first; the counters
	// stay either way.
	if !same {
		st := s.inc.stats
		s.inc = newIncrementalState(m)
		s.inc.stats = st
	}
	s.InvalidateIncremental()
	return nil
}

// SwapArtifact implements StreamBackend: the AERO artifact is the model
// JSON written by Model.Save, decoded and installed via Swap (the warm
// window is kept and read under the new model's bounds).
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
// exactly, in a scratch borrowed from the model and that scratch's own
// stage-1 state, and leaves the detector's caches, evolving graph and
// counters as they were. The detector holds nothing for it afterwards.
func (s *StreamDetector) GraphSnapshot() (*tensor.Dense, error) {
	if !s.Ready() {
		return nil, fmt.Errorf("core: window not yet full (%d/%d frames)", s.count, s.m.cfg.LongWindow)
	}
	m := s.m
	sc := m.borrowScratch()
	defer m.returnScratch(sc)
	end := m.cfg.LongWindow - 1
	p := s.window(sc)
	return windowGraph(m.stage1Errors(p, end, m.times(p, end, &sc.wt), m.ownState(sc), sc)), nil
}
