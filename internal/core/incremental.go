package core

import (
	"math"

	"aero/internal/tensor"
)

// The incremental streaming forward: the sliding-window activation reuse
// that makes StreamDetector.Push sub-linear in the window length on benign
// frames. Its exactness contract:
//
//   - Benign frames take the incremental path: the cached per-layer
//     activation rings advance one position, only the entering row of the
//     window is pushed through the encoder stack, and the decoder
//     reconstructs the newest timestep only.
//   - A full exact recompute runs once per refreshEvery frames, whenever a
//     star's normalized magnitude jumps by more than driftTolerance between
//     consecutive frames, after any cache invalidation (Swap, RestoreState,
//     hygiene-repaired frames, InvalidateIncremental), and — the
//     alarm-boundary guard — whenever an incremental score reaches
//     (1−guardBoundary)·Z, before the verdict.
//
// The guard is what keeps golden-replay alarm sequences identical to the
// always-exact path: alarm decisions are always made on exact scores as
// long as the incremental error stays below the margin (pinned empirically
// by TestIncrementalErrorBound). Rows behind the entering one keep the
// activations computed when they entered; banded attention makes the newest
// row's view of them decay with distance.
//
// The count is a backstop: at W ≤ 128 every cached row is re-derived
// exactly at least once per two window lengths, and the amortized
// full-forward cost stays under 1% of the frame rate. The guard owns
// near-alarm frames; the drift trigger is insurance against level shifts
// far outside the trained magnitude range.
const (
	refreshEvery   = 128 // scored frames between scheduled exact recomputes
	guardBoundary  = 0.1 // guard margin, a fraction of the threshold Z
	driftTolerance = 1   // normalized magnitude jump that forces a refresh
)

// IncrementalStats counts how the streaming forward passes were served.
// Frames = Incremental + the four refresh counters.
type IncrementalStats struct {
	Frames                uint64 // scored frames
	Incremental           uint64 // served by the incremental path alone
	ScheduledRefreshes    uint64 // full recomputes from the refreshEvery schedule
	DriftRefreshes        uint64 // full recomputes from the drift trigger
	BoundaryRefreshes     uint64 // full recomputes from the alarm-boundary guard
	InvalidationRefreshes uint64 // full recomputes after cache invalidation
}

// incrementalState is the per-detector state behind the streaming forward:
// the stage-1 state — activation rings and error matrix — the benign path
// keeps rolling between exact passes, and the position part of the entering
// row's time embedding. The work buffers of each forward are borrowed from
// the model (borrowScratch) for the call alone.
type incrementalState struct {
	// st.e doubles as the rolling N×ω stage-1 error matrix: an exact pass
	// rewrites it in full, a benign push shifts it one column.
	st stage1State

	// phaseLast is f_j·(W−1), the entering row's position phase.
	phaseLast []float64
	dynBackup *tensor.Dense // dyn.a snapshot for guard rollback

	sinceRefresh int
	valid        bool
	stats        IncrementalStats
}

// newIncrementalState sizes the caches for the model's geometry. The state
// starts invalid: the first scored frame runs a full exact pass that also
// populates every cache.
func newIncrementalState(m *Model) *incrementalState {
	inc := &incrementalState{st: *m.newStage1State(m.n)}
	if m.cfg.usesTemporal() {
		last := float64(m.cfg.LongWindow - 1)
		inc.phaseLast = make([]float64, len(m.temporal.te.freq))
		for j, f := range m.temporal.te.freq {
			inc.phaseLast[j] = f * last
		}
	}
	if m.cfg.Variant == VariantDynamicGraph {
		inc.dynBackup = tensor.New(m.n, m.n)
	}
	return inc
}

// score serves one warm frame in the borrowed scratch sc: the incremental
// path when the caches are fresh and the frame is benign, a full exact
// recompute (which rebuilds every cache) otherwise. Fills and returns
// s.scores.
func (inc *incrementalState) score(s *StreamDetector, sc *scratch) []float64 {
	inc.stats.Frames++
	switch {
	case !inc.valid:
		inc.stats.InvalidationRefreshes++
	case inc.sinceRefresh+1 >= refreshEvery:
		inc.stats.ScheduledRefreshes++
	case inc.drifted(s):
		inc.stats.DriftRefreshes++
	default:
		inc.push(s, sc)
		if !inc.nearBoundary(s) {
			inc.stats.Incremental++
			inc.sinceRefresh++
			return s.scores
		}
		// Within the guard margin of the threshold: undo the one piece of
		// scoring state the benign path mutated outside the caches (the
		// evolving-graph EWMA) and re-score exactly. The refresh below
		// overwrites every cache, so nothing else needs rolling back.
		inc.stats.BoundaryRefreshes++
		if s.dyn != nil {
			s.dyn.a.CopyFrom(inc.dynBackup)
		}
	}
	return inc.refresh(s, sc)
}

// refresh runs the exact stage-1 pass over the detector's window — the
// stage1Errors batch scoring runs — which rebuilds every cache as a side
// effect, then stage 2 for the newest column only (scoreStage2, the column
// ω−1 of batch scoring's noiseScores). It reads only the raw window rings
// and the weights, so it serves every refresh cause (schedule, drift, guard,
// invalidation).
func (inc *incrementalState) refresh(s *StreamDetector, sc *scratch) []float64 {
	m := s.m
	end := m.cfg.LongWindow - 1
	p := s.window(sc)
	m.stage1Errors(p, end, m.times(p, end, &sc.wt), &inc.st, sc)
	inc.scoreStage2(s, sc)
	inc.sinceRefresh = 0
	inc.valid = true
	return s.scores
}

// drifted reports whether any variate jumped by more than the drift
// tolerance between the two newest frames.
func (inc *incrementalState) drifted(s *StreamDetector) bool {
	w := s.m.cfg.LongWindow
	cur := (s.count - 1) % w
	prev := (s.count - 2 + w) % w
	for v := 0; v < s.m.n; v++ {
		if math.Abs(s.value(v, cur)-s.value(v, prev)) > driftTolerance {
			return true
		}
	}
	return false
}

// nearBoundary reports whether any incremental score landed within the
// guard margin of the calibrated threshold.
func (inc *incrementalState) nearBoundary(s *StreamDetector) bool {
	margin := (1 - guardBoundary) * s.m.thr.Z
	for _, sc := range s.scores {
		if sc >= margin {
			return true
		}
	}
	return false
}

// push advances every cache by one frame and scores the newest timestep
// incrementally into s.scores. Allocation-free.
func (inc *incrementalState) push(s *StreamDetector, sc *scratch) {
	m, st := s.m, &inc.st
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	n := m.n
	slot := (s.count - 1) % w

	if m.cfg.usesTemporal() {
		prev := (s.count - 2 + w) % w
		inc.embedEnteringRow(m, sc, (s.times[slot]-s.times[prev])/m.dtScale)
		// Slide every ring one position: the slot of the row that left the
		// window becomes the entering row's.
		if st.headL++; st.headL == w {
			st.headL = 0
		}
		if st.headS++; st.headS == omega {
			st.headS = 0
		}
		// The entering input row, in sc.long's last row.
		x := sc.long.Row(w - 1)
		if m.cfg.multivariateInput() {
			for v := range x {
				x[v] = s.value(v, slot)
			}
			inc.pushTemporal(m, sc, st.caps[0], x)
			for v := 0; v < n; v++ {
				erow := st.e.Row(v)
				copy(erow, erow[1:])
				erow[omega-1] = x[v] - sc.yRow[v]
			}
		} else {
			for v := 0; v < n; v++ {
				x[0] = s.value(v, slot)
				inc.pushTemporal(m, sc, st.caps[v], x)
				erow := st.e.Row(v)
				copy(erow, erow[1:])
				erow[omega-1] = x[0] - sc.yRow[0]
			}
		}
	} else {
		// VariantNoTemporal: Ŷ1 ≡ 0, so the error column is the target
		// itself and the shifted history is exact.
		for v := 0; v < n; v++ {
			erow := st.e.Row(v)
			copy(erow, erow[1:])
			erow[omega-1] = s.value(v, slot)
		}
	}

	inc.scoreStage2(s, sc)
}

// embedEnteringRow writes the time embedding of the window's entering row,
// logical row W−1, whose interval to the frame before is dtNew, into sc:
// θ_j = f_j·(W−1) + dtNew·α_j, the cell sinCos writes there in an exact
// pass. It is the only row the benign path reads (the short window's row
// ω−1 is the same cells).
func (inc *incrementalState) embedEnteringRow(m *Model, sc *scratch, dtNew float64) {
	c := &sc.te
	w := c.sinL.Rows
	alpha := m.temporal.te.Alpha.Value.Data
	sl, cl := c.sinL.Row(w-1), c.cosL.Row(w-1)
	for j, ph := range inc.phaseLast {
		th := ph + dtNew*alpha[j]
		sl[j] = math.Sin(th)
		cl[j] = math.Cos(th)
	}
}

// pushTemporal advances one stage-1 forward by a frame, the ring heads
// already moved: the entering input row x goes through the exact pass's
// encode and decode as a batch of one row — at long-window position W−1,
// writing its K/V slot in every layer's rings and in the cross-attention
// rings, and at short-window position ω−1, the newest timestep only (older
// short-window timesteps keep the error columns scored when they were
// newest). c carries the variate's rings; the reconstructed newest row lands
// in sc.yRow.
func (inc *incrementalState) pushTemporal(m *Model, sc *scratch, c *temporalCapture, x []float64) {
	st := &inc.st
	sc.encode(m.temporal, c, st.headL, x, 1, sc.long.Rows-1)
	sc.decode(m.temporal, c, st.headL, st.headS, x, 1, sc.short.Rows-1, sc.yRow)
}

// scoreStage2 turns the rolling error matrix into the newest timestep's
// final scores, mirroring noiseScores column ω−1: the graph and the
// propagated features are recomputed in full (they are O(N²·ω), cheap),
// the noise reconstruction only for the newest column.
func (inc *incrementalState) scoreStage2(s *StreamDetector, sc *scratch) {
	m := s.m
	e := inc.st.e
	col := m.cfg.ShortWindow - 1
	if !m.cfg.usesNoise() {
		for v := range s.scores {
			s.scores[v] = math.Abs(e.At(v, col))
		}
		return
	}
	if s.dyn != nil {
		inc.dynBackup.CopyFrom(s.dyn.a)
	}
	h := propagateInto(m.adjacency(e, s.dyn, sc), e, sc.h)
	wTheta := m.noise.W.Value
	bias := m.noise.B.Value.Data[col]
	for v := range s.scores {
		var acc float64
		for k, hv := range h.Row(v) {
			if hv == 0 {
				continue
			}
			acc += hv * wTheta.At(k, col)
		}
		yhat2 := math.Tanh(acc + bias)
		s.scores[v] = math.Abs(e.At(v, col) - yhat2)
	}
}
