package core

import (
	"math"

	"aero/internal/tensor"
)

// IncrementalPolicy controls the incremental streaming forward pass: the
// sliding-window activation reuse that makes StreamDetector.Push sub-linear
// in the window length on benign frames. It is the stage-1 analogue of
// evt.RefitPolicy, and the exactness contract is the same shape:
//
//   - Benign frames take the incremental path: the cached per-layer
//     activation rings advance one position, only the entering edge of the
//     window (the trailing Cone rows per encoder layer) is recomputed, and
//     the decoder reconstructs the newest timestep only.
//   - A full exact recompute runs every Every frames, whenever the input
//     jumps by more than DriftTolerance between consecutive frames, after
//     any cache invalidation (Swap, RestoreState, hygiene-repaired frames),
//     and — the alarm-boundary guard — whenever an incremental score lands
//     within Boundary of the calibrated threshold, before the verdict.
//
// The guard is what keeps golden-replay alarm sequences identical to the
// always-exact path: any frame whose incremental score reaches
// (1−Boundary)·Z is re-scored exactly, so alarm decisions are always made
// on exact scores as long as the incremental error stays below the margin
// (pinned empirically by TestIncrementalErrorBound).
//
// The zero value disables the incremental path entirely (every frame runs
// the full forward and none is counted).
type IncrementalPolicy struct {
	// Every forces a full exact recompute (which also rebuilds every
	// cache) once per Every frames. 1 recomputes every frame — scores are
	// then bit-identical to the non-incremental detector. <= 0 disables
	// the incremental path.
	Every int

	// Cone is the number of trailing window rows recomputed per encoder
	// layer on the incremental path (clamped to [1, W]). Rows outside the
	// cone keep their cached key/value projections from the pass that
	// computed them; banded attention makes the newest row's view of those
	// stale rows decay with distance.
	Cone int

	// ShortCone is Cone for the decoder's short window (clamped to
	// [1, ω]).
	ShortCone int

	// Boundary is the guard margin as a fraction of the calibrated
	// threshold Z: an incremental score ≥ (1−Boundary)·Z triggers a full
	// exact recompute before the verdict. 1 re-scores every frame whose
	// score is non-negative, i.e. always.
	Boundary float64

	// DriftTolerance forces a refresh when any variate's normalized
	// magnitude jumps by more than this between consecutive frames —
	// large level shifts are where stale caches decay slowest. <= 0
	// disables the trigger.
	DriftTolerance float64
}

// enabled reports whether the policy turns the incremental path on.
func (p IncrementalPolicy) enabled() bool { return p.Every > 0 }

// DefaultIncrementalPolicy is the production default: refresh every 128
// frames, a single-row update cone, an exact recompute within 10% of the
// threshold, and a drift trigger at a full normalized-range jump (the
// guard owns near-alarm frames; the drift trigger is insurance against
// pathological level shifts far outside the trained magnitude range).
// The schedule matches evt.RefitPolicy's default period: at W≤128 every
// cached row is re-derived exactly at least once per two window lengths,
// and the amortized full-forward cost stays under 1% of the frame rate.
func DefaultIncrementalPolicy() IncrementalPolicy {
	return IncrementalPolicy{Every: 128, Cone: 1, ShortCone: 1, Boundary: 0.1, DriftTolerance: 1}
}

// ExactIncrementalPolicy recomputes the full window every frame: scores are
// bit-identical to the non-incremental detector, with the caches still
// maintained (useful for differential testing).
func ExactIncrementalPolicy() IncrementalPolicy {
	return IncrementalPolicy{Every: 1, Cone: 1, ShortCone: 1, Boundary: 1}
}

// IncrementalStats counts how the streaming forward passes were served.
// Frames = Incremental + the four refresh counters.
type IncrementalStats struct {
	Frames                uint64 // scored frames
	Incremental           uint64 // served by the incremental path alone
	ScheduledRefreshes    uint64 // full recomputes from the Every schedule
	DriftRefreshes        uint64 // full recomputes from the drift trigger
	BoundaryRefreshes     uint64 // full recomputes from the alarm-boundary guard
	InvalidationRefreshes uint64 // full recomputes after cache invalidation
}

// incrementalState is the per-detector state behind the streaming forward:
// the scratch every forward runs in — whose activation rings, time-embedding
// cache and stage-1 error matrix the benign path keeps rolling between exact
// passes — precomputed trigonometry for the exact window-local position
// rotation, and the cone buffers.
type incrementalState struct {
	pol IncrementalPolicy

	// sc.e doubles as the rolling N×ω stage-1 error matrix: an exact pass
	// rewrites it in full, a benign push shifts it one column.
	sc *scratch

	// Trig constants: a window-local position shift of −1 rotates every
	// cached θ by exactly −f_j, so (sinθ, cosθ) advance by the angle
	// difference identities. sinA/cosA are sin/cos(α_j·1), the row-0 phase
	// where times() pins the interval to 1; phaseLast is f_j·(W−1), the
	// position part of the entering row.
	sinF, cosF []float64
	sinA, cosA []float64
	phaseLast  []float64

	xs              *tensor.Dense // last max(Cone, ShortCone) input rows of the window
	coneIn, coneOut *tensor.Dense // cone×d_m ping-pong buffers
	dynBackup       *tensor.Dense // dyn.a snapshot for guard rollback

	sinceRefresh int
	valid        bool
	stats        IncrementalStats
}

// newIncrementalState sizes the caches for the model's geometry. The state
// starts invalid: the first scored frame runs a full exact pass that also
// populates every cache. A disabled policy never takes the benign path, so
// its state is a one-capture scratch and nothing else.
func newIncrementalState(m *Model, pol IncrementalPolicy) *incrementalState {
	if !pol.enabled() {
		return &incrementalState{sc: m.newScratch(1)}
	}
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	if pol.Cone < 1 {
		pol.Cone = 1
	}
	if pol.Cone > w {
		pol.Cone = w
	}
	if pol.ShortCone < 1 {
		pol.ShortCone = 1
	}
	if pol.ShortCone > omega {
		pol.ShortCone = omega
	}
	inc := &incrementalState{pol: pol, sc: m.newScratch(m.n)}
	if m.cfg.usesTemporal() {
		tm := m.temporal
		dm := tm.te.dm
		inc.sinF = make([]float64, dm)
		inc.cosF = make([]float64, dm)
		inc.sinA = make([]float64, dm)
		inc.cosA = make([]float64, dm)
		inc.phaseLast = make([]float64, dm)
		alpha := tm.te.Alpha.Value.Data
		for j, f := range tm.te.freq {
			inc.sinF[j] = math.Sin(f)
			inc.cosF[j] = math.Cos(f)
			inc.sinA[j] = math.Sin(alpha[j])
			inc.cosA[j] = math.Cos(alpha[j])
			inc.phaseLast[j] = f * float64(w-1)
		}
		inc.xs = tensor.New(max(inc.pol.Cone, inc.pol.ShortCone), tm.inDim)
		inc.coneIn = tensor.New(inc.pol.Cone, dm)
		inc.coneOut = tensor.New(inc.pol.Cone, dm)
	}
	if m.cfg.Variant == VariantDynamicGraph {
		inc.dynBackup = tensor.New(m.n, m.n)
	}
	return inc
}

// score serves one warm frame: the incremental path when the caches are
// fresh and the frame is benign, a full exact recompute (which rebuilds
// every cache) otherwise. Fills and returns s.scores.
func (inc *incrementalState) score(s *StreamDetector) []float64 {
	if !inc.pol.enabled() {
		return inc.refresh(s)
	}
	inc.stats.Frames++
	switch {
	case !inc.valid:
		inc.stats.InvalidationRefreshes++
	case inc.sinceRefresh+1 >= inc.pol.Every:
		inc.stats.ScheduledRefreshes++
	case inc.drifted(s):
		inc.stats.DriftRefreshes++
	default:
		inc.push(s)
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
	return inc.refresh(s)
}

// refresh runs the full exact two-stage forward over the detector's window
// — the same windowScores batch scoring runs — which rebuilds every cache
// as a side effect of scoring. It reads only the raw window rings and the
// weights, so it serves every refresh cause (schedule, drift, guard,
// invalidation).
func (inc *incrementalState) refresh(s *StreamDetector) []float64 {
	w, omega := s.m.cfg.LongWindow, s.m.cfg.ShortWindow
	final, _ := s.m.windowScores(s.window(), w-1, s.dyn, inc.sc)
	for v := range s.scores {
		s.scores[v] = final.At(v, omega-1)
	}
	inc.sinceRefresh = 0
	inc.valid = true
	return s.scores
}

// drifted reports whether any variate jumped by more than the drift
// tolerance between the two newest frames.
func (inc *incrementalState) drifted(s *StreamDetector) bool {
	if inc.pol.DriftTolerance <= 0 {
		return false
	}
	w := s.m.cfg.LongWindow
	cur := (s.count - 1) % w
	prev := (s.count - 2 + w) % w
	for v := 0; v < s.m.n; v++ {
		if math.Abs(s.data[v][cur]-s.data[v][prev]) > inc.pol.DriftTolerance {
			return true
		}
	}
	return false
}

// nearBoundary reports whether any incremental score landed within the
// guard margin of the calibrated threshold.
func (inc *incrementalState) nearBoundary(s *StreamDetector) bool {
	margin := (1 - inc.pol.Boundary) * s.m.thr.Z
	for _, sc := range s.scores {
		if sc >= margin {
			return true
		}
	}
	return false
}

// push advances every cache by one frame and scores the newest timestep
// incrementally into s.scores. Allocation-free.
func (inc *incrementalState) push(s *StreamDetector) {
	m, sc := s.m, inc.sc
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	n := m.n
	slot := (s.count - 1) % w

	if m.cfg.usesTemporal() {
		prev := (s.count - 2 + w) % w
		dtNew := (s.times[slot] - s.times[prev]) / m.dtScale
		inc.rotateTE(m, dtNew)
		// Slide every ring one position: the slot of the row that left the
		// window becomes the entering row's.
		if sc.headL++; sc.headL == w {
			sc.headL = 0
		}
		if sc.headS++; sc.headS == omega {
			sc.headS = 0
		}
		if m.cfg.multivariateInput() {
			inc.loadInputs(s, -1)
			inc.pushTemporal(m, sc.caps[0])
			for v := 0; v < n; v++ {
				erow := sc.e.Row(v)
				copy(erow, erow[1:])
				erow[omega-1] = s.data[v][slot] - sc.yRow[v]
			}
		} else {
			for v := 0; v < n; v++ {
				inc.loadInputs(s, v)
				inc.pushTemporal(m, sc.caps[v])
				erow := sc.e.Row(v)
				copy(erow, erow[1:])
				erow[omega-1] = s.data[v][slot] - sc.yRow[0]
			}
		}
	} else {
		// VariantNoTemporal: Ŷ1 ≡ 0, so the error column is the target
		// itself and the shifted history is exact.
		for v := 0; v < n; v++ {
			erow := sc.e.Row(v)
			copy(erow, erow[1:])
			erow[omega-1] = s.data[v][slot]
		}
	}

	inc.scoreStage2(s)
}

// rotateTE advances the cached time-embedding (sinθ, cosθ) rows by one
// position: retained rows rotate by exactly −f_j per dimension, the row-0
// interval pin and the entering row are recomputed directly. Only the
// cones' rows are maintained — the benign path reads no other row, each
// cone row rotates out of the cone row after it, and a refresh rewrites
// every row — so rows before the cones go stale until the next refresh.
// The short window's rows are the long window's last ω, so one rotation
// from the earlier cone start serves both.
func (inc *incrementalState) rotateTE(m *Model, dtNew float64) {
	c := &inc.sc.te
	dm := m.temporal.te.dm
	w := c.sinL.Rows
	lo := w - max(inc.pol.Cone, inc.pol.ShortCone)
	rotateRows(c.sinL, c.cosL, lo, inc.sinF, inc.cosF)
	if lo == 0 {
		// times() pins dtL[0] to 1 regardless of the sample's real interval.
		copy(c.sinL.Row(0), inc.sinA)
		copy(c.cosL.Row(0), inc.cosA)
	}
	alpha := m.temporal.te.Alpha.Value.Data
	sl, cl := c.sinL.Row(w-1), c.cosL.Row(w-1)
	for j := 0; j < dm; j++ {
		th := inc.phaseLast[j] + dtNew*alpha[j]
		sl[j] = math.Sin(th)
		cl[j] = math.Cos(th)
	}
}

// rotateRows shifts rows start… of a (sin, cos) pair up one row while
// rotating each retained element by −f_j: sin(θ−f) = sinθ·cosF − cosθ·sinF
// and cos(θ−f) = cosθ·cosF + sinθ·sinF. The last row is left for the
// caller to recompute.
func rotateRows(sin, cos *tensor.Dense, start int, sinF, cosF []float64) {
	for r := start; r+1 < sin.Rows; r++ {
		sr, cr := sin.Row(r), cos.Row(r)
		sn, cn := sin.Row(r+1), cos.Row(r+1)
		for j := range sr {
			s1, c1 := sn[j], cn[j]
			sr[j] = s1*cosF[j] - c1*sinF[j]
			cr[j] = c1*cosF[j] + s1*sinF[j]
		}
	}
}

// loadInputs copies the inputs of the window's last inc.xs.Rows frames
// into inc.xs, oldest first: variate v's magnitudes, or every variate's
// (one row per frame) when v is −1.
func (inc *incrementalState) loadInputs(s *StreamDetector, v int) {
	w, k := s.m.cfg.LongWindow, inc.xs.Rows
	for i := 0; i < k; i++ {
		slot := (s.count - k + i) % w
		if v >= 0 {
			inc.xs.Data[i] = s.data[v][slot]
			continue
		}
		row := inc.xs.Row(i)
		for vv := range row {
			row[vv] = s.data[vv][slot]
		}
	}
}

// pushTemporal advances one stage-1 forward by a frame, the ring heads
// already moved: recompute the trailing cone through the encoder stack from
// its input rows, and run the decoder for the newest timestep only. c
// carries the variate's rings, inc.xs the window's last input rows, and the
// reconstructed newest row lands in sc.yRow.
func (inc *incrementalState) pushTemporal(m *Model, c *temporalCapture) {
	tm := m.temporal
	sc := inc.sc
	w, omega := c.oeK.Rows, c.selfK.Rows
	hl, hs := sc.headL, sc.headS
	cone, shortCone := inc.pol.Cone, inc.pol.ShortCone
	// Logical long-window row r's input is inc.xs row r−(W−K).
	xs, xOff := inc.xs, w-inc.xs.Rows

	// Build the trailing cone's input rows IE = encProj(x) + TE, then push
	// them through every encoder layer, refreshing each layer's K/V ring
	// along the way.
	coneStart := w - cone
	in, out := inc.coneIn, inc.coneOut
	for i := 0; i < cone; i++ {
		sc.encoderInput(tm, in.Row(i), xs.Row(coneStart+i-xOff), coneStart+i)
	}
	for li, layer := range tm.enc {
		kc, vc := c.enc[li].k, c.enc[li].v
		for i := 0; i < cone; i++ {
			r := coneStart + i
			layer.attn.Wk.ApplyRow(ringRow(kc, hl, r), in.Row(i))
			layer.attn.Wv.ApplyRow(ringRow(vc, hl, r), in.Row(i))
		}
		for i := 0; i < cone; i++ {
			sc.encodeRow(layer, in.Row(i), kc, vc, coneStart+i, out.Row(i))
		}
		in, out = out, in
	}
	// in now holds the encoder output's cone rows; refresh the decoder
	// cross-attention K/V ring from them.
	for i := 0; i < cone; i++ {
		r := coneStart + i
		tm.decCross.Wk.ApplyRow(ringRow(c.oeK, hl, r), in.Row(i))
		tm.decCross.Wv.ApplyRow(ringRow(c.oeV, hl, r), in.Row(i))
	}

	// Decoder self-attention K/V rings from ID = decProj(x) + TE; short row
	// r is long row W−ω+r.
	id := sc.rowA
	for r := omega - shortCone; r < omega; r++ {
		sc.decoderInput(tm, id, xs.Row(w-omega+r-xOff), r)
		tm.decSelf.Wk.ApplyRow(ringRow(c.selfK, hs, r), id)
		tm.decSelf.Wv.ApplyRow(ringRow(c.selfV, hs, r), id)
	}

	// Decoder forward, newest row only (older short-window timesteps keep
	// the error columns scored when they were newest). The cone loop ended on
	// row ω−1, so id already holds its input embedding.
	sc.decodeRow(tm, c, id, omega-1, omega == w)
}

// scoreStage2 turns the rolling error matrix into the newest timestep's
// final scores, mirroring noiseScores column ω−1: the graph and the
// propagated features are recomputed in full (they are O(N²·ω), cheap),
// the noise reconstruction only for the newest column.
func (inc *incrementalState) scoreStage2(s *StreamDetector) {
	m, sc := s.m, inc.sc
	e := sc.e
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
