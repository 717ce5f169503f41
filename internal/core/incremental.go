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
// the full forward).
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

// incrementalState is the per-detector cache behind the incremental path:
// one temporalCapture per stage-1 forward (per variate in univariate mode),
// the time-embedding parts every forward shares, a rolling stage-1 error
// matrix, precomputed trigonometry for the exact window-local position
// rotation, and allocation-free row scratch.
type incrementalState struct {
	pol IncrementalPolicy

	caps []*temporalCapture
	// Ring heads of every capture's W-row and ω-row matrices: the physical
	// row holding logical row 0. All captures slide in lockstep, so one pair
	// serves them all; every exact rebuild resets both to 0.
	headL, headS int
	te           timeEmbedCache // θ is data-independent: one copy serves every variate
	// e is the N×ω rolling stage-1 error matrix (separate from the scratch's
	// e so GraphSnapshot's exact recompute cannot clobber it).
	e *tensor.Dense

	// Trig constants: a window-local position shift of −1 rotates every
	// cached θ by exactly −f_j, so (sinθ, cosθ) advance by the angle
	// difference identities. sinA/cosA are sin/cos(α_j·1), the row-0 phase
	// where times() pins the interval to 1; phaseLast is f_j·(W−1), the
	// position part of the entering row.
	sinF, cosF []float64
	sinA, cosA []float64
	phaseLast  []float64

	// Row scratch for the benign path (all preallocated).
	xRow             []float64 // entering frame, model input width
	qRow, ctxRow     []float64
	attnScores       []float64
	rowA, rowB, rowC []float64
	hidden           []float64
	yRow             []float64     // decoder output row (sigmoid applied)
	coneIn, coneOut  *tensor.Dense // cone×d_m ping-pong buffers
	fullA, fullB     *tensor.Dense // W×d_m ping-pong buffers (row refresh)
	dynBackup        *tensor.Dense // dyn.a snapshot for guard rollback

	sinceRefresh int
	valid        bool
	stats        IncrementalStats
}

// newIncrementalState sizes the caches for the model's geometry. The state
// starts invalid: the first scored frame runs a full exact pass that also
// populates every cache.
func newIncrementalState(m *Model, pol IncrementalPolicy) *incrementalState {
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
	inc := &incrementalState{pol: pol, e: tensor.New(m.n, omega)}
	if m.cfg.usesTemporal() {
		tm := m.temporal
		dm := tm.te.dm
		nCaps := m.n
		inDim := 1
		if m.cfg.multivariateInput() {
			nCaps, inDim = 1, m.n
		}
		for i := 0; i < nCaps; i++ {
			inc.caps = append(inc.caps, tm.newTemporalCapture(w, omega))
		}
		inc.te = timeEmbedCache{
			sinL: tensor.New(w, dm), cosL: tensor.New(w, dm),
			sinS: tensor.New(omega, dm), cosS: tensor.New(omega, dm),
		}
		inc.caps[0].te = &inc.te // where the tape refresh's captured pass writes them
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
		inc.xRow = make([]float64, inDim)
		inc.qRow = make([]float64, dm)
		inc.ctxRow = make([]float64, dm)
		inc.attnScores = make([]float64, w)
		inc.rowA = make([]float64, dm)
		inc.rowB = make([]float64, dm)
		inc.rowC = make([]float64, dm)
		inc.hidden = make([]float64, m.cfg.FFNHidden)
		inc.yRow = make([]float64, inDim)
		inc.coneIn = tensor.New(inc.pol.Cone, dm)
		inc.coneOut = tensor.New(inc.pol.Cone, dm)
		inc.fullA = tensor.New(w, dm)
		inc.fullB = tensor.New(w, dm)
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

// refresh runs the full exact two-stage forward, rebuilding every cache as
// a side effect of scoring. Temporal variants take the row-kernel rebuild
// (refreshRows); the tape path remains as the reference and serves the
// shapes the row path cannot (no temporal module, non-contiguous positions).
func (inc *incrementalState) refresh(s *StreamDetector) []float64 {
	inc.headL, inc.headS = 0, 0 // both rebuilds write logical = physical
	if s.m.cfg.usesTemporal() && inc.refreshRows(s) {
		return s.scores
	}
	return inc.refreshTape(s)
}

// refreshTape is the tape-backed exact refresh: the full two-stage forward
// with activation capture enabled.
func (inc *incrementalState) refreshTape(s *StreamDetector) []float64 {
	w, omega := s.m.cfg.LongWindow, s.m.cfg.ShortWindow
	s.sc.caps = inc.caps
	p := s.window()
	final, _ := s.m.windowScores(p, w-1, s.dyn, s.sc)
	s.sc.caps = nil
	inc.e.CopyFrom(s.sc.e)
	for v := 0; v < s.m.n; v++ {
		s.scores[v] = final.At(v, omega-1)
	}
	inc.sinceRefresh = 0
	inc.valid = true
	return s.scores
}

// refreshRows is the tape-free exact refresh: the same full-window two-stage
// forward as refreshTape, rebuilt row by row with the ApplyRow/AttendRow
// kernels straight into the caches. It reads only the raw window rings and
// the weights, so it serves every refresh cause (schedule, drift, guard,
// invalidation). Bit-identity with the tape path holds because the row
// kernels are pinned rowwise-identical to the tape ops, the time embedding
// reuses the same hoisted phase matrices, residual adds commute, and stage 2
// is literally noiseScores — the same code windowScores runs. Reports false
// (leaving all state untouched) when the hoisted phase matrices are
// unavailable, i.e. non-contiguous positions that no model path emits.
func (inc *incrementalState) refreshRows(s *StreamDetector) bool {
	m := s.m
	tm := m.temporal
	sc := s.sc
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	p := s.window()
	wt := m.times(p, w-1, &sc.wt)
	phL := tm.te.cachedPhase(wt.posL)
	phS := tm.te.cachedPhase(wt.posS)
	if phL == nil || phS == nil {
		return false
	}
	// Time embedding, evaluated directly: θ[l][j] = phase[l][j] + dt[l]·α[j]
	// elementwise, exactly the tape's Add(phase, MatMul(dt, α)).
	alpha := tm.te.Alpha.Value.Data
	fillTE(inc.te.sinL, inc.te.cosL, phL, wt.dtL, alpha)
	fillTE(inc.te.sinS, inc.te.cosS, phS, wt.dtS, alpha)

	slot := sc.slots[0]
	if m.cfg.multivariateInput() {
		long, short := m.longShort(p, 0, w-1, slot)
		inc.refreshStage1(m, inc.caps[0], long, short, sc.e, -1)
	} else {
		for v := 0; v < m.n; v++ {
			long, short := m.longShort(p, v, w-1, slot)
			inc.refreshStage1(m, inc.caps[v], long, short, sc.e, v)
		}
	}
	final := m.noiseScores(sc.e, s.dyn, sc)
	inc.e.CopyFrom(sc.e)
	for v := 0; v < m.n; v++ {
		s.scores[v] = final.At(v, omega-1)
	}
	inc.sinceRefresh = 0
	inc.valid = true
	return true
}

// refreshStage1 rebuilds one stage-1 forward over the whole window with the
// row kernels, writing every activation ring of capture c (at head 0, which
// refresh has just set) and the stage-1 errors e = y − ŷ1 into the rows of
// e. v is the variate owning the rows (−1 in multivariate mode, where one
// pass reconstructs every variate and the error write transposes like
// reconstruct does).
func (inc *incrementalState) refreshStage1(m *Model, c *temporalCapture, long, short, e *tensor.Dense, v int) {
	tm := m.temporal
	te := &inc.te
	dm := tm.te.dm
	w, omega := c.encP.Rows, c.decP.Rows

	// Encoder: input projection ring, then IE = encProj(x) + TE.
	for r := 0; r < w; r++ {
		tm.encProj.ApplyRow(c.encP.Row(r), long.Row(r))
	}
	in, out := inc.fullA, inc.fullB
	for r := 0; r < w; r++ {
		dst := in.Row(r)
		ep, sr, cr := c.encP.Row(r), te.sinL.Row(r), te.cosL.Row(r)
		for j := 0; j < dm; j++ {
			dst[j] = ep[j] + (sr[j] + cr[j])
		}
	}
	for li, layer := range tm.enc {
		kc, vc := c.enc[li].k, c.enc[li].v
		for r := 0; r < w; r++ {
			layer.attn.Wk.ApplyRow(kc.Row(r), in.Row(r))
			layer.attn.Wv.ApplyRow(vc.Row(r), in.Row(r))
		}
		for r := 0; r < w; r++ {
			inc.encodeRow(layer, in.Row(r), kc, vc, r, out.Row(r))
		}
		in, out = out, in
	}
	// in now holds the encoder output; cross-attention K/V ring.
	for r := 0; r < w; r++ {
		tm.decCross.Wk.ApplyRow(c.oeK.Row(r), in.Row(r))
		tm.decCross.Wv.ApplyRow(c.oeV.Row(r), in.Row(r))
	}

	// Decoder rings: input projection, then self-attention K/V from
	// ID = decProj(x) + TE.
	for r := 0; r < omega; r++ {
		tm.decProj.ApplyRow(c.decP.Row(r), short.Row(r))
	}
	for r := 0; r < omega; r++ {
		id := inc.rowA
		dp, sr, cr := c.decP.Row(r), te.sinS.Row(r), te.cosS.Row(r)
		for j := 0; j < dm; j++ {
			id[j] = dp[j] + (sr[j] + cr[j])
		}
		tm.decSelf.Wk.ApplyRow(c.selfK.Row(r), id)
		tm.decSelf.Wv.ApplyRow(c.selfV.Row(r), id)
	}

	// Decoder forward, every short-window row, straight into the stage-1
	// errors. The targets y are the short-window inputs themselves, so
	// e = short − ŷ1 cell for cell (transposed in multivariate mode, like
	// reconstruct's output write).
	for r := 0; r < omega; r++ {
		id := inc.rowA
		dp, sr, cr := c.decP.Row(r), te.sinS.Row(r), te.cosS.Row(r)
		for j := 0; j < dm; j++ {
			id[j] = dp[j] + (sr[j] + cr[j])
		}
		inc.decodeRow(tm, c, id, r, omega == w)
		if v >= 0 {
			e.Row(v)[r] = short.Row(r)[0] - inc.yRow[0]
		} else {
			srow := short.Row(r)
			for vv, yv := range inc.yRow {
				e.Row(vv)[r] = srow[vv] - yv
			}
		}
	}
}

// encodeRow pushes input row x (window position r) through one encoder
// layer: banded self-attention over the layer's K/V rings, residual, layer
// norm, FFN, residual, layer norm — the kernel chain shared by the benign
// cone and the row refresh.
func (inc *incrementalState) encodeRow(layer *encoderLayer, x []float64, kc, vc *tensor.Dense, r int, out []float64) {
	layer.attn.Wq.ApplyRow(inc.qRow, x)
	layer.attn.AttendRow(inc.ctxRow, inc.attnScores, inc.qRow, kc, vc, inc.headL, r, true)
	layer.attn.Wo.ApplyRow(inc.rowA, inc.ctxRow)
	for j := range inc.rowA {
		inc.rowA[j] += x[j]
	}
	layer.ln1.ApplyRow(inc.rowA, inc.rowA)
	layer.ffn.ApplyRow(inc.rowB, inc.hidden, inc.rowA)
	for j := range inc.rowB {
		inc.rowB[j] += inc.rowA[j]
	}
	layer.ln2.ApplyRow(out, inc.rowB)
}

// decodeRow runs the decoder for short-window row r from its input
// embedding id: masked self-attention over the selfK/selfV rings,
// cross-attention over the encoder-output rings, output FFN and sigmoid
// into inc.yRow. square is whether the cross-attention is square (ω == W),
// mirroring the tape's band-mask rule.
func (inc *incrementalState) decodeRow(tm *temporalModule, c *temporalCapture, id []float64, r int, square bool) {
	tm.decSelf.Wq.ApplyRow(inc.qRow, id)
	tm.decSelf.AttendRow(inc.ctxRow, inc.attnScores, inc.qRow, c.selfK, c.selfV, inc.headS, r, true)
	tm.decSelf.Wo.ApplyRow(inc.rowB, inc.ctxRow)
	for j := range inc.rowB {
		inc.rowB[j] += id[j]
	}
	tm.decLN1.ApplyRow(inc.rowB, inc.rowB)
	tm.decCross.Wq.ApplyRow(inc.qRow, inc.rowB)
	tm.decCross.AttendRow(inc.ctxRow, inc.attnScores, inc.qRow, c.oeK, c.oeV, inc.headL, r, square)
	tm.decCross.Wo.ApplyRow(inc.rowC, inc.ctxRow)
	for j := range inc.rowC {
		inc.rowC[j] += inc.rowB[j]
	}
	tm.decLN2.ApplyRow(inc.rowC, inc.rowC)
	tm.outFFN.ApplyRow(inc.yRow, inc.hidden, inc.rowC)
	for j, yv := range inc.yRow {
		inc.yRow[j] = 1 / (1 + math.Exp(-yv))
	}
}

// fillTE evaluates the time embedding trigonometry directly:
// θ[l][j] = phase[l][j] + dt[l]·α[j], then sinθ and cosθ elementwise —
// the same per-cell arithmetic as the tape's Add/MatMul/Sin/Cos chain.
func fillTE(sin, cos, phase *tensor.Dense, dt, alpha []float64) {
	for l := 0; l < sin.Rows; l++ {
		sr, cr, ph := sin.Row(l), cos.Row(l), phase.Row(l)
		d := dt[l]
		for j := range sr {
			th := ph[j] + d*alpha[j]
			sr[j] = math.Sin(th)
			cr[j] = math.Cos(th)
		}
	}
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
	m := s.m
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	n := m.n
	slot := (s.count - 1) % w

	if m.cfg.usesTemporal() {
		prev := (s.count - 2 + w) % w
		dtNew := (s.times[slot] - s.times[prev]) / m.dtScale
		inc.rotateTE(m, dtNew)
		// Slide every ring one position: the slot of the row that left the
		// window becomes the entering row's.
		if inc.headL++; inc.headL == w {
			inc.headL = 0
		}
		if inc.headS++; inc.headS == omega {
			inc.headS = 0
		}
		if m.cfg.multivariateInput() {
			for v := 0; v < n; v++ {
				inc.xRow[v] = s.data[v][slot]
			}
			inc.pushTemporal(m, inc.caps[0])
			for v := 0; v < n; v++ {
				erow := inc.e.Row(v)
				copy(erow, erow[1:])
				erow[omega-1] = s.data[v][slot] - inc.yRow[v]
			}
		} else {
			for v := 0; v < n; v++ {
				inc.xRow[0] = s.data[v][slot]
				inc.pushTemporal(m, inc.caps[v])
				erow := inc.e.Row(v)
				copy(erow, erow[1:])
				erow[omega-1] = s.data[v][slot] - inc.yRow[0]
			}
		}
	} else {
		// VariantNoTemporal: Ŷ1 ≡ 0, so the error column is the target
		// itself and the shifted history is exact.
		for v := 0; v < n; v++ {
			erow := inc.e.Row(v)
			copy(erow, erow[1:])
			erow[omega-1] = s.data[v][slot]
		}
	}

	inc.scoreStage2(s)
}

// rotateTE advances the cached time-embedding (sinθ, cosθ) rows by one
// position: retained rows rotate by exactly −f_j per dimension, the row-0
// interval pin and the entering row are recomputed directly.
func (inc *incrementalState) rotateTE(m *Model, dtNew float64) {
	c := &inc.te
	dm := m.temporal.te.dm
	w, omega := c.sinL.Rows, c.sinS.Rows
	rotateRows(c.sinL, c.cosL, inc.sinF, inc.cosF)
	// times() pins dtL[0] to 1 regardless of the sample's real interval.
	copy(c.sinL.Row(0), inc.sinA)
	copy(c.cosL.Row(0), inc.cosA)
	alpha := m.temporal.te.Alpha.Value.Data
	sl, cl := c.sinL.Row(w-1), c.cosL.Row(w-1)
	for j := 0; j < dm; j++ {
		th := inc.phaseLast[j] + dtNew*alpha[j]
		sl[j] = math.Sin(th)
		cl[j] = math.Cos(th)
	}
	rotateRows(c.sinS, c.cosS, inc.sinF, inc.cosF)
	if omega == w {
		// Only when the short window spans the long one does its row 0
		// inherit the interval pin; otherwise row 0 sits mid-window and
		// the rotation above already placed it exactly.
		copy(c.sinS.Row(0), inc.sinA)
		copy(c.cosS.Row(0), inc.cosA)
	}
	// The short window is the long window's suffix: its last row shares
	// the long last row's position and interval.
	copy(c.sinS.Row(omega-1), sl)
	copy(c.cosS.Row(omega-1), cl)
}

// rotateRows shifts a (sin, cos) pair up one row while rotating each
// retained element by −f_j: sin(θ−f) = sinθ·cosF − cosθ·sinF and
// cos(θ−f) = cosθ·cosF + sinθ·sinF.
func rotateRows(sin, cos *tensor.Dense, sinF, cosF []float64) {
	for r := 0; r+1 < sin.Rows; r++ {
		sr, cr := sin.Row(r), cos.Row(r)
		sn, cn := sin.Row(r+1), cos.Row(r+1)
		for j := range sr {
			s1, c1 := sn[j], cn[j]
			sr[j] = s1*cosF[j] - c1*sinF[j]
			cr[j] = c1*cosF[j] + s1*sinF[j]
		}
	}
}

// pushTemporal advances one stage-1 forward by a frame, the ring heads
// already moved: re-project the entering row, recompute the trailing cone
// through the encoder stack, and run the decoder for the newest timestep
// only. c carries the variate's rings. The entering input row is in inc.xRow
// and the reconstructed newest row lands in inc.yRow.
func (inc *incrementalState) pushTemporal(m *Model, c *temporalCapture) {
	tm := m.temporal
	te := &inc.te
	dm := tm.te.dm
	w, omega := c.encP.Rows, c.decP.Rows
	hl, hs := inc.headL, inc.headS
	cone, shortCone := inc.pol.Cone, inc.pol.ShortCone

	// Encoder input projection of the entering row.
	tm.encProj.ApplyRow(ringRow(c.encP, hl, w-1), inc.xRow)

	// Rebuild the trailing cone's input rows IE = encProj(x) + TE from the
	// caches, then push them through every encoder layer, refreshing each
	// layer's K/V ring along the way.
	coneStart := w - cone
	in, out := inc.coneIn, inc.coneOut
	for i := 0; i < cone; i++ {
		r := coneStart + i
		dst := in.Row(i)
		ep, sr, cr := ringRow(c.encP, hl, r), te.sinL.Row(r), te.cosL.Row(r)
		for j := 0; j < dm; j++ {
			dst[j] = ep[j] + (sr[j] + cr[j])
		}
	}
	for li, layer := range tm.enc {
		kc, vc := c.enc[li].k, c.enc[li].v
		for i := 0; i < cone; i++ {
			r := coneStart + i
			layer.attn.Wk.ApplyRow(ringRow(kc, hl, r), in.Row(i))
			layer.attn.Wv.ApplyRow(ringRow(vc, hl, r), in.Row(i))
		}
		for i := 0; i < cone; i++ {
			inc.encodeRow(layer, in.Row(i), kc, vc, coneStart+i, out.Row(i))
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

	// Decoder rings: input projection and self-attention K/V.
	tm.decProj.ApplyRow(ringRow(c.decP, hs, omega-1), inc.xRow)
	id := inc.rowA
	for i := 0; i < shortCone; i++ {
		r := omega - shortCone + i
		dp, sr, cr := ringRow(c.decP, hs, r), te.sinS.Row(r), te.cosS.Row(r)
		for j := 0; j < dm; j++ {
			id[j] = dp[j] + (sr[j] + cr[j])
		}
		tm.decSelf.Wk.ApplyRow(ringRow(c.selfK, hs, r), id)
		tm.decSelf.Wv.ApplyRow(ringRow(c.selfV, hs, r), id)
	}

	// Decoder forward, newest row only (older short-window timesteps keep
	// the error columns scored when they were newest). The cone loop ended on
	// row ω−1, so id already holds its input embedding.
	inc.decodeRow(tm, c, id, omega-1, omega == w)
}

// scoreStage2 turns the rolling error matrix into the newest timestep's
// final scores, mirroring windowScores column ω−1: the graph and the
// propagated features are recomputed in full (they are O(N²·ω), cheap),
// the noise reconstruction only for the newest column.
func (inc *incrementalState) scoreStage2(s *StreamDetector) {
	m := s.m
	omega := m.cfg.ShortWindow
	n := m.n
	if !m.cfg.usesNoise() {
		for v := 0; v < n; v++ {
			s.scores[v] = math.Abs(inc.e.At(v, omega-1))
		}
		return
	}
	sc := s.sc
	var a *tensor.Dense
	switch m.cfg.Variant {
	case VariantStaticGraph:
		sc.adj.Fill(1)
		a = sc.adj
	case VariantDynamicGraph:
		inc.dynBackup.CopyFrom(s.dyn.a)
		a = s.dyn.nextInto(windowGraphInto(inc.e, sc.adj), sc.adj)
	default:
		a = windowGraphInto(inc.e, sc.adj)
	}
	h := propagateInto(a, inc.e, sc.h)
	col := omega - 1
	wTheta := m.noise.W.Value
	bias := m.noise.B.Value.Data[col]
	for v := 0; v < n; v++ {
		hrow := h.Row(v)
		var acc float64
		for k, hv := range hrow {
			if hv == 0 {
				continue
			}
			acc += hv * wTheta.At(k, col)
		}
		yhat2 := math.Tanh(acc + bias)
		s.scores[v] = math.Abs(inc.e.At(v, col) - yhat2)
	}
}

// ringRow returns logical row r of a ring whose logical row 0 is physical
// row head.
func ringRow(t *tensor.Dense, head, r int) []float64 {
	if r += head; r >= t.Rows {
		r -= t.Rows
	}
	return t.Row(r)
}
