package core

import (
	"math"

	"aero/internal/nn"
	"aero/internal/tensor"
	"aero/internal/window"
)

// The inference forward: the two-stage AERO pass over one window, computed
// with internal/nn's row kernels and no tape. Batch scoring, threshold
// calibration, stage 2's frozen stage-1 pass and every streaming refresh run
// stage1Errors (batch scoring follows it with noiseScores, in windowScores;
// a refresh with the newest column's stage 2 alone); the tape runs the same
// arithmetic for training only, and TestRowForwardMatchesTape holds the two
// together bit for bit.
//
// Stage 1 runs a layer at a time: every step of a layer — a projection, the
// attention rows, a residual, a layer norm, an FFN — runs over all the rows
// in flight before the next step starts, as one multi-row kernel call per
// weight matrix. An exact pass has the window's W (encoder) or ω (decoder)
// rows in flight; the benign streaming path pushes the one entering row
// through the same code (encode, decode), so the two cannot drift apart.

// scratch is the workspace of the inference forward: every buffer scoring
// one window reads or writes besides the weights, so the forward allocates
// nothing. A scratch belongs to a single logical stream (one StreamDetector,
// or one batch-scoring worker) and must not be shared across goroutines;
// tensors returned by scratch-threaded methods are owned by the scratch and
// remain valid only until its next use.
type scratch struct {
	wt windowTimes // posL/dtL/posS/dtS of the window in flight
	// W×inDim and ω×inDim inputs of the stage-1 pass in flight. Between
	// exact passes the benign path keeps its entering input row in long's
	// last row.
	long, short *tensor.Dense

	e     *tensor.Dense // N×ω stage-1 errors
	final *tensor.Dense // N×ω final scores; an exact stage-1 pass's ω×inDim output before them
	adj   *tensor.Dense // N×N window-wise graph
	h     *tensor.Dense // N×ω propagated error features

	// Stage-1 activations (temporal variants only). A batch scratch has one
	// capture that every variate's pass overwrites; a streaming detector
	// keeps one per variate, because its benign path advances them between
	// exact passes. headL/headS are the ring heads of the captures' W-slot and
	// ω-slot rings — the physical slot holding logical position 0. All
	// captures slide in lockstep, so one pair serves them all; stage1Errors
	// resets both to 0.
	caps         []*temporalCapture
	te           timeEmbedCache
	headL, headS int

	// act holds the rows in flight, d_m wide (W of them at most): a layer's
	// input, overwritten in place by each residual and layer norm. spare is
	// the scratch of one step at a time: a batch of keys on their way into a
	// key-major ring, the queries and then the attention contexts, or as many
	// FFN hidden rows as fit.
	act, spare []float64
	attnScores []float64
	yRow       []float64 // the benign path's decoder output row (sigmoid applied)
}

// newScratch sizes a scratch for the model's window geometry with caps
// stage-1 captures: 1 for a caller that only wants a window's scores, one
// per variate for a caller that keeps the activations (multivariate input
// has a single stage-1 pass, so one either way).
func (m *Model) newScratch(caps int) *scratch {
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	sc := &scratch{
		wt:    newWindowTimes(w, omega),
		e:     tensor.New(m.n, omega),
		final: tensor.New(m.n, omega),
		adj:   tensor.New(m.n, m.n),
		h:     tensor.New(m.n, omega),
	}
	if !m.cfg.usesTemporal() {
		return sc
	}
	tm := m.temporal
	dm := tm.te.dm
	if m.cfg.multivariateInput() {
		caps = 1
	}
	sc.long, sc.short = tensor.New(w, tm.inDim), tensor.New(omega, tm.inDim)
	for i := 0; i < caps; i++ {
		sc.caps = append(sc.caps, tm.newTemporalCapture(w, omega))
	}
	sinL, cosL := tensor.New(w, dm), tensor.New(w, dm)
	suffix := (w - omega) * dm
	sc.te = timeEmbedCache{
		sinL: sinL, cosL: cosL,
		sinS: tensor.FromSlice(omega, dm, sinL.Data[suffix:]),
		cosS: tensor.FromSlice(omega, dm, cosL.Data[suffix:]),
	}
	sc.act = make([]float64, w*dm)
	sc.spare = make([]float64, max(w*dm, m.cfg.FFNHidden))
	sc.attnScores = make([]float64, w)
	sc.yRow = make([]float64, tm.inDim)
	return sc
}

// windowScores computes the final per-point anomaly scores
// |Y − Ŷ1 − Ŷ2| for one window (N×ω), plus the intermediate stage-1
// errors. dyn is the evolving-graph state for the dynamic ablation. The
// returned tensors are owned by the scratch.
func (m *Model) windowScores(p *prepared, end int, dyn *dynamicGraphState, sc *scratch) (final, e1 *tensor.Dense) {
	e := m.stage1Errors(p, end, m.times(p, end, &sc.wt), sc)
	return m.noiseScores(e, dyn, sc), e
}

// stage1Errors runs stage 1 over the window ending at end and returns
// E = Y − Ŷ1 (N×ω, in sc.e) — the quantity scoring, stage-2 training and
// the graph snapshots are built on. As a side effect it rewrites the
// scratch's time-embedding cache and every activation ring at head 0.
func (m *Model) stage1Errors(p *prepared, end int, wt windowTimes, sc *scratch) *tensor.Dense {
	if !m.cfg.usesTemporal() {
		// VariantNoTemporal: Ŷ1 ≡ 0, so the error is the target itself.
		for v := 0; v < m.n; v++ {
			copy(sc.e.Row(v), window.Slice(p.data[v], end, m.cfg.ShortWindow))
		}
		return sc.e
	}
	// The short window's embedding is the long window's suffix (times()
	// copies posS/dtS from posL/dtL), so sinS/cosS fill with it.
	m.temporal.te.sinCos(sc.te.sinL, sc.te.cosL, wt.posL, wt.dtL)
	sc.headL, sc.headS = 0, 0
	if m.cfg.multivariateInput() {
		m.longShort(p, 0, end, sc.long, sc.short)
		sc.stage1Rows(m.temporal, sc.caps[0], -1)
		return sc.e
	}
	for v := 0; v < m.n; v++ {
		m.longShort(p, v, end, sc.long, sc.short)
		sc.stage1Rows(m.temporal, sc.caps[v%len(sc.caps)], v)
	}
	return sc.e
}

// stage1Rows runs one exact stage-1 forward over sc.long/sc.short, writing
// every ring of capture c at head 0 and the stage-1 errors e = y − ŷ1 into
// sc.e. v is the variate owning the error row (−1 in multivariate mode,
// where one pass reconstructs every variate and the ω×N output lands
// transposed). Bit-identity with temporalModule.forward holds because the
// row kernels are pinned rowwise-identical to the tape ops, sinCos is the
// tape's time embedding cell for cell, and residual adds commute.
func (sc *scratch) stage1Rows(tm *temporalModule, c *temporalCapture, v int) {
	short := sc.short
	omega := short.Rows
	sc.encode(tm, c, sc.long.Data, sc.long.Rows, 0)
	// The ω×inDim reconstruction borrows the final-score matrix (N×ω cells,
	// at least as many), which stage 2 rewrites afterwards.
	y := sc.final.Data[:omega*tm.inDim]
	sc.decode(tm, c, short.Data, omega, 0, y)
	// The targets are the short-window inputs themselves, so e = short − ŷ1
	// cell for cell.
	if v >= 0 {
		erow := sc.e.Row(v)
		for r, yv := range y {
			erow[r] = short.Data[r] - yv
		}
		return
	}
	for r := 0; r < omega; r++ {
		srow, yrow := short.Row(r), y[r*tm.inDim:(r+1)*tm.inDim]
		for vv, yv := range yrow {
			sc.e.Row(vv)[r] = srow[vv] - yv
		}
	}
}

// encode runs the encoder over the n input rows in (inDim wide each) at
// logical long-window positions r0, r0+1, …: IE = encProj(x) + TE, then the
// layer stack, every step over all the rows before the next. Each layer's
// K/V of those rows and the decoder's cross-attention K/V of the encoder
// output go into c's rings at the rows' positions. The encoder output is
// left in sc.act.
func (sc *scratch) encode(tm *temporalModule, c *temporalCapture, in []float64, n, r0 int) {
	x := sc.act[:n*tm.te.dm]
	sc.embed(tm.encProj, x, in, n, sc.te.sinL, sc.te.cosL, r0)
	for li, layer := range tm.enc {
		ring := c.enc[li]
		sc.projectKV(layer.attn, ring.k, ring.v, sc.headL, x, n, r0)
		sc.attend(layer.attn, ring.k, ring.v, sc.headL, x, n, r0, true)
		layer.ln1.ApplyRows(x, x, n)
		layer.ffn.ApplyRows(x, sc.spare, x, n, true)
		layer.ln2.ApplyRows(x, x, n)
	}
	sc.projectKV(tm.decCross, c.oeK, c.oeV, sc.headL, x, n, r0)
}

// decode runs the decoder for the n input rows in at logical short-window
// positions r0, r0+1, …: ID = decProj(x) + TE, masked self-attention (its
// K/V written into c's self rings first), cross-attention over the encoder
// output rings, the output FFN and the sigmoid into y (inDim wide per row).
// The cross-attention is banded only when it is square (ω == W), mirroring
// the tape's band-mask rule.
func (sc *scratch) decode(tm *temporalModule, c *temporalCapture, in []float64, n, r0 int, y []float64) {
	x := sc.act[:n*tm.te.dm]
	sc.embed(tm.decProj, x, in, n, sc.te.sinS, sc.te.cosS, r0)
	sc.projectKV(tm.decSelf, c.selfK, c.selfV, sc.headS, x, n, r0)
	sc.attend(tm.decSelf, c.selfK, c.selfV, sc.headS, x, n, r0, true)
	tm.decLN1.ApplyRows(x, x, n)
	sc.attend(tm.decCross, c.oeK, c.oeV, sc.headL, x, n, r0, c.selfK.Cols == c.oeK.Cols)
	tm.decLN2.ApplyRows(x, x, n)
	tm.outFFN.ApplyRows(y, sc.spare, x, n, false)
	for j, yv := range y {
		y[j] = 1 / (1 + math.Exp(-yv))
	}
}

// embed writes proj(x) + TE for the n input rows in into x, the time
// embedding read from rows r0, r0+1, … of sin/cos.
func (sc *scratch) embed(proj *nn.Linear, x, in []float64, n int, sin, cos *tensor.Dense, r0 int) {
	proj.ApplyRows(x, in, n, false)
	s, c := sin.Data[r0*sin.Cols:][:len(x)], cos.Data[r0*cos.Cols:][:len(x)]
	for j := range x {
		x[j] += s[j] + c[j]
	}
}

// projectKV writes K = x·W_K and V = x·W_V of the n rows x at logical
// positions r0, r0+1, … into the rings k (key-major: each key a column) and
// v (row-major), physical slot (head + position) mod the ring length.
func (sc *scratch) projectKV(a *nn.MultiHeadAttention, k, v *tensor.Dense, head int, x []float64, n, r0 int) {
	dm, slots := a.Dim, k.Cols
	keys := sc.spare[:n*dm]
	a.Wk.ApplyRows(keys, x, n, false)
	p := head + r0
	if p >= slots {
		p -= slots
	}
	for i, col := 0, p; i < n; i, col = i+1, col+1 {
		if col == slots {
			col = 0
		}
		kc := k.Data[col:] // the key's column: dimension d at kc[d*slots]
		for d, kv := range keys[i*dm : (i+1)*dm] {
			kc[d*slots] = kv
		}
	}
	// The values' slots are at most two contiguous runs of rows: first rows
	// from p, the rest from row 0.
	first := min(n, slots-p)
	a.Wv.ApplyRows(v.Data[p*dm:(p+first)*dm], x[:first*dm], first, false)
	if first < n {
		a.Wv.ApplyRows(v.Data, x[first*dm:], n-first, false)
	}
}

// attend runs one attention sublayer and its residual over the n rows x at
// logical positions r0, r0+1, …: the queries, each row's context over the
// k/v rings (in place of its query), then x ← Wo(context) + x.
func (sc *scratch) attend(a *nn.MultiHeadAttention, k, v *tensor.Dense, head int, x []float64, n, r0 int, square bool) {
	q := sc.spare[:len(x)]
	a.Wq.ApplyRows(q, x, n, false)
	a.AttendRows(q, n, sc.attnScores, k, v, head, r0, square)
	a.Wo.ApplyRows(x, q, n, true)
}

// adjacency returns the graph for the window given its stage-1 errors,
// respecting the graph ablation variants. dyn is non-nil only for
// VariantDynamicGraph.
func (m *Model) adjacency(e *tensor.Dense, dyn *dynamicGraphState, sc *scratch) *tensor.Dense {
	switch m.cfg.Variant {
	case VariantStaticGraph:
		sc.adj.Fill(1)
		return sc.adj
	case VariantDynamicGraph:
		return dyn.nextInto(windowGraphInto(e, sc.adj), sc.adj)
	default:
		return windowGraphInto(e, sc.adj)
	}
}

// noiseScores runs stage 2 over all ω columns — graph propagation and noise
// reconstruction over already-computed stage-1 errors — and returns the
// final scores |E − Ŷ2| (N×ω, in sc.final).
func (m *Model) noiseScores(e *tensor.Dense, dyn *dynamicGraphState, sc *scratch) *tensor.Dense {
	final := sc.final
	if !m.cfg.usesNoise() {
		for i := range final.Data {
			final.Data[i] = math.Abs(e.Data[i])
		}
		return final
	}
	// Propagate the stage-1 *error patterns* (Algorithm 1: M2(Y−Ŷ1, Y);
	// §III-D: a noise-affected variate "can be effectively reconstructed
	// using the error patterns of other similarly affected variates").
	h := propagateInto(m.adjacency(e, dyn, sc), e, sc.h)
	for v := 0; v < m.n; v++ {
		frow, erow := final.Row(v), e.Row(v)
		m.noise.ApplyRow(frow, h.Row(v)) // Ŷ2 before its tanh
		for i, y := range frow {
			frow[i] = math.Abs(erow[i] - math.Tanh(y))
		}
	}
	return final
}
