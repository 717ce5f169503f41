package core

import (
	"math"

	"aero/internal/tensor"
	"aero/internal/window"
)

// The inference forward: the two-stage AERO pass over one window, computed
// row by row with internal/nn's ApplyRow/AttendRow kernels and no tape.
// Batch scoring, threshold calibration, stage 2's frozen stage-1 pass and
// every streaming refresh run windowScores (or its first half,
// stage1Errors); the tape runs the same arithmetic for training only, and
// TestRowForwardMatchesTape holds the two together bit for bit.

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
	final *tensor.Dense // N×ω final anomaly scores
	adj   *tensor.Dense // N×N window-wise graph
	h     *tensor.Dense // N×ω propagated error features

	// Stage-1 activations (temporal variants only). A batch scratch has one
	// capture that every variate's pass overwrites; a streaming detector
	// keeps one per variate, because its benign path advances them between
	// exact passes. headL/headS are the ring heads of the captures' W-row and
	// ω-row matrices — the physical row holding logical row 0. All captures
	// slide in lockstep, so one pair serves them all; stage1Errors resets
	// both to 0.
	caps         []*temporalCapture
	te           timeEmbedCache
	headL, headS int

	// Row scratch.
	qRow, ctxRow     []float64
	attnScores       []float64
	rowA, rowB, rowC []float64
	hidden           []float64
	yRow             []float64     // decoder output row (sigmoid applied)
	fullA, fullB     *tensor.Dense // W×d_m encoder ping-pong buffers; the benign path's are their row 0
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
	sc.qRow = make([]float64, dm)
	sc.ctxRow = make([]float64, dm)
	sc.attnScores = make([]float64, w)
	sc.rowA = make([]float64, dm)
	sc.rowB = make([]float64, dm)
	sc.rowC = make([]float64, dm)
	sc.hidden = make([]float64, m.cfg.FFNHidden)
	sc.yRow = make([]float64, tm.inDim)
	sc.fullA = tensor.New(w, dm)
	sc.fullB = tensor.New(w, dm)
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

// stage1Rows runs one stage-1 forward over sc.long/sc.short with the row
// kernels, writing every activation ring of capture c at head 0 and the
// stage-1 errors e = y − ŷ1 into sc.e. v is the variate owning the error row
// (−1 in multivariate mode, where one pass reconstructs every variate and
// the ω×N output lands transposed). Bit-identity with temporalModule.forward
// holds because the row kernels are pinned rowwise-identical to the tape
// ops, sinCos is the tape's time embedding cell for cell, and residual adds
// commute.
func (sc *scratch) stage1Rows(tm *temporalModule, c *temporalCapture, v int) {
	long, short := sc.long, sc.short
	w, omega := long.Rows, short.Rows

	// Encoder: IE = encProj(x) + TE, then the layer stack.
	in, out := sc.fullA, sc.fullB
	for r := 0; r < w; r++ {
		sc.encoderInput(tm, in.Row(r), long.Row(r), r)
	}
	for li, layer := range tm.enc {
		kc, vc := c.enc[li].k, c.enc[li].v
		for r := 0; r < w; r++ {
			layer.attn.Wk.ApplyRow(kc.Row(r), in.Row(r))
			layer.attn.Wv.ApplyRow(vc.Row(r), in.Row(r))
		}
		for r := 0; r < w; r++ {
			sc.encodeRow(layer, in.Row(r), kc, vc, r, out.Row(r))
		}
		in, out = out, in
	}
	// in now holds the encoder output; cross-attention K/V ring.
	for r := 0; r < w; r++ {
		tm.decCross.Wk.ApplyRow(c.oeK.Row(r), in.Row(r))
		tm.decCross.Wv.ApplyRow(c.oeV.Row(r), in.Row(r))
	}

	// Decoder: ID = decProj(x) + TE once per row, into the ping-pong buffer
	// the encoder is done with, then the self-attention K/V rings from it.
	id := out
	for r := 0; r < omega; r++ {
		sc.decoderInput(tm, id.Row(r), short.Row(r), r)
		tm.decSelf.Wk.ApplyRow(c.selfK.Row(r), id.Row(r))
		tm.decSelf.Wv.ApplyRow(c.selfV.Row(r), id.Row(r))
	}

	// Decoder forward, every short-window row, straight into the stage-1
	// errors. The targets y are the short-window inputs themselves, so
	// e = short − ŷ1 cell for cell.
	for r := 0; r < omega; r++ {
		sc.decodeRow(tm, c, id.Row(r), r, omega == w)
		if v >= 0 {
			sc.e.Row(v)[r] = short.Row(r)[0] - sc.yRow[0]
		} else {
			srow := short.Row(r)
			for vv, yv := range sc.yRow {
				sc.e.Row(vv)[r] = srow[vv] - yv
			}
		}
	}
}

// encoderInput writes IE = encProj(x) + TE for input row x at logical
// long-window row r into dst.
func (sc *scratch) encoderInput(tm *temporalModule, dst, x []float64, r int) {
	tm.encProj.ApplyRow(dst, x)
	sr, cr := sc.te.sinL.Row(r), sc.te.cosL.Row(r)
	for j := range dst {
		dst[j] += sr[j] + cr[j]
	}
}

// decoderInput writes ID = decProj(x) + TE for input row x at logical
// short-window row r into dst.
func (sc *scratch) decoderInput(tm *temporalModule, dst, x []float64, r int) {
	tm.decProj.ApplyRow(dst, x)
	sr, cr := sc.te.sinS.Row(r), sc.te.cosS.Row(r)
	for j := range dst {
		dst[j] += sr[j] + cr[j]
	}
}

// encodeRow pushes input row x (window position r) through one encoder
// layer: banded self-attention over the layer's K/V rings, residual, layer
// norm, FFN, residual, layer norm — the kernel chain shared by the exact
// forward and the benign path's entering row.
func (sc *scratch) encodeRow(layer *encoderLayer, x []float64, kc, vc *tensor.Dense, r int, out []float64) {
	layer.attn.Wq.ApplyRow(sc.qRow, x)
	layer.attn.AttendRow(sc.ctxRow, sc.attnScores, sc.qRow, kc, vc, sc.headL, r, true)
	layer.attn.Wo.ApplyRow(sc.rowA, sc.ctxRow)
	for j := range sc.rowA {
		sc.rowA[j] += x[j]
	}
	layer.ln1.ApplyRow(sc.rowA, sc.rowA)
	layer.ffn.ApplyRow(sc.rowB, sc.hidden, sc.rowA)
	for j := range sc.rowB {
		sc.rowB[j] += sc.rowA[j]
	}
	layer.ln2.ApplyRow(out, sc.rowB)
}

// decodeRow runs the decoder for short-window row r from its input
// embedding id: masked self-attention over the selfK/selfV rings,
// cross-attention over the encoder-output rings, output FFN and sigmoid
// into sc.yRow. square is whether the cross-attention is square (ω == W),
// mirroring the tape's band-mask rule.
func (sc *scratch) decodeRow(tm *temporalModule, c *temporalCapture, id []float64, r int, square bool) {
	tm.decSelf.Wq.ApplyRow(sc.qRow, id)
	tm.decSelf.AttendRow(sc.ctxRow, sc.attnScores, sc.qRow, c.selfK, c.selfV, sc.headS, r, true)
	tm.decSelf.Wo.ApplyRow(sc.rowB, sc.ctxRow)
	for j := range sc.rowB {
		sc.rowB[j] += id[j]
	}
	tm.decLN1.ApplyRow(sc.rowB, sc.rowB)
	tm.decCross.Wq.ApplyRow(sc.qRow, sc.rowB)
	tm.decCross.AttendRow(sc.ctxRow, sc.attnScores, sc.qRow, c.oeK, c.oeV, sc.headL, r, square)
	tm.decCross.Wo.ApplyRow(sc.rowC, sc.ctxRow)
	for j := range sc.rowC {
		sc.rowC[j] += sc.rowB[j]
	}
	tm.decLN2.ApplyRow(sc.rowC, sc.rowC)
	tm.outFFN.ApplyRow(sc.yRow, sc.hidden, sc.rowC)
	for j, yv := range sc.yRow {
		sc.yRow[j] = 1 / (1 + math.Exp(-yv))
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
