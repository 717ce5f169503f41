package core

import (
	"math"
	"sync"

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

// scratch is the work space of one inference forward call: every buffer
// scoring one window overwrites before it reads, besides the weights and
// the stage-1 state the call is handed. A scratch carries nothing from one
// call to the next, so it is not owned by a detector: callers borrow one
// from the model's free list (borrowScratch) and give it back when the call
// returns (returnScratch). It must not be shared across goroutines while
// borrowed; tensors returned by scratch-threaded methods are owned by the
// scratch and remain valid only until it is given back.
type scratch struct {
	wt   windowTimes // posL/dtL/posS/dtS of the window in flight
	prep prepared    // a detector's window, linearized and normalized
	// W×inDim and ω×inDim inputs of the stage-1 pass in flight. The benign
	// path writes its entering input row into long's last row.
	long, short *tensor.Dense

	final *tensor.Dense // N×ω final scores; an exact stage-1 pass's ω×inDim output before them
	adj   *tensor.Dense // N×N window-wise graph
	h     *tensor.Dense // N×ω propagated error features

	// The time embedding of the window in flight. An exact pass writes every
	// row; the benign path writes the entering row W−1, the one row it reads.
	te timeEmbedCache

	// act holds the rows in flight, d_m wide (W of them at most): a layer's
	// input, overwritten in place by each residual and layer norm. spare is
	// the scratch of one step at a time: a batch of keys on their way into a
	// key-major ring, the queries and then the attention contexts, or as many
	// FFN hidden rows as fit.
	act, spare []float64
	attnScores []float64
	yRow       []float64 // the benign path's decoder output row (sigmoid applied)

	// own is the one-capture stage-1 state of callers that keep none between
	// calls (batch scoring, graph snapshots, training), sized on first use.
	own *stage1State
}

// stage1State is what a stage-1 pass leaves behind: the N×ω error matrix
// and the activation rings. A batch caller reads them once (the scratch's
// own state, with one capture that every variate's pass overwrites); a
// streaming detector keeps one state, with one capture per variate, because
// its benign path advances them between exact passes. headL/headS are the
// ring heads of the captures' W-slot and ω-slot rings — the physical slot
// holding logical position 0. All captures slide in lockstep, so one pair
// serves them all; stage1Errors resets both to 0.
type stage1State struct {
	e            *tensor.Dense // N×ω stage-1 errors
	caps         []*temporalCapture
	headL, headS int
}

// newStage1State sizes a stage-1 state for the model's window geometry with
// caps stage-1 captures: 1 for a caller that only wants a window's errors,
// one per variate for a caller that keeps the activations (multivariate
// input has a single stage-1 pass, so one either way).
func (m *Model) newStage1State(caps int) *stage1State {
	st := &stage1State{e: tensor.New(m.n, m.cfg.ShortWindow)}
	if !m.cfg.usesTemporal() {
		return st
	}
	if m.cfg.multivariateInput() {
		caps = 1
	}
	for i := 0; i < caps; i++ {
		st.caps = append(st.caps, m.temporal.newTemporalCapture(m.cfg.LongWindow, m.cfg.ShortWindow))
	}
	return st
}

// newScratch sizes a scratch for the model's window geometry.
func (m *Model) newScratch() *scratch {
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	sc := &scratch{
		wt:    newWindowTimes(w, omega),
		prep:  prepared{data: make([][]float64, m.n), time: make([]float64, w)},
		final: tensor.New(m.n, omega),
		adj:   tensor.New(m.n, m.n),
		h:     tensor.New(m.n, omega),
	}
	for v := range sc.prep.data {
		sc.prep.data[v] = make([]float64, w)
	}
	if !m.cfg.usesTemporal() {
		return sc
	}
	tm := m.temporal
	dm := tm.te.dm
	sc.long, sc.short = tensor.New(w, tm.inDim), tensor.New(omega, tm.inDim)
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

// scratches is a model's free list of work scratches. It holds as many as
// were ever borrowed at once — the number of goroutines that scored on the
// model together, not the number of detectors serving it — and never drops
// one: a list the collector could empty would allocate on the hot path
// after every collection.
type scratches struct {
	mu   sync.Mutex
	free []*scratch
}

// borrowScratch takes a scratch off the model's free list, sizing a new one
// when every scratch is out. Give it back with returnScratch once the
// call's results are consumed.
func (m *Model) borrowScratch() *scratch {
	l := &m.scratches
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return sc
	}
	l.mu.Unlock()
	return m.newScratch()
}

// returnScratch puts a borrowed scratch back on the model's free list.
func (m *Model) returnScratch(sc *scratch) {
	l := &m.scratches
	l.mu.Lock()
	l.free = append(l.free, sc)
	l.mu.Unlock()
}

// ownState returns the scratch's own one-capture stage-1 state, sizing it
// on first use.
func (m *Model) ownState(sc *scratch) *stage1State {
	if sc.own == nil {
		sc.own = m.newStage1State(1)
	}
	return sc.own
}

// windowScores computes the final per-point anomaly scores
// |Y − Ŷ1 − Ŷ2| for one window (N×ω), plus the intermediate stage-1
// errors, in the scratch's own stage-1 state. dyn is the evolving-graph
// state for the dynamic ablation. The returned tensors are owned by the
// scratch.
func (m *Model) windowScores(p *prepared, end int, dyn *dynamicGraphState, sc *scratch) (final, e1 *tensor.Dense) {
	e := m.stage1Errors(p, end, m.times(p, end, &sc.wt), m.ownState(sc), sc)
	return m.noiseScores(e, dyn, sc), e
}

// stage1Errors runs stage 1 over the window ending at end and returns
// E = Y − Ŷ1 (N×ω, in st.e) — the quantity scoring, stage-2 training and
// the graph snapshots are built on. As a side effect it rewrites the
// scratch's time embedding and every activation ring of st at head 0.
func (m *Model) stage1Errors(p *prepared, end int, wt windowTimes, st *stage1State, sc *scratch) *tensor.Dense {
	if !m.cfg.usesTemporal() {
		// VariantNoTemporal: Ŷ1 ≡ 0, so the error is the target itself.
		for v := 0; v < m.n; v++ {
			copy(st.e.Row(v), window.Slice(p.data[v], end, m.cfg.ShortWindow))
		}
		return st.e
	}
	// The short window's embedding is the long window's suffix (times()
	// copies posS/dtS from posL/dtL), so sinS/cosS fill with it.
	m.temporal.te.sinCos(sc.te.sinL, sc.te.cosL, wt.posL, wt.dtL)
	st.headL, st.headS = 0, 0
	if m.cfg.multivariateInput() {
		m.longShort(p, 0, end, sc.long, sc.short)
		sc.stage1Rows(m.temporal, st, st.caps[0], -1)
		return st.e
	}
	for v := 0; v < m.n; v++ {
		m.longShort(p, v, end, sc.long, sc.short)
		sc.stage1Rows(m.temporal, st, st.caps[v%len(st.caps)], v)
	}
	return st.e
}

// stage1Rows runs one exact stage-1 forward over sc.long/sc.short, writing
// every ring of capture c at head 0 and the stage-1 errors e = y − ŷ1 into
// st.e. v is the variate owning the error row (−1 in multivariate mode,
// where one pass reconstructs every variate and the ω×N output lands
// transposed). Bit-identity with temporalModule.forward holds because the
// row kernels are pinned rowwise-identical to the tape ops, sinCos is the
// tape's time embedding cell for cell, and residual adds commute.
func (sc *scratch) stage1Rows(tm *temporalModule, st *stage1State, c *temporalCapture, v int) {
	short := sc.short
	omega := short.Rows
	sc.encode(tm, c, 0, sc.long.Data, sc.long.Rows, 0)
	// The ω×inDim reconstruction borrows the final-score matrix (N×ω cells,
	// at least as many), which stage 2 rewrites afterwards.
	y := sc.final.Data[:omega*tm.inDim]
	sc.decode(tm, c, 0, 0, short.Data, omega, 0, y)
	// The targets are the short-window inputs themselves, so e = short − ŷ1
	// cell for cell.
	if v >= 0 {
		erow := st.e.Row(v)
		for r, yv := range y {
			erow[r] = short.Data[r] - yv
		}
		return
	}
	for r := 0; r < omega; r++ {
		srow, yrow := short.Row(r), y[r*tm.inDim:(r+1)*tm.inDim]
		for vv, yv := range yrow {
			st.e.Row(vv)[r] = srow[vv] - yv
		}
	}
}

// encode runs the encoder over the n input rows in (inDim wide each) at
// logical long-window positions r0, r0+1, …: IE = encProj(x) + TE, then the
// layer stack, every step over all the rows before the next. Each layer's
// K/V of those rows and the decoder's cross-attention K/V of the encoder
// output go into c's rings, whose head is headL, at the rows' positions.
// The encoder output is left in sc.act.
func (sc *scratch) encode(tm *temporalModule, c *temporalCapture, headL int, in []float64, n, r0 int) {
	x := sc.act[:n*tm.te.dm]
	sc.embed(tm.encProj, x, in, n, sc.te.sinL, sc.te.cosL, r0)
	for li, layer := range tm.enc {
		ring := c.enc[li]
		sc.projectKV(layer.attn, ring.k, ring.v, headL, x, n, r0)
		sc.attend(layer.attn, ring.k, ring.v, headL, x, n, r0, true)
		layer.ln1.ApplyRows(x, x, n)
		layer.ffn.ApplyRows(x, sc.spare, x, n, true)
		layer.ln2.ApplyRows(x, x, n)
	}
	sc.projectKV(tm.decCross, c.oeK, c.oeV, headL, x, n, r0)
}

// decode runs the decoder for the n input rows in at logical short-window
// positions r0, r0+1, …: ID = decProj(x) + TE, masked self-attention (its
// K/V written into c's self rings, head headS, first), cross-attention over
// the encoder output rings (head headL), the output FFN and the sigmoid
// into y (inDim wide per row). The cross-attention is banded only when it
// is square (ω == W), mirroring the tape's band-mask rule.
func (sc *scratch) decode(tm *temporalModule, c *temporalCapture, headL, headS int, in []float64, n, r0 int, y []float64) {
	x := sc.act[:n*tm.te.dm]
	sc.embed(tm.decProj, x, in, n, sc.te.sinS, sc.te.cosS, r0)
	sc.projectKV(tm.decSelf, c.selfK, c.selfV, headS, x, n, r0)
	sc.attend(tm.decSelf, c.selfK, c.selfV, headS, x, n, r0, true)
	tm.decLN1.ApplyRows(x, x, n)
	sc.attend(tm.decCross, c.oeK, c.oeV, headL, x, n, r0, c.selfK.Cols == c.oeK.Cols)
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
