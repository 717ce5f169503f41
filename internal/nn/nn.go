// Package nn provides the neural-network building blocks used by AERO and
// the deep baselines: linear layers, layer normalization, multi-head
// attention, feed-forward blocks, GRU cells, im2col convolutions, parameter
// initialization, gradient clipping and the Adam optimizer.
//
// Layers own their ag.Params and expose a Forward method that records onto
// a caller-supplied tape, so one set of weights can serve many concurrent
// forward passes.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"aero/internal/ag"
	"aero/internal/tensor"
)

// Module is anything owning trainable parameters.
type Module interface {
	Params() []*ag.Param
}

// CollectParams flattens the parameters of several modules.
func CollectParams(ms ...Module) []*ag.Param {
	var ps []*ag.Param
	for _, m := range ms {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// xavier returns a Xavier/Glorot-uniform initialised in×out matrix.
func xavier(in, out int, rng *rand.Rand) *tensor.Dense {
	limit := math.Sqrt(6 / float64(in+out))
	return tensor.Uniform(in, out, -limit, limit, rng)
}

// Linear is a fully connected layer y = x·W + b for row-major batches.
type Linear struct {
	W *ag.Param // in×out
	B *ag.Param // 1×out
}

// NewLinear returns a Xavier-initialised in→out linear layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		W: ag.NewParam(name+".W", xavier(in, out, rng)),
		B: ag.NewParam(name+".B", tensor.New(1, out)),
	}
}

// Forward applies the layer to x (rows are batch items).
func (l *Linear) Forward(t *ag.Tape, x *ag.Node) *ag.Node {
	return t.AddRow(t.MatMul(x, t.Param(l.W)), t.Param(l.B))
}

// Params implements Module.
func (l *Linear) Params() []*ag.Param { return []*ag.Param{l.W, l.B} }

// LayerNorm normalizes rows and applies a learnable affine transform.
type LayerNorm struct {
	Gain *ag.Param // 1×dim
	Bias *ag.Param // 1×dim
	Eps  float64
}

// NewLayerNorm returns a LayerNorm over vectors of width dim.
func NewLayerNorm(name string, dim int) *LayerNorm {
	g := tensor.New(1, dim)
	g.Fill(1)
	return &LayerNorm{
		Gain: ag.NewParam(name+".gain", g),
		Bias: ag.NewParam(name+".bias", tensor.New(1, dim)),
		Eps:  1e-5,
	}
}

// Forward normalizes each row of x.
func (l *LayerNorm) Forward(t *ag.Tape, x *ag.Node) *ag.Node {
	return t.LayerNormRows(x, t.Param(l.Gain), t.Param(l.Bias), l.Eps)
}

// Params implements Module.
func (l *LayerNorm) Params() []*ag.Param { return []*ag.Param{l.Gain, l.Bias} }

// MultiHeadAttention implements standard scaled dot-product attention with
// h heads over dm-dimensional token rows.
//
// Band, when > 0, restricts each query to keys within Band positions
// (banded/local attention) — an O(T·band) variant of the O(T²) full
// attention, implementing the "more scalable Transformer variants" the
// paper lists as future work. Band only applies to square (self-)attention
// shapes; cross-attention with different query/key lengths ignores it.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	Heads          int
	Dim            int
	Band           int

	masks sync.Map // length -> *tensor.Dense banded self-attention mask
}

// NewMultiHeadAttention returns an h-head attention block over width dm.
func NewMultiHeadAttention(name string, dm, heads int, rng *rand.Rand) *MultiHeadAttention {
	if dm%heads != 0 {
		panic(fmt.Sprintf("nn: model dim %d not divisible by %d heads", dm, heads))
	}
	return &MultiHeadAttention{
		Wq:    NewLinear(name+".q", dm, dm, rng),
		Wk:    NewLinear(name+".k", dm, dm, rng),
		Wv:    NewLinear(name+".v", dm, dm, rng),
		Wo:    NewLinear(name+".o", dm, dm, rng),
		Heads: heads,
		Dim:   dm,
	}
}

// Forward computes attention with separate query/key/value inputs
// (self-attention passes the same node three times). Rows are timesteps.
func (m *MultiHeadAttention) Forward(t *ag.Tape, query, key, value *ag.Node) *ag.Node {
	q := m.Wq.Forward(t, query)
	k := m.Wk.Forward(t, key)
	v := m.Wv.Forward(t, value)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	var headsBuf [8]*ag.Node // avoids a per-forward slice alloc for typical head counts
	var heads []*ag.Node
	if m.Heads <= len(headsBuf) {
		heads = headsBuf[:m.Heads]
	} else {
		heads = make([]*ag.Node, m.Heads)
	}
	mask := m.bandMask(query.Rows(), key.Rows())
	for h := 0; h < m.Heads; h++ {
		lo, hi := h*dk, (h+1)*dk
		qh := t.SliceCols(q, lo, hi)
		kh := t.SliceCols(k, lo, hi)
		vh := t.SliceCols(v, lo, hi)
		scores := t.Scale(t.MatMulT(qh, kh), scale)
		if mask != nil {
			scores = t.Add(scores, t.Const(mask))
		}
		probs := t.SoftmaxRows(scores)
		heads[h] = t.MatMul(probs, vh)
	}
	var cat *ag.Node
	if len(heads) == 1 {
		cat = heads[0]
	} else {
		cat = t.ConcatCols(heads...)
	}
	return m.Wo.Forward(t, cat)
}

// AttentionWeights runs the forward pass and additionally returns the
// per-head softmax attention maps (used by AnomalyTransformer).
func (m *MultiHeadAttention) AttentionWeights(t *ag.Tape, query, key, value *ag.Node) (*ag.Node, []*ag.Node) {
	q := m.Wq.Forward(t, query)
	k := m.Wk.Forward(t, key)
	v := m.Wv.Forward(t, value)
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	heads := make([]*ag.Node, m.Heads)
	attns := make([]*ag.Node, m.Heads)
	mask := m.bandMask(query.Rows(), key.Rows())
	for h := 0; h < m.Heads; h++ {
		lo, hi := h*dk, (h+1)*dk
		qh := t.SliceCols(q, lo, hi)
		kh := t.SliceCols(k, lo, hi)
		vh := t.SliceCols(v, lo, hi)
		scores := t.Scale(t.MatMulT(qh, kh), scale)
		if mask != nil {
			scores = t.Add(scores, t.Const(mask))
		}
		probs := t.SoftmaxRows(scores)
		attns[h] = probs
		heads[h] = t.MatMul(probs, vh)
	}
	var cat *ag.Node
	if len(heads) == 1 {
		cat = heads[0]
	} else {
		cat = t.ConcatCols(heads...)
	}
	return m.Wo.Forward(t, cat), attns
}

// bandMask returns the additive −∞-style mask for banded self-attention,
// or nil when the band is disabled or the shape is not square. Masks are
// immutable once built and cached per length (lock-free reads, so many
// detectors sharing one model do not contend), so repeated forward passes
// do not re-allocate them.
func (m *MultiHeadAttention) bandMask(qLen, kLen int) *tensor.Dense {
	if m.Band <= 0 || qLen != kLen {
		return nil
	}
	if cached, ok := m.masks.Load(qLen); ok {
		return cached.(*tensor.Dense)
	}
	mask := tensor.New(qLen, kLen)
	for i := 0; i < qLen; i++ {
		row := mask.Row(i)
		for j := 0; j < kLen; j++ {
			if j < i-m.Band || j > i+m.Band {
				row[j] = -1e9
			}
		}
	}
	cached, _ := m.masks.LoadOrStore(qLen, mask)
	return cached.(*tensor.Dense)
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*ag.Param {
	return CollectParams(m.Wq, m.Wk, m.Wv, m.Wo)
}

// FFN is the Transformer position-wise feed-forward block with a ReLU.
type FFN struct {
	L1, L2 *Linear
}

// NewFFN returns a dm→hidden→out feed-forward block.
func NewFFN(name string, dm, hidden, out int, rng *rand.Rand) *FFN {
	return &FFN{
		L1: NewLinear(name+".1", dm, hidden, rng),
		L2: NewLinear(name+".2", hidden, out, rng),
	}
}

// Forward applies L2(ReLU(L1(x))).
func (f *FFN) Forward(t *ag.Tape, x *ag.Node) *ag.Node {
	return f.L2.Forward(t, t.ReLU(f.L1.Forward(t, x)))
}

// ApplyRow applies the block to the single row x into dst, using hidden
// (at least the L1 output width) as scratch; mirrors Forward row for row.
// The forward runs ApplyRows; this row form stays as the reference
// TestApplyRowsMatchesApplyRow holds each batch row to.
func (f *FFN) ApplyRow(dst, hidden, x []float64) {
	f.L1.applyRow(hidden, x, true)
	f.L2.applyRow(dst, hidden[:f.L1.W.Value.Cols], false)
}

// Params implements Module.
func (f *FFN) Params() []*ag.Param { return CollectParams(f.L1, f.L2) }

// GRUCell is a standard gated recurrent unit operating on 1×dim rows
// (or batched B×dim rows).
type GRUCell struct {
	Wz, Uz, Wr, Ur, Wh, Uh *ag.Param
	Bz, Br, Bh             *ag.Param
	In, Hidden             int
}

// NewGRUCell returns a GRU cell with the given input and hidden sizes.
func NewGRUCell(name string, in, hidden int, rng *rand.Rand) *GRUCell {
	p := func(suffix string, r, c int) *ag.Param {
		return ag.NewParam(name+suffix, xavier(r, c, rng))
	}
	b := func(suffix string, c int) *ag.Param {
		return ag.NewParam(name+suffix, tensor.New(1, c))
	}
	return &GRUCell{
		Wz: p(".Wz", in, hidden), Uz: p(".Uz", hidden, hidden), Bz: b(".bz", hidden),
		Wr: p(".Wr", in, hidden), Ur: p(".Ur", hidden, hidden), Br: b(".br", hidden),
		Wh: p(".Wh", in, hidden), Uh: p(".Uh", hidden, hidden), Bh: b(".bh", hidden),
		In: in, Hidden: hidden,
	}
}

// Step advances the cell: given input x (B×in) and state h (B×hidden),
// it returns the next state.
func (g *GRUCell) Step(t *ag.Tape, x, h *ag.Node) *ag.Node {
	z := t.Sigmoid(t.AddRow(t.Add(t.MatMul(x, t.Param(g.Wz)), t.MatMul(h, t.Param(g.Uz))), t.Param(g.Bz)))
	r := t.Sigmoid(t.AddRow(t.Add(t.MatMul(x, t.Param(g.Wr)), t.MatMul(h, t.Param(g.Ur))), t.Param(g.Br)))
	hr := t.Mul(r, h)
	hc := t.Tanh(t.AddRow(t.Add(t.MatMul(x, t.Param(g.Wh)), t.MatMul(hr, t.Param(g.Uh))), t.Param(g.Bh)))
	// h' = (1-z)·h + z·hc  ==  h + z·(hc - h)
	return t.Add(h, t.Mul(z, t.Sub(hc, h)))
}

// InitState returns a zero state for a batch of size b.
func (g *GRUCell) InitState(t *ag.Tape, b int) *ag.Node {
	return t.Const(tensor.New(b, g.Hidden))
}

// Params implements Module.
func (g *GRUCell) Params() []*ag.Param {
	return []*ag.Param{g.Wz, g.Uz, g.Bz, g.Wr, g.Ur, g.Br, g.Wh, g.Uh, g.Bh}
}
