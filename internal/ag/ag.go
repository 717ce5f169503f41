// Package ag implements reverse-mode automatic differentiation over dense
// matrices (a "tape" or Wengert list).
//
// A Tape records every operation applied to Nodes as a typed op record;
// Backward replays the records in reverse, accumulating gradients, and then
// adds the parameter leaves' gradients into their Params. Parameters (Param)
// live outside any tape so that the same weights can be used across many
// forward passes and across goroutines, but no lock guards their gradients:
// running Backward concurrently on tapes that share parameters is a data
// race. Data-parallel training runs BackwardGrads on each tape concurrently
// and then applies the parameter gradients from a single goroutine in a
// fixed tape order — FlushParamGrads straight from the tape, or a GradStash
// copied from it so the tape can be reused first. The float additions then
// happen in one sequence whatever the scheduler does, so training is
// bit-reproducible per seed.
//
// A tape is a gradient tape: node values and gradients are drawn from
// positional tensor.Arenas, so after Reset a same-shape forward/backward
// step reuses every buffer and training is allocation-free in steady state.
// Inference does not go through a tape at all — AERO scores with the row
// forms in internal/nn, and the tape is their reference in tests. Both run
// their multiply-adds and softmax on internal/tensor's row kernels.
//
// The operator set is the minimum needed for the models in this repository:
// Transformer encoder–decoders, GRUs, VAEs, graph convolutions and
// inception-style convolutions. Every operator's gradient is validated
// against central finite differences in the package tests.
package ag

import (
	"fmt"
	"math"

	"aero/internal/tensor"
)

// Param is a trainable parameter: a value matrix plus an accumulated
// gradient. Params are shared between tapes, but nothing guards Grad: only
// one goroutine at a time may apply gradients to a parameter set, which the
// tape does through FlushParamGrads or a GradStash.
type Param struct {
	Name  string
	Value *tensor.Dense
	Grad  *tensor.Dense
}

// NewParam creates a named parameter wrapping value.
func NewParam(name string, value *tensor.Dense) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// opKind identifies the operation that produced a node. Backward replays
// these records in reverse instead of invoking per-node closures, which
// keeps the tape free of heap-allocated captures and lets node gradients
// live in a positional arena.
type opKind uint8

const (
	opLeaf opKind = iota // Const/Param: no backward step
	opAdd
	opSub
	opMul
	opAddRow
	opScale
	opAddConst
	opMatMul
	opMatMulT
	opSliceCols
	opConcatCols
	opSigmoid
	opTanh
	opReLU
	opExp
	opLog
	opSqrt
	opSquare
	opSin
	opCos
	opAbs
	opSoftmaxRows
	opLayerNorm
	opSumAll
	opRowSums
	opTimeEmbed
)

// Node is one value in the computation graph. Value is set at construction;
// Grad is populated during Backward. The remaining fields are the op record
// replayed by Backward: the operands (a, b, c), saved forward intermediates
// (aux, aux2), a scalar operand s, and integer operands i0/i1 (slice bounds
// or an index range into the tape's parents list for concat ops).
type Node struct {
	Value *tensor.Dense
	Grad  *tensor.Dense

	a, b, c   *Node
	aux, aux2 *tensor.Dense
	param     *Param // non-nil when the node is a parameter leaf
	s         float64
	i0, i1    int
	op        opKind
}

// Rows returns the row count of the node's value.
func (n *Node) Rows() int { return n.Value.Rows }

// Cols returns the column count of the node's value.
func (n *Node) Cols() int { return n.Value.Cols }

// nodeChunk is the granularity of the tape's node arena. Chunked storage
// keeps node pointers stable across appends while amortising allocation.
const nodeChunk = 128

// Tape records operations for reverse-mode differentiation. A Tape is not
// safe for concurrent use; build one tape per goroutine.
type Tape struct {
	nodes   []*Node
	chunks  [][]Node
	nused   int
	parents []*Node // backing storage for concat-op operand lists

	arena *tensor.Arena // operation output values
	grads *tensor.Arena // node gradients
}

// NewTape returns an empty tape. Node values and gradients are drawn from
// positional arenas: after Reset, re-running a forward/backward pass of the
// same shape reuses every buffer, so steady-state training steps allocate
// nothing. Values and gradients produced before a Reset are invalidated by
// the next pass.
func NewTape() *Tape {
	return &Tape{arena: tensor.NewArena(), grads: tensor.NewArena()}
}

// alloc returns the arena-backed, zeroed output buffer for an operation that
// accumulates into its output or leaves cells untouched.
func (t *Tape) alloc(r, c int) *tensor.Dense {
	return t.arena.Get(r, c)
}

// out returns an operation's output buffer without clearing it: for the
// operations that write every cell before anything reads one.
func (t *Tape) out(r, c int) *tensor.Dense {
	return t.arena.Take(r, c)
}

// gradOf returns the node's gradient buffer, drawing it from the gradient
// arena on first touch. Backward visits nodes in a fixed reverse order, so
// the draw order — and therefore the positional reuse after Reset — is
// deterministic for a fixed graph shape.
func (t *Tape) gradOf(n *Node) *tensor.Dense {
	if n.Grad == nil {
		n.Grad = t.grads.Get(n.Value.Rows, n.Value.Cols)
	}
	return n.Grad
}

// newNode takes a node struct from the chunked arena.
func (t *Tape) newNode() *Node {
	if t.nused == len(t.chunks)*nodeChunk {
		t.chunks = append(t.chunks, make([]Node, nodeChunk))
	}
	n := &t.chunks[t.nused/nodeChunk][t.nused%nodeChunk]
	t.nused++
	*n = Node{}
	return n
}

// node registers a freshly computed value; the caller attaches the op
// record.
func (t *Tape) node(v *tensor.Dense) *Node {
	n := t.newNode()
	n.Value = v
	t.nodes = append(t.nodes, n)
	return n
}

// record attaches the op record to a node. It returns the node for
// chaining.
func (t *Tape) record(n *Node, op opKind, a, b *Node) *Node {
	n.op = op
	n.a, n.b = a, b
	return n
}

// Const introduces a leaf whose gradient is tracked but not propagated
// anywhere (inputs, stop-gradient values).
func (t *Tape) Const(v *tensor.Dense) *Node {
	return t.node(v)
}

// Param introduces a parameter leaf. After Backward, the leaf's gradient is
// accumulated into p.Grad.
func (t *Tape) Param(p *Param) *Node {
	n := t.node(p.Value)
	n.param = p
	return n
}

// Backward seeds loss (which must be 1×1) with gradient 1, propagates
// gradients through the tape in reverse order, and then adds each parameter
// leaf's gradient into its Param: BackwardGrads followed by FlushParamGrads.
// It writes the Params unguarded, so running it on tapes that share
// parameters from more than one goroutine is a data race; run BackwardGrads
// concurrently instead and flush the tapes in a fixed order afterwards.
func (t *Tape) Backward(loss *Node) {
	t.BackwardGrads(loss)
	t.FlushParamGrads()
}

// BackwardGrads computes every node's gradient but does NOT touch any Param:
// pair it with FlushParamGrads (or StashParamGrads and GradStash.Flush) to
// apply parameter-gradient accumulation from a single goroutine in a
// caller-chosen tape order, which makes data-parallel training deterministic
// (float accumulation order is fixed) while the backward passes themselves
// run concurrently.
func (t *Tape) BackwardGrads(loss *Node) {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("ag: Backward expects scalar loss, got %dx%d", loss.Value.Rows, loss.Value.Cols))
	}
	t.gradOf(loss).Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if n := t.nodes[i]; n.Grad != nil { // nil: not on any path to the loss
			t.step(n)
		}
	}
}

// FlushParamGrads adds every parameter leaf's gradient into its Param, in
// reverse tape order. Call it after BackwardGrads, from one goroutine at a
// time per parameter set.
func (t *Tape) FlushParamGrads() {
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.param != nil && n.Grad != nil {
			n.param.Grad.AddInPlace(n.Grad)
		}
	}
}

// GradStash is a copy of one tape's parameter-node gradients, held so the
// tape can be reset and reused before they are applied. The zero value is
// empty; a stash refilled with same-shape gradients reuses its storage.
type GradStash struct {
	params []*Param
	data   []float64 // the gradients end to end, in params order
}

// StashParamGrads copies, in reverse tape order, every parameter node's
// gradient into s, replacing what s held: the sequence FlushParamGrads would
// apply now. Call it after BackwardGrads.
func (t *Tape) StashParamGrads(s *GradStash) {
	s.params, s.data = s.params[:0], s.data[:0]
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.param != nil && n.Grad != nil {
			s.params = append(s.params, n.param)
			s.data = append(s.data, n.Grad.Data...)
		}
	}
}

// Flush applies the stashed gradients to their parameters in stash order,
// without locking — the additions FlushParamGrads would have made on the
// tape the stash was copied from.
func (s *GradStash) Flush() {
	at := 0
	for _, p := range s.params {
		dst := p.Grad.Data
		addTo(dst, s.data[at:at+len(dst)])
		at += len(dst)
	}
}

// addTo adds src into the equally long dst cell by cell.
func addTo(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// step replays one op record, propagating n.Grad into its parents' Grads.
// Each case reproduces the float operation order of the original backward
// closures exactly, so gradients are bit-identical to the closure-based
// implementation this replaced.
func (t *Tape) step(n *Node) {
	G := n.Grad
	switch n.op {
	case opLeaf:
		// Leaves have no parents; FlushParamGrads applies parameter
		// gradients.
	case opAdd:
		addTo(t.gradOf(n.a).Data, G.Data)
		addTo(t.gradOf(n.b).Data, G.Data)
	case opSub:
		addTo(t.gradOf(n.a).Data, G.Data)
		t.gradOf(n.b).AddScaled(-1, G)
	case opMul:
		ga, gb := t.gradOf(n.a).Data, t.gradOf(n.b).Data
		g := G.Data[:len(ga)]
		av, bv := n.a.Value.Data[:len(ga)], n.b.Value.Data[:len(ga)]
		gb = gb[:len(ga)]
		for i, gi := range g {
			ga[i] += gi * bv[i]
			gb[i] += gi * av[i]
		}
	case opAddRow:
		ga := t.gradOf(n.a)
		gv := t.gradOf(n.b).Data
		for i := 0; i < G.Rows; i++ {
			row := G.Row(i)
			addTo(ga.Row(i), row)
			addTo(gv, row)
		}
	case opScale:
		t.gradOf(n.a).AddScaled(n.s, G)
	case opAddConst:
		addTo(t.gradOf(n.a).Data, G.Data)
	case opMatMul:
		// dA += dC·Bᵀ ; dB += Aᵀ·dC
		G.MatMulTAddInto(n.b.Value, t.gradOf(n.a))
		n.a.Value.TMatMulAddInto(G, t.gradOf(n.b))
	case opMatMulT:
		// C = A·Bᵀ: dA += dC·B ; dB += dCᵀ·A
		G.MatMulAddInto(n.b.Value, t.gradOf(n.a))
		G.TMatMulAddInto(n.a.Value, t.gradOf(n.b))
	case opSliceCols:
		ga := t.gradOf(n.a)
		lo := n.i0
		for i := 0; i < G.Rows; i++ {
			addTo(ga.Row(i)[lo:lo+G.Cols], G.Row(i))
		}
	case opConcatCols:
		at := 0
		for _, p := range t.parents[n.i0 : n.i0+n.i1] {
			g := t.gradOf(p)
			for i := 0; i < g.Rows; i++ {
				addTo(g.Row(i), G.Row(i)[at:at+g.Cols])
			}
			at += p.Value.Cols
		}
	case opSoftmaxRows:
		ga := t.gradOf(n.a)
		v := n.Value
		for i := 0; i < v.Rows; i++ {
			y := v.Row(i)
			gy := G.Row(i)[:len(y)]
			var dot float64
			for j, yj := range y {
				dot += yj * gy[j]
			}
			dst := ga.Row(i)[:len(y)]
			for j, yj := range y {
				dst[j] += yj * (gy[j] - dot)
			}
		}
	case opLayerNorm:
		t.layerNormBackward(n)
	case opSumAll:
		g := G.Data[0]
		ga := t.gradOf(n.a)
		for i := range ga.Data {
			ga.Data[i] += g
		}
	case opRowSums:
		ga := t.gradOf(n.a)
		for i := 0; i < ga.Rows; i++ {
			g := G.Data[i]
			dst := ga.Row(i)
			for j := range dst {
				dst[j] += g
			}
		}
	case opTimeEmbed:
		t.timeEmbedBackward(n)
	default:
		t.unaryBackward(n)
	}
}

// unaryBackward handles the elementwise nonlinearities: ga[i] += g·f'(x, y)
// with the derivative expressed from the input x and/or output y. Each op
// has its own loop; the derivative and the single multiply-add per cell are
// the ones the per-cell switch this replaced computed.
func (t *Tape) unaryBackward(n *Node) {
	g := n.Grad.Data
	ga := t.gradOf(n.a).Data[:len(g)]
	xs := n.a.Value.Data[:len(g)]
	ys := n.Value.Data[:len(g)]
	switch n.op {
	case opSigmoid:
		for i, gi := range g {
			y := ys[i]
			ga[i] += gi * (y * (1 - y))
		}
	case opTanh:
		for i, gi := range g {
			y := ys[i]
			ga[i] += gi * (1 - y*y)
		}
	case opReLU:
		for i, gi := range g {
			var d float64
			if xs[i] > 0 {
				d = 1
			}
			ga[i] += gi * d
		}
	case opExp:
		for i, gi := range g {
			ga[i] += gi * ys[i]
		}
	case opLog:
		for i, gi := range g {
			ga[i] += gi * (1 / xs[i])
		}
	case opSqrt:
		for i, gi := range g {
			ga[i] += gi * (0.5 / ys[i])
		}
	case opSquare:
		for i, gi := range g {
			ga[i] += gi * (2 * xs[i])
		}
	case opSin:
		for i, gi := range g {
			ga[i] += gi * math.Cos(xs[i])
		}
	case opCos:
		for i, gi := range g {
			ga[i] += gi * -math.Sin(xs[i])
		}
	case opAbs:
		for i, gi := range g {
			var d float64
			switch x := xs[i]; {
			case x > 0:
				d = 1
			case x < 0:
				d = -1
			}
			ga[i] += gi * d
		}
	default:
		panic(fmt.Sprintf("ag: unknown op %d in backward", n.op))
	}
}

// layerNormBackward replays LayerNormRows: n.a is the input, n.b the gain,
// n.c the bias; aux holds x̂ and aux2 the per-row inverse std.
func (t *Tape) layerNormBackward(n *Node) {
	ga, gg, gb := t.gradOf(n.a), t.gradOf(n.b).Data, t.gradOf(n.c).Data
	xhat, invStd := n.aux, n.aux2
	cols := xhat.Cols
	gain := n.b.Value.Data[:cols]
	gg, gb = gg[:cols], gb[:cols]
	// One scratch row reused across rows, every cell written before it is
	// read; drawn from the gradient arena so steady-state backward passes
	// stay allocation-free.
	dxh := t.grads.Take(1, cols).Data
	for i := 0; i < xhat.Rows; i++ {
		gy := n.Grad.Row(i)[:cols]
		xh := xhat.Row(i)[:cols]
		// gain/bias grads
		for j, g := range gy {
			gg[j] += g * xh[j]
			gb[j] += g
		}
		// input grad: dx = invStd*(dxh - mean(dxh) - xh*mean(dxh*xh))
		var m1, m2 float64
		for j, g := range gy {
			dxh[j] = g * gain[j]
			m1 += dxh[j]
			m2 += dxh[j] * xh[j]
		}
		m1 /= float64(cols)
		m2 /= float64(cols)
		is := invStd.Data[i]
		dst := ga.Row(i)[:cols]
		for j, d := range dxh {
			dst[j] += is * (d - m1 - xh[j]*m2)
		}
	}
}

// timeEmbedBackward replays, cell for cell, the chain TimeEmbed stands for:
// TE = Add(Sin(θ), Cos(θ)) over θ = Add(phase, MatMul(dt, α)). θ's gradient
// is Cos's step into a zeroed buffer, then Sin's: (0 + g·(−sin θ)) + g·cos θ,
// with the stored sin θ and cos θ standing in for the math.Sin and math.Cos
// the chain's backward re-evaluated at the same θ. The chain's other steps
// copied G into Sin's and Cos's zeroed gradients and θ's gradient into the
// product's, additions to +0 that change no bits here: the only −0 they can
// meet is in G, and the first step's addition to +0 absorbs it either way.
// The product's gradient then reaches α through the same TMatMulAddInto the
// chain's MatMul step ran: gα += dtᵀ·gθ.
func (t *Tape) timeEmbedBackward(n *Node) {
	g := n.Grad.Data
	sin, cos := n.aux.Data[:len(g)], n.aux2.Data[:len(g)]
	gth := t.grads.Take(n.Grad.Rows, n.Grad.Cols)
	dst := gth.Data[:len(g)]
	for i, gi := range g {
		dst[i] = 0 + gi*-sin[i] + gi*cos[i]
	}
	n.b.Value.TMatMulAddInto(gth, t.gradOf(n.a))
}

// Reset drops all recorded nodes so the tape can be reused, keeping the
// node chunks and every operation (and gradient) buffer for the next pass.
func (t *Tape) Reset() {
	t.nodes = t.nodes[:0]
	t.parents = t.parents[:0]
	t.nused = 0
	t.arena.Reset()
	t.grads.Reset()
}

// Len reports the number of operations recorded (useful in tests).
func (t *Tape) Len() int { return t.nused }

// --- elementwise binary ops -------------------------------------------------

// assertSameShape panics on elementwise operand shape mismatch, preserving
// the diagnostic the tensor-level kernels used to provide.
func assertSameShape(a, b *Node) {
	if a.Value.Rows != b.Value.Rows || a.Value.Cols != b.Value.Cols {
		panic(fmt.Sprintf("ag: shape mismatch %dx%d vs %dx%d",
			a.Value.Rows, a.Value.Cols, b.Value.Rows, b.Value.Cols))
	}
}

// binary draws the output of an elementwise op on equally shaped a and b,
// returning it with the three cell slices at one length.
func (t *Tape) binary(a, b *Node) (v *tensor.Dense, x, y, z []float64) {
	assertSameShape(a, b)
	v = t.out(a.Value.Rows, a.Value.Cols)
	z = v.Data
	return v, a.Value.Data[:len(z)], b.Value.Data[:len(z)], z
}

// Add returns a + b.
func (t *Tape) Add(a, b *Node) *Node {
	v, x, y, z := t.binary(a, b)
	for i := range z {
		z[i] = x[i] + y[i]
	}
	return t.record(t.node(v), opAdd, a, b)
}

// Sub returns a − b.
func (t *Tape) Sub(a, b *Node) *Node {
	v, x, y, z := t.binary(a, b)
	for i := range z {
		z[i] = x[i] - y[i]
	}
	return t.record(t.node(v), opSub, a, b)
}

// Mul returns the Hadamard product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	v, x, y, z := t.binary(a, b)
	for i := range z {
		z[i] = x[i] * y[i]
	}
	return t.record(t.node(v), opMul, a, b)
}

// AddRow broadcasts the 1×C row vector v across the rows of a.
func (t *Tape) AddRow(a, v *Node) *Node {
	if v.Value.Rows != 1 || v.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("ag: AddRow wants 1x%d, got %dx%d", a.Value.Cols, v.Value.Rows, v.Value.Cols))
	}
	out := t.out(a.Value.Rows, a.Value.Cols)
	vec := v.Value.Data
	for i := 0; i < a.Value.Rows; i++ {
		dst := out.Row(i)
		src, vec := a.Value.Row(i)[:len(dst)], vec[:len(dst)]
		for j, x := range src {
			dst[j] = x + vec[j]
		}
	}
	return t.record(t.node(out), opAddRow, a, v)
}

// --- scalar ops --------------------------------------------------------------

// Scale returns s·a for a constant s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = s * xi
	}
	n := t.record(t.node(v), opScale, a, nil)
	n.s = s
	return n
}

// AddConst returns a + c for a constant c.
func (t *Tape) AddConst(a *Node, c float64) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = xi + c
	}
	return t.record(t.node(v), opAddConst, a, nil)
}

// Neg returns −a.
func (t *Tape) Neg(a *Node) *Node { return t.Scale(a, -1) }

// --- matrix ops --------------------------------------------------------------

// MatMul returns a · b.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := t.alloc(a.Value.Rows, b.Value.Cols)
	a.Value.MatMulInto(b.Value, v)
	return t.record(t.node(v), opMatMul, a, b)
}

// MatMulT returns a · bᵀ.
func (t *Tape) MatMulT(a, b *Node) *Node {
	v := t.out(a.Value.Rows, b.Value.Rows)
	a.Value.MatMulTInto(b.Value, v)
	return t.record(t.node(v), opMatMulT, a, b)
}

// SliceCols returns columns [lo, hi) of a.
func (t *Tape) SliceCols(a *Node, lo, hi int) *Node {
	av := a.Value
	v := t.out(av.Rows, hi-lo)
	for i := 0; i < av.Rows; i++ {
		copy(v.Row(i), av.Row(i)[lo:hi])
	}
	n := t.record(t.node(v), opSliceCols, a, nil)
	n.i0 = lo
	return n
}

// recordParents stashes a variadic operand list in the tape-owned parents
// slice (reused across Resets) and stores its range on the node.
func (t *Tape) recordParents(n *Node, op opKind, parts []*Node) *Node {
	n.op = op
	n.i0 = len(t.parents)
	n.i1 = len(parts)
	t.parents = append(t.parents, parts...)
	return n
}

// ConcatCols concatenates nodes horizontally.
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	rows := parts[0].Value.Rows
	cols := 0
	for _, p := range parts {
		if p.Value.Rows != rows {
			panic("ag: concat cols row mismatch")
		}
		cols += p.Value.Cols
	}
	v := t.out(rows, cols)
	for i := 0; i < rows; i++ {
		dst := v.Row(i)
		at := 0
		for _, p := range parts {
			copy(dst[at:], p.Value.Row(i))
			at += p.Value.Cols
		}
	}
	return t.recordParents(t.node(v), opConcatCols, parts)
}

// --- elementwise nonlinearities ----------------------------------------------

// unary draws the output of an elementwise op on a, returning it with the
// input and output cells as slices of one length. Each op writes every cell
// in its own typed loop.
func (t *Tape) unary(a *Node) (v *tensor.Dense, x, y []float64) {
	v = t.out(a.Value.Rows, a.Value.Cols)
	y = v.Data
	return v, a.Value.Data[:len(y)], y
}

// Sigmoid returns 1/(1+e^{-a}) elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = 1 / (1 + math.Exp(-xi))
	}
	return t.record(t.node(v), opSigmoid, a, nil)
}

// Tanh returns tanh(a) elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = math.Tanh(xi)
	}
	return t.record(t.node(v), opTanh, a, nil)
}

// ReLU returns max(a, 0) elementwise (+0 for a NaN).
func (t *Tape) ReLU(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		if xi > 0 {
			y[i] = xi
		} else {
			y[i] = 0
		}
	}
	return t.record(t.node(v), opReLU, a, nil)
}

// Exp returns e^a elementwise.
func (t *Tape) Exp(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = math.Exp(xi)
	}
	return t.record(t.node(v), opExp, a, nil)
}

// Log returns ln(a) elementwise.
func (t *Tape) Log(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = math.Log(xi)
	}
	return t.record(t.node(v), opLog, a, nil)
}

// Sqrt returns √a elementwise.
func (t *Tape) Sqrt(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = math.Sqrt(xi)
	}
	return t.record(t.node(v), opSqrt, a, nil)
}

// Square returns a² elementwise.
func (t *Tape) Square(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = xi * xi
	}
	return t.record(t.node(v), opSquare, a, nil)
}

// Sin returns sin(a) elementwise.
func (t *Tape) Sin(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = math.Sin(xi)
	}
	return t.record(t.node(v), opSin, a, nil)
}

// Cos returns cos(a) elementwise.
func (t *Tape) Cos(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = math.Cos(xi)
	}
	return t.record(t.node(v), opCos, a, nil)
}

// Abs returns |a| elementwise (subgradient 0 at 0).
func (t *Tape) Abs(a *Node) *Node {
	v, x, y := t.unary(a)
	for i, xi := range x {
		y[i] = math.Abs(xi)
	}
	return t.record(t.node(v), opAbs, a, nil)
}

// TimeEmbed records an interval-aware time embedding as one op: the value
// sum = sin θ + cos θ for θ = phase + dt·α, where phase is a constant, dt
// (L×1) and alpha (1×d) are nodes, and sin, cos and sum (L×d) hold sin θ,
// cos θ and their sum, added in that order. The three matrices are read,
// never written, so one set computed per window can serve every tape that
// embeds the window; gradients reach alpha only. Its backward is the
// Add/MatMul/Sin/Cos chain's, bit for bit (timeEmbedBackward).
func (t *Tape) TimeEmbed(dt, alpha *Node, sin, cos, sum *tensor.Dense) *Node {
	l, d := sum.Rows, sum.Cols
	if dt.Value.Rows != l || dt.Value.Cols != 1 || alpha.Value.Rows != 1 || alpha.Value.Cols != d ||
		!sin.SameShape(sum) || !cos.SameShape(sum) {
		panic(fmt.Sprintf("ag: TimeEmbed wants dt %dx1, alpha 1x%d and %dx%d sin/cos, got %dx%d, %dx%d, %dx%d, %dx%d",
			l, d, l, d, dt.Value.Rows, dt.Value.Cols, alpha.Value.Rows, alpha.Value.Cols, sin.Rows, sin.Cols, cos.Rows, cos.Cols))
	}
	n := t.record(t.node(sum), opTimeEmbed, alpha, dt)
	n.aux, n.aux2 = sin, cos
	return n
}

// --- row-wise structured ops ---------------------------------------------------

// SoftmaxRows applies a numerically stable softmax to each row of a: every
// cell is exp(x − max) divided by the row's sum of those, added in ascending
// order — the same leaf nn's AttendRows runs.
func (t *Tape) SoftmaxRows(a *Node) *Node {
	v := t.out(a.Value.Rows, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		dst := v.Row(i)
		copy(dst, a.Value.Row(i))
		tensor.SoftmaxRow(dst)
	}
	return t.record(t.node(v), opSoftmaxRows, a, nil)
}

// LayerNormRows normalizes each row of a to zero mean and unit variance,
// then applies the learnable 1×C gain and bias.
func (t *Tape) LayerNormRows(a, gain, bias *Node, eps float64) *Node {
	rows, cols := a.Value.Rows, a.Value.Cols
	if gain.Value.Cols != cols || bias.Value.Cols != cols {
		panic("ag: layernorm gain/bias width mismatch")
	}
	g, b := gain.Value.Data[:cols], bias.Value.Data[:cols]
	// xhat and invStd are saved for the backward pass.
	xhat := t.out(rows, cols)
	invStd := t.out(rows, 1)
	v := t.out(rows, cols)
	for i := 0; i < rows; i++ {
		src := a.Value.Row(i)[:cols]
		var mean float64
		for _, x := range src {
			mean += x
		}
		mean /= float64(cols)
		var va float64
		for _, x := range src {
			d := x - mean
			va += d * d
		}
		va /= float64(cols)
		is := 1 / math.Sqrt(va+eps)
		invStd.Data[i] = is
		dst, xh := v.Row(i)[:cols], xhat.Row(i)[:cols]
		for j, x := range src {
			xh[j] = (x - mean) * is
			dst[j] = xh[j]*g[j] + b[j]
		}
	}
	n := t.record(t.node(v), opLayerNorm, a, gain)
	n.c = bias
	n.aux, n.aux2 = xhat, invStd
	return n
}

// --- reductions and losses -----------------------------------------------------

// SumAll returns the 1×1 sum of all elements of a.
func (t *Tape) SumAll(a *Node) *Node {
	v := t.out(1, 1)
	v.Data[0] = a.Value.Sum()
	return t.record(t.node(v), opSumAll, a, nil)
}

// MeanAll returns the 1×1 mean of all elements of a.
func (t *Tape) MeanAll(a *Node) *Node {
	return t.Scale(t.SumAll(a), 1/float64(len(a.Value.Data)))
}

// MSE returns the 1×1 mean squared error between a and b.
func (t *Tape) MSE(a, b *Node) *Node {
	d := t.Sub(a, b)
	return t.MeanAll(t.Square(d))
}

// RowSums returns an R×1 node whose entries are the row sums of a.
func (t *Tape) RowSums(a *Node) *Node {
	v := t.out(a.Value.Rows, 1)
	for i := 0; i < a.Value.Rows; i++ {
		var s float64
		for _, x := range a.Value.Row(i) {
			s += x
		}
		v.Data[i] = s
	}
	return t.record(t.node(v), opRowSums, a, nil)
}
