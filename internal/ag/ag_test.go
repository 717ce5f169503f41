package ag

import (
	"math"
	"math/rand"
	"testing"

	"aero/internal/tensor"
)

// numericGrad computes the central finite-difference gradient of
// f w.r.t. the parameter p, where f rebuilds the graph from scratch.
func numericGrad(p *Param, f func() float64) *tensor.Dense {
	const h = 1e-5
	g := tensor.New(p.Value.Rows, p.Value.Cols)
	for i := range p.Value.Data {
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + h
		fp := f()
		p.Value.Data[i] = orig - h
		fm := f()
		p.Value.Data[i] = orig
		g.Data[i] = (fp - fm) / (2 * h)
	}
	return g
}

// checkGrad builds the graph via build (returning a scalar loss node),
// runs Backward, and compares every parameter's accumulated gradient with
// finite differences.
func checkGrad(t *testing.T, params []*Param, build func(tp *Tape) *Node) {
	t.Helper()
	tape := NewTape()
	loss := build(tape)
	tape.Backward(loss)

	eval := func() float64 { return build(NewTape()).Value.Data[0] }
	for _, p := range params {
		want := numericGrad(p, eval)
		for i := range want.Data {
			got := p.Grad.Data[i]
			w := want.Data[i]
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(w)))
			if math.Abs(got-w)/scale > 1e-4 {
				t.Fatalf("param %s grad[%d]: got %.8f want %.8f", p.Name, i, got, w)
			}
		}
		p.ZeroGrad()
	}
}

func randParam(name string, r, c int, seed int64) *Param {
	rng := rand.New(rand.NewSource(seed))
	return NewParam(name, tensor.Randn(r, c, 0.5, rng))
}

func TestGradAddSubMul(t *testing.T) {
	a := randParam("a", 3, 4, 1)
	b := randParam("b", 3, 4, 2)
	checkGrad(t, []*Param{a, b}, func(tp *Tape) *Node {
		x, y := tp.Param(a), tp.Param(b)
		return tp.MeanAll(tp.Mul(tp.Add(x, y), tp.Sub(x, y)))
	})
}

func TestGradMatMul(t *testing.T) {
	a := randParam("a", 3, 5, 5)
	b := randParam("b", 5, 2, 6)
	checkGrad(t, []*Param{a, b}, func(tp *Tape) *Node {
		return tp.MeanAll(tp.MatMul(tp.Param(a), tp.Param(b)))
	})
}

func TestGradMatMulT(t *testing.T) {
	a := randParam("a", 3, 5, 7)
	b := randParam("b", 4, 5, 8)
	checkGrad(t, []*Param{a, b}, func(tp *Tape) *Node {
		return tp.MeanAll(tp.Square(tp.MatMulT(tp.Param(a), tp.Param(b))))
	})
}

func TestGradAddRow(t *testing.T) {
	a := randParam("a", 4, 3, 10)
	v := randParam("v", 1, 3, 11)
	checkGrad(t, []*Param{a, v}, func(tp *Tape) *Node {
		return tp.MeanAll(tp.Square(tp.AddRow(tp.Param(a), tp.Param(v))))
	})
}

func TestGradActivations(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func(tp *Tape, x *Node) *Node
	}{
		{"sigmoid", func(tp *Tape, x *Node) *Node { return tp.Sigmoid(x) }},
		{"tanh", func(tp *Tape, x *Node) *Node { return tp.Tanh(x) }},
		{"relu", func(tp *Tape, x *Node) *Node { return tp.ReLU(x) }},
		{"exp", func(tp *Tape, x *Node) *Node { return tp.Exp(x) }},
		{"square", func(tp *Tape, x *Node) *Node { return tp.Square(x) }},
		{"abs", func(tp *Tape, x *Node) *Node { return tp.Abs(x) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := randParam("a", 3, 3, 20)
			// Nudge away from ReLU/Abs kinks.
			for i := range a.Value.Data {
				if math.Abs(a.Value.Data[i]) < 0.05 {
					a.Value.Data[i] = 0.1
				}
			}
			checkGrad(t, []*Param{a}, func(tp *Tape) *Node {
				return tp.MeanAll(tc.f(tp, tp.Param(a)))
			})
		})
	}
}

func TestGradLogSqrt(t *testing.T) {
	a := randParam("a", 2, 3, 21)
	for i := range a.Value.Data {
		a.Value.Data[i] = 0.5 + math.Abs(a.Value.Data[i])
	}
	checkGrad(t, []*Param{a}, func(tp *Tape) *Node {
		return tp.MeanAll(tp.Add(tp.Log(tp.Param(a)), tp.Sqrt(tp.Param(a))))
	})
}

func TestGradSoftmax(t *testing.T) {
	a := randParam("a", 3, 5, 22)
	w := randParam("w", 3, 5, 23)
	checkGrad(t, []*Param{a, w}, func(tp *Tape) *Node {
		// weighted sum so gradient is non-uniform across the row
		return tp.MeanAll(tp.Mul(tp.SoftmaxRows(tp.Param(a)), tp.Param(w)))
	})
}

func TestGradLayerNorm(t *testing.T) {
	a := randParam("a", 4, 6, 24)
	g := randParam("g", 1, 6, 25)
	b := randParam("b", 1, 6, 26)
	checkGrad(t, []*Param{a, g, b}, func(tp *Tape) *Node {
		out := tp.LayerNormRows(tp.Param(a), tp.Param(g), tp.Param(b), 1e-5)
		return tp.MeanAll(tp.Square(out))
	})
}

func TestGradSliceConcat(t *testing.T) {
	a := randParam("a", 3, 6, 27)
	checkGrad(t, []*Param{a}, func(tp *Tape) *Node {
		x := tp.Param(a)
		l := tp.SliceCols(x, 0, 2)
		r := tp.SliceCols(x, 2, 6)
		return tp.MeanAll(tp.Square(tp.ConcatCols(r, l))) // swap halves
	})
}

func TestGradRowSums(t *testing.T) {
	a := randParam("a", 4, 3, 28)
	checkGrad(t, []*Param{a}, func(tp *Tape) *Node {
		return tp.MeanAll(tp.Square(tp.RowSums(tp.Param(a))))
	})
}

func TestGradMSE(t *testing.T) {
	a := randParam("a", 3, 4, 29)
	target := rand.New(rand.NewSource(30))
	tgt := tensor.Randn(3, 4, 1, target)
	checkGrad(t, []*Param{a}, func(tp *Tape) *Node {
		return tp.MSE(tp.Param(a), tp.Const(tgt))
	})
}

func TestGradCompositeAttention(t *testing.T) {
	// A miniature single-head attention block: checks that long chains of
	// ops propagate correctly end-to-end.
	wq := randParam("wq", 4, 4, 31)
	wk := randParam("wk", 4, 4, 32)
	wv := randParam("wv", 4, 4, 33)
	x := tensor.Randn(5, 4, 0.7, rand.New(rand.NewSource(34)))
	checkGrad(t, []*Param{wq, wk, wv}, func(tp *Tape) *Node {
		xn := tp.Const(x)
		q := tp.MatMul(xn, tp.Param(wq))
		k := tp.MatMul(xn, tp.Param(wk))
		v := tp.MatMul(xn, tp.Param(wv))
		att := tp.SoftmaxRows(tp.Scale(tp.MatMulT(q, k), 0.5))
		return tp.MSE(tp.MatMul(att, v), xn)
	})
}

func TestBackwardScalarOnly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar loss")
		}
	}()
	tp := NewTape()
	a := tp.Const(tensor.New(2, 2))
	tp.Backward(a)
}

func TestConstGetsNoParamGrad(t *testing.T) {
	tp := NewTape()
	c := tp.Const(tensor.FromSlice(1, 2, []float64{1, 2}))
	loss := tp.MeanAll(tp.Square(c))
	tp.Backward(loss)
	// Const nodes can carry grads but there is nothing to flush them into;
	// just assert the loss value is right and no panic occurred.
	if math.Abs(loss.Value.Data[0]-2.5) > 1e-12 {
		t.Fatalf("loss = %v, want 2.5", loss.Value.Data[0])
	}
}

func TestGradAccumulatesAcrossBackwardCalls(t *testing.T) {
	p := randParam("p", 2, 2, 40)
	for i := 0; i < 2; i++ {
		tp := NewTape()
		loss := tp.MeanAll(tp.Square(tp.Param(p)))
		tp.Backward(loss)
	}
	single := NewTape()
	q := NewParam("q", p.Value.Clone())
	loss := single.MeanAll(single.Square(single.Param(q)))
	single.Backward(loss)
	for i := range p.Grad.Data {
		if math.Abs(p.Grad.Data[i]-2*q.Grad.Data[i]) > 1e-12 {
			t.Fatal("gradients should accumulate additively across Backward calls")
		}
	}
}

func TestTapeReset(t *testing.T) {
	tp := NewTape()
	tp.Const(tensor.New(1, 1))
	if tp.Len() != 1 {
		t.Fatal("node not recorded")
	}
	tp.Reset()
	if tp.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestGradSinCos(t *testing.T) {
	a := randParam("a", 2, 3, 50)
	checkGrad(t, []*Param{a}, func(tp *Tape) *Node {
		return tp.MeanAll(tp.Add(tp.Sin(tp.Param(a)), tp.Cos(tp.Param(a))))
	})
}

func TestGradTimeEmbeddingComposite(t *testing.T) {
	// The time-embedding pattern: theta = const + dt·alpha, out = sin+cos.
	alpha := randParam("alpha", 1, 4, 51)
	dt := tensor.FromSlice(3, 1, []float64{1, 0.5, 2})
	phase := tensor.Randn(3, 4, 1, rand.New(rand.NewSource(52)))
	checkGrad(t, []*Param{alpha}, func(tp *Tape) *Node {
		theta := tp.Add(tp.Const(phase), tp.MatMul(tp.Const(dt), tp.Param(alpha)))
		return tp.MeanAll(tp.Square(tp.Add(tp.Sin(theta), tp.Cos(theta))))
	})
}
