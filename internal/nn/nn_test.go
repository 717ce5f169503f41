package nn

import (
	"math"
	"math/rand"
	"testing"

	"aero/internal/ag"
	"aero/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("l", 4, 3, rng)
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(5, 4, 1, rng))
	y := l.Forward(tp, x)
	if y.Rows() != 5 || y.Cols() != 3 {
		t.Fatalf("shape %dx%d", y.Rows(), y.Cols())
	}
	if len(l.Params()) != 2 {
		t.Fatal("linear must expose W and B")
	}
}

func TestLinearLearnsLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Ground truth mapping y = x·W* + b*
	wStar := tensor.Randn(3, 2, 1, rng)
	bStar := tensor.Randn(1, 2, 1, rng)
	x := tensor.Randn(64, 3, 1, rng)
	y := x.MatMul(wStar)
	for i := 0; i < y.Rows; i++ {
		for j := 0; j < y.Cols; j++ {
			y.Set(i, j, y.At(i, j)+bStar.At(0, j))
		}
	}
	l := NewLinear("l", 3, 2, rng)
	opt := NewAdam(0.05)
	var loss float64
	for epoch := 0; epoch < 300; epoch++ {
		tp := ag.NewTape()
		pred := l.Forward(tp, tp.Const(x))
		lossNode := tp.MSE(pred, tp.Const(y))
		loss = lossNode.Value.Data[0]
		tp.Backward(lossNode)
		opt.Step(l.Params())
	}
	if loss > 1e-3 {
		t.Fatalf("linear regression did not converge: loss %v", loss)
	}
}

func TestLayerNormNormalizesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewLayerNorm("ln", 8)
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(4, 8, 5, rng))
	y := ln.Forward(tp, x)
	for i := 0; i < y.Rows(); i++ {
		row := y.Value.Row(i)
		var mean float64
		for _, v := range row {
			mean += v
		}
		mean /= 8
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("row %d mean %v", i, mean)
		}
		var va float64
		for _, v := range row {
			va += (v - mean) * (v - mean)
		}
		va /= 8
		if math.Abs(va-1) > 1e-3 {
			t.Fatalf("row %d var %v", i, va)
		}
	}
}

func TestMultiHeadAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mha := NewMultiHeadAttention("mha", 8, 4, rng)
	tp := ag.NewTape()
	q := tp.Const(tensor.Randn(6, 8, 1, rng))
	kv := tp.Const(tensor.Randn(10, 8, 1, rng))
	out := mha.Forward(tp, q, kv, kv)
	if out.Rows() != 6 || out.Cols() != 8 {
		t.Fatalf("cross-attention shape %dx%d", out.Rows(), out.Cols())
	}
	if len(mha.Params()) != 8 {
		t.Fatalf("mha params %d", len(mha.Params()))
	}
}

func TestMultiHeadAttentionHeadDivisibility(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dm %% heads != 0")
		}
	}()
	NewMultiHeadAttention("bad", 10, 4, rand.New(rand.NewSource(1)))
}

func TestAttentionWeightsAreRowStochastic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mha := NewMultiHeadAttention("mha", 8, 2, rng)
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(5, 8, 1, rng))
	_, attns := mha.AttentionWeights(tp, x, x, x)
	if len(attns) != 2 {
		t.Fatalf("expected 2 heads, got %d", len(attns))
	}
	for h, a := range attns {
		for i := 0; i < a.Rows(); i++ {
			var s float64
			for _, v := range a.Value.Row(i) {
				if v < 0 {
					t.Fatalf("negative attention weight head %d", h)
				}
				s += v
			}
			if math.Abs(s-1) > 1e-9 {
				t.Fatalf("head %d row %d sums to %v", h, i, s)
			}
		}
	}
}

func TestFFNShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := NewFFN("f", 8, 16, 4, rng)
	tp := ag.NewTape()
	out := f.Forward(tp, tp.Const(tensor.Randn(3, 8, 1, rng)))
	if out.Rows() != 3 || out.Cols() != 4 {
		t.Fatalf("ffn shape %dx%d", out.Rows(), out.Cols())
	}
}

func TestGRUCellStateEvolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewGRUCell("gru", 3, 5, rng)
	tp := ag.NewTape()
	h := g.InitState(tp, 2)
	x := tp.Const(tensor.Randn(2, 3, 1, rng))
	h1 := g.Step(tp, x, h)
	if h1.Rows() != 2 || h1.Cols() != 5 {
		t.Fatalf("gru state shape %dx%d", h1.Rows(), h1.Cols())
	}
	if h1.Value.Norm() == 0 {
		t.Fatal("state did not change")
	}
	if len(g.Params()) != 9 {
		t.Fatalf("gru params %d", len(g.Params()))
	}
}

func TestGRULearnsToRememberSign(t *testing.T) {
	// Task: output the sign of the first input after a few steps.
	rng := rand.New(rand.NewSource(8))
	g := NewGRUCell("gru", 1, 8, rng)
	head := NewLinear("head", 8, 1, rng)
	params := append(g.Params(), head.Params()...)
	opt := NewAdam(0.02)
	var loss float64
	for epoch := 0; epoch < 200; epoch++ {
		tp := ag.NewTape()
		var total *ag.Node
		for b := 0; b < 8; b++ {
			sign := float64(1)
			if b%2 == 0 {
				sign = -1
			}
			h := g.InitState(tp, 1)
			for step := 0; step < 4; step++ {
				v := 0.1 * rng.NormFloat64()
				if step == 0 {
					v = sign
				}
				h = g.Step(tp, tp.Const(tensor.FromSlice(1, 1, []float64{v})), h)
			}
			pred := head.Forward(tp, h)
			target := tp.Const(tensor.FromSlice(1, 1, []float64{sign}))
			l := tp.MSE(pred, target)
			if total == nil {
				total = l
			} else {
				total = tp.Add(total, l)
			}
		}
		loss = total.Value.Data[0] / 8
		tp.Backward(total)
		opt.Step(params)
	}
	if loss > 0.1 {
		t.Fatalf("GRU failed to learn memory task: loss %v", loss)
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := ag.NewParam("p", tensor.FromSlice(1, 2, []float64{5, -3}))
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		tp := ag.NewTape()
		loss := tp.MeanAll(tp.Square(tp.Param(p)))
		tp.Backward(loss)
		opt.Step([]*ag.Param{p})
	}
	if math.Abs(p.Value.Data[0]) > 1e-2 || math.Abs(p.Value.Data[1]) > 1e-2 {
		t.Fatalf("Adam failed to minimize: %v", p.Value.Data)
	}
}

func TestAdamStepZeroesGrads(t *testing.T) {
	p := ag.NewParam("p", tensor.FromSlice(1, 1, []float64{1}))
	tp := ag.NewTape()
	loss := tp.MeanAll(tp.Square(tp.Param(p)))
	tp.Backward(loss)
	NewAdam(0.01).Step([]*ag.Param{p})
	if p.Grad.Data[0] != 0 {
		t.Fatal("grads must be zeroed after step")
	}
}

func TestGradClipping(t *testing.T) {
	p := ag.NewParam("p", tensor.FromSlice(1, 2, []float64{1, 1}))
	p.Grad.Data[0] = 300
	p.Grad.Data[1] = 400
	opt := NewAdam(0.01)
	opt.MaxGradNorm = 5
	before := p.Value.Clone()
	opt.Step([]*ag.Param{p})
	// Update magnitude bounded by lr regardless of giant gradient.
	for i := range p.Value.Data {
		if math.Abs(p.Value.Data[i]-before.Data[i]) > 0.02 {
			t.Fatalf("clipped update too large: %v -> %v", before.Data[i], p.Value.Data[i])
		}
	}
}

func TestGradNormAndZeroGrads(t *testing.T) {
	p := ag.NewParam("p", tensor.FromSlice(1, 2, []float64{0, 0}))
	p.Grad.Data[0] = 3
	p.Grad.Data[1] = 4
	params := []*ag.Param{p}
	if math.Sqrt(sumSquaredGrads(params)) != 5 {
		t.Fatal("grad norm wrong")
	}
	for _, p := range params {
		p.ZeroGrad()
	}
	if sumSquaredGrads(params) != 0 {
		t.Fatal("zero grads failed")
	}
}

func TestCollectParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l1 := NewLinear("a", 2, 2, rng)
	l2 := NewLinear("b", 2, 2, rng)
	if got := len(CollectParams(l1, l2)); got != 4 {
		t.Fatalf("collected %d params", got)
	}
}

func TestBandedAttentionMasksFarPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	mha := NewMultiHeadAttention("band", 8, 2, rng)
	mha.Band = 2
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(12, 8, 1, rng))
	_, attns := mha.AttentionWeights(tp, x, x, x)
	for _, a := range attns {
		for i := 0; i < a.Rows(); i++ {
			for j := 0; j < a.Cols(); j++ {
				w := a.Value.At(i, j)
				if j < i-2 || j > i+2 {
					if w > 1e-6 {
						t.Fatalf("attention leaked outside band at (%d,%d): %v", i, j, w)
					}
				}
			}
		}
	}
}

func TestBandedAttentionIgnoredForCrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mha := NewMultiHeadAttention("band", 8, 2, rng)
	mha.Band = 1
	tp := ag.NewTape()
	q := tp.Const(tensor.Randn(4, 8, 1, rng))
	kv := tp.Const(tensor.Randn(9, 8, 1, rng))
	out := mha.Forward(tp, q, kv, kv) // must not panic, band ignored
	if out.Rows() != 4 || out.Cols() != 8 {
		t.Fatal("cross attention shape wrong")
	}
}

func TestBandedAttentionGradientsFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mha := NewMultiHeadAttention("band", 4, 1, rng)
	mha.Band = 2
	tp := ag.NewTape()
	x := tp.Const(tensor.Randn(6, 4, 1, rng))
	out := mha.Forward(tp, x, x, x)
	loss := tp.MeanAll(tp.Square(out))
	tp.Backward(loss)
	if sumSquaredGrads(mha.Params()) == 0 {
		t.Fatal("no gradient reached banded attention weights")
	}
}
