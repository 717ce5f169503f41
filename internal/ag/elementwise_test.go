package ag

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aero/internal/tensor"
)

// timeEmbedInputs computes what a caller hands TimeEmbed for θ = phase +
// dt·α at alpha's current value: sin θ, cos θ and their sum.
func timeEmbedInputs(phase, dt *tensor.Dense, alpha *Param) (sin, cos, sum *tensor.Dense) {
	sin, cos, sum = tensor.New(phase.Rows, phase.Cols), tensor.New(phase.Rows, phase.Cols), tensor.New(phase.Rows, phase.Cols)
	for l := 0; l < phase.Rows; l++ {
		for j := 0; j < phase.Cols; j++ {
			th := phase.At(l, j) + dt.Data[l]*alpha.Value.Data[j]
			sin.Set(l, j, math.Sin(th))
			cos.Set(l, j, math.Cos(th))
			sum.Set(l, j, sin.At(l, j)+cos.At(l, j))
		}
	}
	return sin, cos, sum
}

// TestGradTimeEmbed checks the TimeEmbed record's α gradient against
// central finite differences, the precomputed sine and cosine rebuilt at
// every perturbed α as a caller would.
func TestGradTimeEmbed(t *testing.T) {
	alpha := randParam("alpha", 1, 4, 53)
	dt := tensor.FromSlice(3, 1, []float64{1, 0, 2.5})
	phase := tensor.Randn(3, 4, 1, rand.New(rand.NewSource(54)))
	w := tensor.Randn(3, 4, 1, rand.New(rand.NewSource(55)))
	checkGrad(t, []*Param{alpha}, func(tp *Tape) *Node {
		sin, cos, sum := timeEmbedInputs(phase, dt, alpha)
		te := tp.TimeEmbed(tp.Const(dt), tp.Param(alpha), sin, cos, sum)
		return tp.MeanAll(tp.Mul(tp.Square(te), tp.Const(w)))
	})
}

// specialCells returns an r×c matrix of N(0, 1.5²) samples with ±0, ±1,
// NaN, ±Inf and a value just past Exp's overflow scattered through it.
func specialCells(r, c int, rng *rand.Rand) *tensor.Dense {
	m := tensor.Randn(r, c, 1.5, rng)
	specials := []float64{0, math.Copysign(0, -1), 1, -1, math.NaN(), math.Inf(1), math.Inf(-1), 710}
	for i := range m.Data {
		if rng.Intn(4) == 0 {
			m.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	return m
}

// unaryRef is every elementwise nonlinearity as it stood before each op had
// its own typed loop: y = f(x) through a per-op closure, and the backward's
// ga += g·d with d chosen by a per-cell switch.
func unaryRef(op opKind) (f func(float64) float64, deriv func(x, y float64) float64) {
	switch op {
	case opSigmoid:
		return func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, func(_, y float64) float64 { return y * (1 - y) }
	case opTanh:
		return math.Tanh, func(_, y float64) float64 { return 1 - y*y }
	case opReLU:
		return func(x float64) float64 {
				if x > 0 {
					return x
				}
				return 0
			}, func(x, _ float64) float64 {
				if x > 0 {
					return 1
				}
				return 0
			}
	case opExp:
		return math.Exp, func(_, y float64) float64 { return y }
	case opLog:
		return math.Log, func(x, _ float64) float64 { return 1 / x }
	case opSqrt:
		return math.Sqrt, func(_, y float64) float64 { return 0.5 / y }
	case opSquare:
		return func(x float64) float64 { return x * x }, func(x, _ float64) float64 { return 2 * x }
	case opSin:
		return math.Sin, func(x, _ float64) float64 { return math.Cos(x) }
	case opCos:
		return math.Cos, func(x, _ float64) float64 { return -math.Sin(x) }
	case opAbs:
		return math.Abs, func(x, _ float64) float64 {
			switch {
			case x > 0:
				return 1
			case x < 0:
				return -1
			}
			return 0
		}
	}
	panic(fmt.Sprintf("no reference for op %d", op))
}

// sameBitsAg fails unless got and want hold the same float64 bits, a NaN
// matching any NaN: which operand's NaN an instruction passes on (and so
// the payload and sign a NaN ends up with) is the compiler's choice of
// registers, not the arithmetic's.
func sameBitsAg(t *testing.T, name string, got, want *tensor.Dense) {
	t.Helper()
	for i := range want.Data {
		if math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i]) {
			continue
		}
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s cell %d: %v (%#x) != reference %v (%#x)", name, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestUnaryOpsMatchReference holds every elementwise nonlinearity's typed
// loops to unaryRef bit for bit, forward and backward, over special values
// in the input, the upstream gradient and the gradient already accumulated.
func TestUnaryOpsMatchReference(t *testing.T) {
	ops := []struct {
		name string
		op   opKind
		f    func(tp *Tape, a *Node) *Node
	}{
		{"sigmoid", opSigmoid, (*Tape).Sigmoid}, {"tanh", opTanh, (*Tape).Tanh}, {"relu", opReLU, (*Tape).ReLU},
		{"exp", opExp, (*Tape).Exp}, {"log", opLog, (*Tape).Log}, {"sqrt", opSqrt, (*Tape).Sqrt},
		{"square", opSquare, (*Tape).Square}, {"sin", opSin, (*Tape).Sin}, {"cos", opCos, (*Tape).Cos},
		{"abs", opAbs, (*Tape).Abs},
	}
	rng := rand.New(rand.NewSource(81))
	tp := NewTape()
	for _, o := range ops {
		name := o.name
		x, g, acc := specialCells(5, 7, rng), specialCells(5, 7, rng), specialCells(5, 7, rng)
		f, deriv := unaryRef(o.op)
		wantY, wantG := tensor.New(5, 7), acc.Clone()
		for i, xi := range x.Data {
			wantY.Data[i] = f(xi)
			wantG.Data[i] += g.Data[i] * deriv(xi, wantY.Data[i])
		}
		tp.Reset()
		xn := tp.Const(x)
		y := o.f(tp, xn)
		sameBitsAg(t, name+" forward", y.Value, wantY)
		xn.Grad, y.Grad = acc.Clone(), g
		tp.step(y)
		sameBitsAg(t, name+" backward", xn.Grad, wantG)
	}
}

// TestRowOpsMatchReference holds the row-loop forms of the binary ops,
// AddRow, Scale, LayerNormRows and the softmax backward to the loops they
// replaced, bit for bit, over special values, with gradients accumulating
// onto nonzero buffers. The references are the replaced code verbatim.
func TestRowOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	const r, c = 6, 9
	tp := NewTape()

	// Elementwise binaries: forward, and each operand's accumulation.
	type binRef struct {
		name  string
		f     func(tp *Tape, a, b *Node) *Node
		fwd   func(a, b float64) float64
		grads func(g, a, b, ga, gb float64) (float64, float64)
	}
	for _, br := range []binRef{
		{"add", (*Tape).Add, func(a, b float64) float64 { return a + b },
			func(g, _, _, ga, gb float64) (float64, float64) { ga += g; gb += g; return ga, gb }},
		{"sub", (*Tape).Sub, func(a, b float64) float64 { return a - b },
			func(g, _, _, ga, gb float64) (float64, float64) { ga += g; gb += -1 * g; return ga, gb }},
		{"mul", (*Tape).Mul, func(a, b float64) float64 { return a * b },
			func(g, a, b, ga, gb float64) (float64, float64) { ga += g * b; gb += g * a; return ga, gb }},
	} {
		name := br.name
		a, b, g := specialCells(r, c, rng), specialCells(r, c, rng), specialCells(r, c, rng)
		accA, accB := specialCells(r, c, rng), specialCells(r, c, rng)
		wantV, wantA, wantB := tensor.New(r, c), accA.Clone(), accB.Clone()
		for i := range wantV.Data {
			wantV.Data[i] = br.fwd(a.Data[i], b.Data[i])
			wantA.Data[i], wantB.Data[i] = br.grads(g.Data[i], a.Data[i], b.Data[i], wantA.Data[i], wantB.Data[i])
		}
		tp.Reset()
		an, bn := tp.Const(a), tp.Const(b)
		v := br.f(tp, an, bn)
		sameBitsAg(t, name+" forward", v.Value, wantV)
		an.Grad, bn.Grad, v.Grad = accA.Clone(), accB.Clone(), g
		tp.step(v)
		sameBitsAg(t, name+" backward a", an.Grad, wantA)
		sameBitsAg(t, name+" backward b", bn.Grad, wantB)
	}

	// AddRow and Scale.
	{
		a, vec, g := specialCells(r, c, rng), specialCells(1, c, rng), specialCells(r, c, rng)
		accA, accV := specialCells(r, c, rng), specialCells(1, c, rng)
		wantV, wantA, wantVec := tensor.New(r, c), accA.Clone().AddInPlace(g), accV.Clone()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				wantV.Set(i, j, a.At(i, j)+vec.Data[j])
				wantVec.Data[j] += g.At(i, j)
			}
		}
		tp.Reset()
		an, vn := tp.Const(a), tp.Const(vec)
		out := tp.AddRow(an, vn)
		sameBitsAg(t, "addrow forward", out.Value, wantV)
		an.Grad, vn.Grad, out.Grad = accA.Clone(), accV.Clone(), g
		tp.step(out)
		sameBitsAg(t, "addrow backward a", an.Grad, wantA)
		sameBitsAg(t, "addrow backward v", vn.Grad, wantVec)

		const s = -0.37
		wantS, wantSA := tensor.New(r, c), accA.Clone().AddScaled(s, g)
		for i := range wantS.Data {
			wantS.Data[i] = s * a.Data[i]
		}
		tp.Reset()
		an = tp.Const(a)
		out = tp.Scale(an, s)
		sameBitsAg(t, "scale forward", out.Value, wantS)
		an.Grad, out.Grad = accA.Clone(), g
		tp.step(out)
		sameBitsAg(t, "scale backward", an.Grad, wantSA)
	}

	// LayerNormRows, forward and backward; finite inputs, since a NaN
	// anywhere in a row spreads through the row's mean on both sides alike.
	{
		x, g := tensor.Randn(r, c, 2, rng), specialCells(r, c, rng)
		for i := range g.Data {
			if math.IsNaN(g.Data[i]) || math.IsInf(g.Data[i], 0) {
				g.Data[i] = 0
			}
		}
		gain, bias := tensor.Randn(1, c, 1, rng), tensor.Randn(1, c, 1, rng)
		accX, accG, accB := tensor.Randn(r, c, 1, rng), tensor.Randn(1, c, 1, rng), tensor.Randn(1, c, 1, rng)
		const eps = 1e-5
		wantV, xhat, invStd := tensor.New(r, c), tensor.New(r, c), tensor.New(r, 1)
		for i := 0; i < r; i++ {
			src := x.Row(i)
			var mean float64
			for _, v := range src {
				mean += v
			}
			mean /= float64(c)
			var va float64
			for _, v := range src {
				d := v - mean
				va += d * d
			}
			va /= float64(c)
			is := 1 / math.Sqrt(va+eps)
			dst := wantV.Row(i)
			invStd.Data[i] = is
			xh := xhat.Row(i)
			for j, v := range src {
				xh[j] = (v - mean) * is
				dst[j] = xh[j]*gain.Data[j] + bias.Data[j]
			}
		}
		wantX, wantG, wantB := accX.Clone(), accG.Clone(), accB.Clone()
		dxh := make([]float64, c)
		for i := 0; i < r; i++ {
			gy, xh := g.Row(i), xhat.Row(i)
			for j := range gy {
				wantG.Data[j] += gy[j] * xh[j]
				wantB.Data[j] += gy[j]
			}
			var m1, m2 float64
			for j := range gy {
				dxh[j] = gy[j] * gain.Data[j]
				m1 += dxh[j]
				m2 += dxh[j] * xh[j]
			}
			m1 /= float64(c)
			m2 /= float64(c)
			dst := wantX.Row(i)
			for j := range dxh {
				dst[j] += invStd.Data[i] * (dxh[j] - m1 - xh[j]*m2)
			}
		}
		tp.Reset()
		xn, gn, bn := tp.Const(x), tp.Const(gain), tp.Const(bias)
		out := tp.LayerNormRows(xn, gn, bn, eps)
		sameBitsAg(t, "layernorm forward", out.Value, wantV)
		xn.Grad, gn.Grad, bn.Grad, out.Grad = accX.Clone(), accG.Clone(), accB.Clone(), g
		tp.step(out)
		sameBitsAg(t, "layernorm backward x", xn.Grad, wantX)
		sameBitsAg(t, "layernorm backward gain", gn.Grad, wantG)
		sameBitsAg(t, "layernorm backward bias", bn.Grad, wantB)
	}

	// The softmax backward.
	{
		x, g, acc := tensor.Randn(r, c, 2, rng), specialCells(r, c, rng), specialCells(r, c, rng)
		tp.Reset()
		xn := tp.Const(x)
		out := tp.SoftmaxRows(xn)
		want := acc.Clone()
		for i := 0; i < r; i++ {
			y, gy := out.Value.Row(i), g.Row(i)
			var dot float64
			for j := range y {
				dot += y[j] * gy[j]
			}
			dst := want.Row(i)
			for j := range y {
				dst[j] += y[j] * (gy[j] - dot)
			}
		}
		xn.Grad, out.Grad = acc.Clone(), g
		tp.step(out)
		sameBitsAg(t, "softmax backward", xn.Grad, want)
	}
}
