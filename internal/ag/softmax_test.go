package ag

import (
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname

	"aero/internal/tensor"
)

// tensorUseVector is internal/tensor's kernel dispatch variable. It is
// unexported there on purpose (no knob); this test reaches it by linkname to
// hold both kernel paths to one reference.
//
//go:linkname tensorUseVector aero/internal/tensor.useVector
var tensorUseVector bool

// eachKernelPath runs f twice: on tensor's vector leaves (skipped where its
// init probe said no — every host but an AVX2+FMA amd64) and on its Go loops.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	probed := tensorUseVector
	defer func() { tensorUseVector = probed }()
	t.Run("vector", func(t *testing.T) {
		if !probed {
			t.Skip("internal/tensor's probe chose the Go loops on this host: nothing to compare")
		}
		f(t)
	})
	tensorUseVector = false
	t.Run("scalar", f)
}

// softmaxRowsRef is SoftmaxRows' forward as it stood before it ran on the row
// kernels: math.Exp cell by cell, the sum in ascending order, a division.
func softmaxRowsRef(src, dst *tensor.Dense) {
	for i := 0; i < src.Rows; i++ {
		s, d := src.Row(i), dst.Row(i)
		mx := math.Inf(-1)
		for _, x := range s {
			if x > mx {
				mx = x
			}
		}
		var sum float64
		for j, x := range s {
			e := math.Exp(x - mx)
			d[j] = e
			sum += e
		}
		for j := range d {
			d[j] /= sum
		}
	}
}

// TestSoftmaxRowsMatchesReference holds the tape softmax to that loop bit for
// bit on both kernel paths: widths on both sides of the four-lane group, a
// causal −1e9 mask (the masked cells leave the packed range mid-row), a row
// of equal values, a single cell, arguments below −708 (subnormal and zero
// exponentials) scattered through a row, and the input left untouched.
func TestSoftmaxRowsMatchesReference(t *testing.T) {
	eachKernelPath(t, testSoftmaxRowsMatchesReference)
}

func testSoftmaxRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var cases []*tensor.Dense
	for _, cols := range []int{1, 2, 3, 4, 5, 8, 13, 48, 49} {
		cases = append(cases, tensor.Randn(6, cols, 3, rng))
	}
	causal := tensor.Randn(48, 48, 1, rng)
	for i := 0; i < causal.Rows; i++ {
		for j := i + 1; j < causal.Cols; j++ {
			causal.Set(i, j, causal.At(i, j)-1e9)
		}
	}
	equal := tensor.New(3, 11)
	equal.Fill(0.7)
	deep := tensor.Randn(8, 24, 1, rng) // two cells in three stay near the row's maximum
	for i := range deep.Data {
		switch rng.Intn(6) {
		case 0:
			deep.Data[i] -= 708 + 40*rng.Float64() // subnormal, then zero from −745
		case 1:
			deep.Data[i] = -708 + deep.Data[i]*1e-3
		}
	}
	cases = append(cases, causal, equal, deep)

	tp := NewTape()
	for _, src := range cases {
		before := src.Clone()
		want := tensor.New(src.Rows, src.Cols)
		softmaxRowsRef(src, want)
		tp.Reset()
		got := tp.SoftmaxRows(tp.Const(src)).Value
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%dx%d cell (%d,%d): SoftmaxRows %#x != reference %#x", src.Rows, src.Cols,
					i/src.Cols, i%src.Cols, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
			if math.Float64bits(src.Data[i]) != math.Float64bits(before.Data[i]) {
				t.Fatalf("%dx%d: SoftmaxRows wrote to its input", src.Rows, src.Cols)
			}
		}
	}
}
