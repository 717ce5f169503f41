package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// scalarly runs f on the Go loops.
func scalarly(f func()) {
	probed := useVector
	useVector = false
	defer func() { useVector = probed }()
	f()
}

func needVector(t *testing.T) {
	t.Helper()
	if !useVector {
		t.Skip(noVector)
	}
}

// expSumBoth runs ExpSumRow on both paths over copies of row and fails on
// the first bit that differs; it returns how many leading cells the vector
// leaf itself took.
func expSumBoth(t *testing.T, row []float64, mx float64) int {
	t.Helper()
	want := append([]float64(nil), row...)
	var wantSum float64
	scalarly(func() { wantSum = ExpSumRow(want, mx) })
	got := append([]float64(nil), row...)
	gotSum := ExpSumRow(got, mx)
	if j, ok := sameBits(got, want); !ok {
		t.Fatalf("exp(%v − %v) at cell %d of %d: vector path %#x, math.Exp %#x",
			row[j], mx, j, len(row), math.Float64bits(got[j]), math.Float64bits(want[j]))
	}
	if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
		t.Fatalf("row of %d: vector-path sum %v != scalar sum %v", len(row), gotSum, wantSum)
	}
	return expRows4(append([]float64(nil), row...), mx)
}

// TestPackedExpMatchesMathExp drives the softmax exponential — the one place
// the vector path is not a lane-for-lane copy of compiled Go but a replica of
// an assembly routine in another package — against math.Exp itself.
func TestPackedExpMatchesMathExp(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(41))
	inRange := func() float64 {
		if rng.Intn(4) == 0 {
			return -math.Exp(rng.Float64()*20 - 13.44) // log-uniform, 1.5e-6 … 706
		}
		return -708 * rng.Float64()
	}

	// ≥ 10⁶ arguments in [−708, 0], whole rows on the vector leaf.
	row := make([]float64, 48)
	for n := 0; n < 1<<20; n += len(row) {
		for j := range row {
			row[j] = inRange()
		}
		if took := expSumBoth(t, row, 0); took != len(row) {
			t.Fatalf("in-range row: vector leaf took %d of %d cells", took, len(row))
		}
	}
	// A max away from zero: s − mx is formed in the lane as well.
	for n := 0; n < 1<<14; n += len(row) {
		mx := rng.NormFloat64() * 50
		for j := range row {
			row[j] = mx + inRange()
		}
		expSumBoth(t, row, mx)
	}

	// Edge arguments in every lane position of a row of two groups. The leaf
	// must stop before the group holding a lane outside [−708, 0].
	edges := []struct {
		x  float64
		in bool
	}{
		{0, true},
		{math.Copysign(0, -1), true},
		{-5e-324, true},
		{math.Nextafter(-708, 0), true},
		{-708, true},
		{math.Nextafter(-708, math.Inf(-1)), false},
		{-745.2, false}, // exp is subnormal from −708.4 and zero from −745.14
		{-1000, false},
		{5e-324, false},
		{1, false},
		{710, false},
		{math.Inf(-1), false},
		{math.Inf(1), false},
		{math.NaN(), false},
	}
	short := make([]float64, 8)
	for _, e := range edges {
		for pos := range short {
			for j := range short {
				short[j] = inRange()
			}
			short[pos] = e.x
			want := len(short)
			if !e.in {
				want = pos &^ 3
			}
			if took := expSumBoth(t, short, 0); took != want {
				t.Fatalf("edge %v at cell %d: vector leaf took %d cells, want %d", e.x, pos, took, want)
			}
		}
	}

	// Lengths around the group size and the benchmark's 48 keys: the cells
	// past the last whole group are math.Exp's.
	for _, n := range []int{0, 1, 3, 4, 5, 47, 48, 49} {
		r := make([]float64, n)
		for j := range r {
			r[j] = inRange()
		}
		if took := expSumBoth(t, r, 0); took != n&^3 {
			t.Fatalf("row of %d: vector leaf took %d cells, want %d", n, took, n&^3)
		}
		got := append([]float64(nil), r...)
		want := append([]float64(nil), r...)
		DivideRow(got, 3.7)
		scalarly(func() { DivideRow(want, 3.7) })
		if j, ok := sameBits(got, want); !ok {
			t.Fatalf("row of %d cell %d: packed divide %v != scalar %v", n, j, got[j], want[j])
		}
	}
}

// TestVectorKernelsSpecialValues pins the corners where a vector kernel could
// plausibly differ from compiled Go: the zero-skip (−0 skipped, NaN
// multiplied — skipping matters when the row holds an Inf or a NaN), Inf·0
// and Inf − Inf arising mid-sum, subnormals, overflow.
//
// Every NaN in play has one bit pattern, the default NaN x86 itself produces
// for Inf·0 and Inf − Inf. When two NaNs with different payloads meet in one
// instruction x86 keeps the first operand's, and which operand the Go
// compiler makes first is register allocation: in go1.24's code for the
// 8-cell block cell 7 multiplies the other way round from cells 0–6, and a
// -race build adds the other way round from a plain one. The Go loops define
// no payload to be equal to, so none is asked for.
func TestVectorKernelsSpecialValues(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(42))
	nan := math.Float64frombits(0xfff8_0000_0000_0000)
	special := []float64{0, math.Copysign(0, -1), nan, math.Inf(1), math.Inf(-1), 5e-324, -5e-324, math.MaxFloat64}
	pick := func(pSpecial float64) float64 {
		if rng.Float64() < pSpecial {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	for _, width := range []int{8, 16, 19, 24, 32} {
		for trial := 0; trial < 400; trial++ {
			nCoef := 1 + rng.Intn(12)
			stride := width + rng.Intn(3)
			coef := make([]float64, nCoef)
			for i := range coef {
				coef[i] = pick(0.6)
			}
			rows := make([]float64, (nCoef-1)*stride+width)
			for i := range rows {
				rows[i] = pick(0.3)
			}
			acc := make([]float64, width)
			for i := range acc {
				acc[i] = pick(0.1)
			}
			want := append([]float64(nil), acc...)
			scalarly(func() { AddScaledRows(want, coef, rows, stride) })
			got := append([]float64(nil), acc...)
			AddScaledRows(got, coef, rows, stride)
			if j, ok := sameBits(got, want); !ok {
				t.Fatalf("width %d trial %d cell %d: vector %#x != Go loop %#x (coef %v)",
					width, trial, j, math.Float64bits(got[j]), math.Float64bits(want[j]), coef)
			}
		}
	}

	// DotRows: the same factors through the transposing kernel.
	for _, dk := range []int{4, 8, 12} {
		for trial := 0; trial < 400; trial++ {
			n := 1 + rng.Intn(19)
			stride := dk + rng.Intn(3)
			q := make([]float64, dk)
			for i := range q {
				q[i] = pick(0.3)
			}
			rows := make([]float64, (n-1)*stride+dk)
			for i := range rows {
				rows[i] = pick(0.2)
			}
			want, got := make([]float64, n), make([]float64, n)
			scalarly(func() { DotRows(want, q, rows, stride, 0.5) })
			DotRows(got, q, rows, stride, 0.5)
			if j, ok := sameBits(got, want); !ok {
				t.Fatalf("dk %d rows %d row %d: vector %#x != Go loop %#x",
					dk, n, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}
