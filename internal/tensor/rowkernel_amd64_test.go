package tensor

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func needVector(t *testing.T) {
	t.Helper()
	if !useVector {
		t.Skip(noVector)
	}
}

// expLeaf runs the softmax leaf over row followed by one −Inf cell, which
// never wins the max and is outside the packed range wherever its group
// falls, so the leaf never takes every cell and returns before it divides:
// the cells it took hold its exponentials. It fails unless the leaf's max is
// the Go loop's (up to the sign of a zero), every cell it took is
// math.Exp(s − max)'s bits with the Go loop's max, and its sum is those
// added from +0 in ascending order; it returns how many cells the leaf took.
func expLeaf(t *testing.T, row []float64) int {
	t.Helper()
	p := append(append([]float64(nil), row...), math.Inf(-1))
	mx, sum, took := softmaxRows4(p)
	want := math.Inf(-1)
	for _, s := range row {
		if s > want {
			want = s
		}
	}
	if mx != want {
		t.Fatalf("row of %d: leaf max %v, Go loop %v", len(row), mx, want)
	}
	var wantSum float64
	for j, s := range row[:took] {
		e := math.Exp(s - want)
		if math.Float64bits(p[j]) != math.Float64bits(e) {
			t.Fatalf("exp(%v − %v) at cell %d of %d: leaf %#x, math.Exp %#x",
				s, want, j, len(row), math.Float64bits(p[j]), math.Float64bits(e))
		}
		wantSum += e
	}
	if math.Float64bits(sum) != math.Float64bits(wantSum) {
		t.Fatalf("row of %d: leaf sum %v != ascending sum %v", len(row), sum, wantSum)
	}
	return took
}

// TestPackedExpMatchesMathExp drives the softmax exponential — the one place
// the vector path is not a lane-for-lane copy of compiled Go but a replica of
// an assembly routine in another package — against math.Exp itself, through
// the softmax leaf that runs it.
func TestPackedExpMatchesMathExp(t *testing.T) {
	needVector(t)
	rng := rand.New(rand.NewSource(41))
	inRange := func() float64 {
		if rng.Intn(4) == 0 {
			return -math.Exp(rng.Float64()*20 - 13.44) // log-uniform, 1.5e-6 … 706
		}
		return -708 * rng.Float64()
	}

	// ≥ 10⁶ arguments in [−708, 0], whole rows on the vector leaf; a +0 cell
	// in a lane that moves from row to row pins the max, so the argument is
	// the cell itself.
	row := make([]float64, 48)
	for n := 0; n < 1<<20; n += len(row) {
		for j := range row {
			row[j] = inRange()
		}
		row[n/len(row)%len(row)] = 0
		if took := expLeaf(t, row); took != len(row) {
			t.Fatalf("in-range row: vector leaf took %d of %d cells", took, len(row))
		}
	}
	// A max away from zero: s − mx is formed in the lane as well.
	for n := 0; n < 1<<14; n += len(row) {
		mx := rng.NormFloat64() * 50
		for j := range row {
			row[j] = mx + inRange()
		}
		expLeaf(t, row)
	}

	// Edge arguments in every lane position of two groups, the max pinned at
	// +0 by a ninth cell. The leaf must stop before the group holding a lane
	// outside [−708, 0]. s − max is never above 0 for a finite max; NaN
	// arrives as a NaN cell or as +Inf − +Inf.
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
		{math.Inf(-1), false},
		{math.NaN(), false},
	}
	short := make([]float64, 9)
	for _, e := range edges {
		for pos := range 8 {
			for j := range short {
				short[j] = inRange()
			}
			short[pos], short[8] = e.x, 0
			want := 8
			if !e.in {
				want = pos &^ 3
			}
			if took := expLeaf(t, short); took != want {
				t.Fatalf("edge %v at cell %d: vector leaf took %d cells, want %d", e.x, pos, took, want)
			}
		}
	}
	// ±0 maxima in every pair of lanes: the leaf may keep either sign.
	for a := range 8 {
		for b := range 8 {
			if a == b {
				continue
			}
			for j := range short {
				short[j] = inRange()
			}
			short[a], short[b] = 0, math.Copysign(0, -1)
			expLeaf(t, short)
		}
	}
	// A +Inf cell: every other argument is −Inf, its own is NaN.
	short[3] = math.Inf(1)
	if took := expLeaf(t, short); took != 0 {
		t.Fatalf("+Inf max: vector leaf took %d cells, want 0", took)
	}

	// Lengths around the group size and the benchmark's 48 keys: the cells
	// past the last whole group are math.Exp's.
	for _, n := range []int{0, 1, 3, 4, 5, 47, 48, 49} {
		r := make([]float64, n)
		for j := range r {
			r[j] = inRange()
		}
		if took := expLeaf(t, r); took != n&^3 {
			t.Fatalf("row of %d: vector leaf took %d cells, want %d", n, took, n&^3)
		}
	}
}

// logBoth runs the log leaf directly and LogRow on both paths over copies of
// row, and fails on the first cell that is not math.Log's bits; it returns
// how many leading cells the leaf took.
func logBoth(t *testing.T, row []float64) int {
	t.Helper()
	leaf := append([]float64(nil), row...)
	took := logRows4(leaf)
	got := append([]float64(nil), row...)
	LogRow(got)
	scalar := append([]float64(nil), row...)
	scalarly(func() { LogRow(scalar) })
	for j, x := range row {
		want := math.Float64bits(math.Log(x))
		if j < took && math.Float64bits(leaf[j]) != want {
			t.Fatalf("log(%v) (%#x) at cell %d of %d: leaf %#x, math.Log %#x",
				x, math.Float64bits(x), j, len(row), math.Float64bits(leaf[j]), want)
		}
		if math.Float64bits(got[j]) != want || math.Float64bits(scalar[j]) != want {
			t.Fatalf("log(%v) at cell %d of %d: LogRow %#x, Go loop %#x, math.Log %#x",
				x, j, len(row), math.Float64bits(got[j]), math.Float64bits(scalar[j]), want)
		}
	}
	return took
}

// TestPackedLogMatchesMathLog drives the Grimshaw scan's logarithm — a
// replica of math.archLog, like the exp of math.archExp — against math.Log
// itself. The leaf uses AVX2 alone, no FMA, so it is exercised wherever the
// CPU has it, whether or not the exp self-check left the dispatch on (under
// GODEBUG=cpu.fma=off it does not, and LogRow is the Go loop).
func TestPackedLogMatchesMathLog(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip(noVector)
	}
	t.Logf("useVector=%v", useVector)
	rng := rand.New(rand.NewSource(44))
	minNormal := math.Float64frombits(1 << 52)
	const ulp = 0x1p-52
	normal := func() float64 {
		// A random bit pattern with the sign cleared and the exponent field
		// drawn from the normal range: every mantissa bit in play.
		bits := rng.Uint64()&(1<<52-1) | uint64(1+rng.Intn(2046))<<52
		return math.Float64frombits(bits)
	}
	near := func() float64 {
		switch rng.Intn(4) {
		case 0: // a few ulps either side of 1
			return 1 + float64(rng.Intn(65)-32)*ulp
		case 1: // 1 ± 2⁻ᵏ
			return 1 + math.Copysign(math.Ldexp(1, -1-rng.Intn(52)), rng.Float64()-0.5)
		case 2: // an exact √2/2·2ᵏ tie, or a neighbour of one
			x := math.Ldexp(math.Sqrt2/2, rng.Intn(2045)-1021)
			return math.Float64frombits(math.Float64bits(x) + uint64(rng.Intn(3)) - 1)
		default: // the least normals
			return math.Float64frombits(1<<52 + uint64(rng.Intn(1<<20)))
		}
	}

	// ≥ 10⁶ arguments, whole rows on the leaf.
	row := make([]float64, 48)
	for n := 0; n < 1<<20; n += len(row) {
		for j := range row {
			if j%4 == 0 && rng.Intn(2) == 0 {
				row[j] = near()
			} else {
				row[j] = normal()
			}
		}
		if took := logBoth(t, row); took != len(row) {
			t.Fatalf("normal row: leaf took %d of %d cells", took, len(row))
		}
	}
	// Every exact √2/2·2ᵏ: on this tie archLog's !(√2/2 < f1) takes the
	// k − 1 branch, where the portable log's f1 < √2/2 does not.
	for k := -1021; k <= 1024; k += len(row) {
		for j := range row {
			row[j] = math.Ldexp(math.Sqrt2/2, min(k+j, 1024))
		}
		if took := logBoth(t, row); took != len(row) {
			t.Fatalf("√2/2·2ᵏ row from k = %d: leaf took %d of %d cells", k, took, len(row))
		}
	}

	// Edge arguments in every lane position of a row of two groups. The leaf
	// must stop before the group holding a lane that is not a finite,
	// positive, normal number.
	edges := []struct {
		x  float64
		in bool
	}{
		{minNormal, true},
		{math.Nextafter(minNormal, 1), true},
		{math.MaxFloat64, true},
		{1, true},
		{math.Sqrt2 / 2, true},
		{math.Nextafter(minNormal, 0), false}, // the greatest subnormal
		{5e-324, false},
		{0, false},
		{math.Copysign(0, -1), false},
		{-1, false},
		{-minNormal, false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{math.NaN(), false},
	}
	short := make([]float64, 8)
	for _, e := range edges {
		for pos := range short {
			for j := range short {
				short[j] = normal()
			}
			short[pos] = e.x
			want := len(short)
			if !e.in {
				want = pos &^ 3
			}
			if took := logBoth(t, short); took != want {
				t.Fatalf("edge %v at cell %d: leaf took %d cells, want %d", e.x, pos, took, want)
			}
		}
	}

	// Lengths around the group size: the cells past the last whole group are
	// math.Log's.
	for _, n := range []int{0, 1, 3, 4, 5, 63, 64, 65} {
		r := make([]float64, n)
		for j := range r {
			r[j] = normal()
		}
		if took := logBoth(t, r); took != n&^3 {
			t.Fatalf("row of %d: leaf took %d cells, want %d", n, took, n&^3)
		}
	}
}

// TestVectorPathSelfCheck pins the dispatch to its self-checks. In process,
// useVector is exactly the CPUID probe and both replicas' table checks, and
// on an AVX2+FMA host both tables pass. In a child under GODEBUG=cpu.fma=off
// the exp check alone fails, which must turn the whole vector path off —
// LogRow included — while the log leaf, free of FMA, still matches
// math.Log.
func TestVectorPathSelfCheck(t *testing.T) {
	probe := cpuHasAVX2FMA()
	if want := probe && packedExpMatchesMathExp() && packedLogMatchesMathLog(); useVector != want {
		t.Fatalf("useVector = %v, self-checks say %v", useVector, want)
	}
	if !probe {
		t.Skip(noVector)
	}
	// exp(−0.1875) ends in …7b on math.Exp's FMA path and …7c off it. On
	// the FMA path the softmax leaf must pass its self-check: a leaf that
	// broke it would otherwise only turn the vector path off, and every
	// vector subtest would skip rather than fail.
	if math.Float64bits(math.Exp(-0.1875)) == 0x3fea876812c0877b && !packedExpMatchesMathExp() {
		t.Fatal("math.Exp takes its FMA path, but the softmax leaf does not reproduce it on its self-check table")
	}
	if !packedLogMatchesMathLog() {
		t.Fatal("the packed log does not reproduce math.Log on its self-check table")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestPackedLogMatchesMathLog$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child under GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
	for _, want := range []string{"useVector=false", "--- PASS: TestPackedLogMatchesMathLog"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("child under GODEBUG=cpu.fma=off did not print %q:\n%s", want, out)
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
