package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndZero(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("New must zero-initialize")
		}
	}
}

func TestFromSliceAndAt(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("At wrong: %v %v", m.At(0, 2), m.At(1, 0))
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Fatal("FromRows layout wrong")
	}
}

func TestEyeAndMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Randn(4, 4, 1, rng)
	i4 := New(4, 4)
	for i := 0; i < 4; i++ {
		i4.Set(i, i, 1)
	}
	if !Equal(a.MatMul(i4), a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Equal(i4.MatMul(a), a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := a.MatMul(b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(c, want, 1e-12) {
		t.Fatalf("matmul got %v want %v", c.Data, want.Data)
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	New(2, 3).MatMul(New(2, 2))
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Randn(5, 7, 1, rng)
	b := Randn(4, 7, 1, rng)
	// a·bᵀ via dedicated kernel vs explicit transpose
	if !Equal(a.MatMulT(b), a.MatMul(b.T()), 1e-10) {
		t.Fatal("MatMulT mismatch")
	}
	c := Randn(5, 3, 1, rng)
	if !Equal(a.TMatMul(c), a.T().MatMul(c), 1e-10) {
		t.Fatal("TMatMul mismatch")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := Randn(r, c, 1, rng)
		return Equal(a.T().T(), a, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransposeIdentityProperty(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		return Equal(a.MatMul(b).T(), b.T().MatMul(a.T()), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScaleAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(5), 1+rng.Intn(5)
		a := Randn(r, c, 1, rng)
		b := Randn(r, c, 1, rng)
		// (a+b)-b == a ; 2a == a+a
		if !Equal(a.Add(b).Sub(b), a, 1e-12) {
			return false
		}
		return Equal(a.Scale(2), a.Add(a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceAndConcatRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(4, 6, 1, rng)
	left := a.SliceCols(0, 2)
	right := a.SliceCols(2, 6)
	if !Equal(ConcatCols(left, right), a, 0) {
		t.Fatal("col slice+concat roundtrip failed")
	}
}

func TestReductions(t *testing.T) {
	m := FromSlice(2, 2, []float64{-1, 2, -3, 4})
	if m.Sum() != 2 || m.Mean() != 0.5 {
		t.Fatalf("sum/mean wrong: %v %v", m.Sum(), m.Mean())
	}
	if m.Max() != 4 || m.Min() != -3 {
		t.Fatal("max/min wrong")
	}
	if !almostEq(m.Norm(), math.Sqrt(1+4+9+16), 1e-12) {
		t.Fatal("norm wrong")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestUniformBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Uniform(10, 10, -2, 3, rng)
	for _, v := range m.Data {
		if v < -2 || v >= 3 {
			t.Fatalf("uniform out of bounds: %v", v)
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(64, 64, 1, rng)
	y := Randn(64, 64, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(256, 256, 1, rng)
	y := Randn(256, 256, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.MatMul(y)
	}
}

// The matmul family as it stood before it ran on the row kernels: one output
// cell at a time, verbatim. These loops are the oracle for the operation
// order every cell must keep — which products, in which order, which skipped,
// what the sum starts from — independent of the leaves the kernels now share
// with nn's row forms.

func matMulRef(m, o, out *Dense) {
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			brow := o.Data[k*o.Cols : (k+1)*o.Cols]
			for j, bv := range brow {
				orow[j] += mv * bv
			}
		}
	}
}

func matMulTRef(m, o, out *Dense) {
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := 0; j < o.Rows; j++ {
			orow := o.Data[j*o.Cols : (j+1)*o.Cols]
			var s float64
			for k, mv := range mrow {
				s += mv * orow[k]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
}

func matMulAddRef(m, o, out *Dense) {
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < out.Cols; j++ {
			var s float64
			for k, mv := range mrow {
				if mv == 0 {
					continue
				}
				s += mv * o.Data[k*o.Cols+j]
			}
			orow[j] += s
		}
	}
}

func matMulTAddRef(m, o, out *Dense) {
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := 0; j < o.Rows; j++ {
			orow := o.Data[j*o.Cols : (j+1)*o.Cols]
			var s float64
			for k, mv := range mrow {
				s += mv * orow[k]
			}
			out.Data[i*out.Cols+j] += s
		}
	}
}

func tMatMulAddRef(m, o, out *Dense) {
	for i := 0; i < m.Cols; i++ {
		dst := out.Data[i*out.Cols : (i+1)*out.Cols]
		for j := 0; j < o.Cols; j++ {
			var s float64
			for k := 0; k < m.Rows; k++ {
				mv := m.Data[k*m.Cols+i]
				if mv == 0 {
					continue
				}
				s += mv * o.Data[k*o.Cols+j]
			}
			dst[j] += s
		}
	}
}

func tMatMulRef(m, o, out *Dense) {
	for k := 0; k < m.Rows; k++ {
		mrow := m.Data[k*m.Cols : (k+1)*m.Cols]
		orow := o.Data[k*o.Cols : (k+1)*o.Cols]
		for i, mv := range mrow {
			if mv == 0 {
				continue
			}
			dst := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, ov := range orow {
				dst[j] += mv * ov
			}
		}
	}
}

// matMulFamily lists the six kernels beside their references. Each computes
// an R×C output over an inner dimension K from a left operand R×K (K×R when
// tLeft) and a right operand K×C (C×K when tRight); accumulates says whether
// out's prior content is part of the result (the others overwrite it or
// require it zeroed).
var matMulFamily = []struct {
	name          string
	tLeft, tRight bool
	accumulates   bool
	kernel, ref   func(m, o, out *Dense)
}{
	{"MatMulInto", false, false, false, (*Dense).MatMulInto, matMulRef},
	{"MatMulTInto", false, true, false, (*Dense).MatMulTInto, matMulTRef},
	{"MatMulAddInto", false, false, true, (*Dense).MatMulAddInto, matMulAddRef},
	{"MatMulTAddInto", false, true, true, (*Dense).MatMulTAddInto, matMulTAddRef},
	{"TMatMulAddInto", true, false, true, (*Dense).TMatMulAddInto, tMatMulAddRef},
	{"TMatMul", true, false, false, func(m, o, out *Dense) { out.CopyFrom(m.TMatMul(o)) }, tMatMulRef},
}

// sameBits reports the first index at which two rows differ in any bit.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestMatMulFamilyMatchesReference holds the six kernels to their references
// bit for bit, on both kernel paths, over shapes on both sides of every block,
// lane group and stack chunk. The plain fill sprinkles ±0 over both operands
// (the skip is taken, and not taken where the reference has none); the
// special fill adds NaN and ±Inf to both, so a skipped coefficient is the
// difference between a finite cell and a NaN. Every NaN in play has the one
// bit pattern x86 itself produces (see TestVectorKernelsSpecialValues).
func TestMatMulFamilyMatchesReference(t *testing.T) {
	eachKernelPath(t, testMatMulFamilyMatchesReference)
}

func testMatMulFamilyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	nan := math.Float64frombits(0xfff8_0000_0000_0000)
	special := []float64{nan, math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64}
	fill := func(rows, cols int, pSpecial float64) *Dense {
		d := Randn(rows, cols, 1, rng)
		for i := range d.Data {
			switch p := rng.Float64(); {
			case p < 0.1:
				d.Data[i] = 0
			case p < 0.2:
				d.Data[i] = math.Copysign(0, -1)
			case p < 0.2+pSpecial:
				d.Data[i] = special[rng.Intn(len(special))]
			}
		}
		return d
	}
	for _, r := range []int{1, 3, 4, 5, 48} {
		for _, k := range []int{0, 1, 7, 8, 48, 300} {
			for _, c := range []int{1, 5, 8, 12, 16, 33, 64, 65, 130} {
				for _, pSpecial := range []float64{0, 0.05} {
					for _, f := range matMulFamily {
						m, o := fill(r, k, pSpecial), fill(k, c, pSpecial)
						if f.tLeft {
							m = fill(k, r, pSpecial)
						}
						if f.tRight {
							o = fill(c, k, pSpecial)
						}
						got := New(r, c)
						if f.accumulates {
							got = fill(r, c, 0)
						}
						want := got.Clone()
						f.kernel(m, o, got)
						f.ref(m, o, want)
						if i, ok := sameBits(got.Data, want.Data); !ok {
							t.Fatalf("%s %dx%d over k=%d (special %v) cell (%d,%d): kernel %#x != reference %#x",
								f.name, r, c, k, pSpecial > 0, i/c, i%c, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// applyRowRef and softmaxRowRef are a projection row and a softmax row as
// they stood before their leaves were fused, verbatim and on the Go loops:
// Linear.ApplyRow's zeroed row, AddScaledRows and bias, then FFN.ApplyRow's
// ReLU; AttendRow's max loop, then the bodies of ExpSumRow and DivideRow.

func applyRowRef(dst, x, rows []float64, stride int, bias []float64, relu bool) {
	for j := range dst {
		dst[j] = 0
	}
	scalarly(func() { AddScaledRows(dst, x, rows, stride) })
	if bias != nil {
		for j, bv := range bias[:len(dst)] {
			dst[j] += bv
		}
	}
	if relu {
		for j, v := range dst {
			if !(v > 0) {
				dst[j] = 0
			}
		}
	}
}

func softmaxRowRef(row []float64) {
	mx := math.Inf(-1)
	for _, s := range row {
		if s > mx {
			mx = s
		}
	}
	var sum float64
	for j := range row {
		e := math.Exp(row[j] - mx)
		row[j] = e
		sum += e
	}
	for j := range row {
		row[j] /= sum
	}
}

// TestAffineRowMatchesReference holds the fused projection to applyRowRef bit
// for bit on both kernel paths: every output width 0–70 (each side of the
// leaf's 8- and 16-cell blocks), inputs 0–33 wide, strides wider than the
// row, with and without bias and ReLU, over a destination holding garbage.
// The plain fill sprinkles ±0 over x (the skip), W and the bias; the special
// fill adds NaN, ±Inf, 5e−324 and MaxFloat64 to all three, so a dropped skip
// turns 0·Inf into NaN, and NaN and overflowing sums reach the ReLU. Every NaN
// in play has the one bit pattern x86 itself produces (see
// TestVectorKernelsSpecialValues).
func TestAffineRowMatchesReference(t *testing.T) { eachKernelPath(t, testAffineRowMatchesReference) }

func testAffineRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	nan := math.Float64frombits(0xfff8_0000_0000_0000)
	special := []float64{nan, math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64}
	fill := func(n int, pSpecial float64) []float64 {
		d := make([]float64, n)
		for i := range d {
			switch p := rng.Float64(); {
			case p < 0.1:
				d[i] = 0
			case p < 0.2:
				d[i] = math.Copysign(0, -1)
			case p < 0.2+pSpecial:
				d[i] = special[rng.Intn(len(special))]
			default:
				d[i] = rng.NormFloat64()
			}
		}
		return d
	}
	for width := 0; width <= 70; width++ {
		for _, in := range []int{0, 1, 3, 16, 33} {
			for _, pSpecial := range []float64{0, 0.05} {
				for _, pad := range []int{0, 3} {
					stride := width + pad
					x := fill(in, pSpecial)
					rows := fill(max(in*stride, 1), pSpecial)
					for _, bias := range [][]float64{nil, fill(width, pSpecial)} {
						for _, relu := range []bool{false, true} {
							want := make([]float64, width)
							applyRowRef(want, x, rows, stride, bias, relu)
							got := fill(width, 0.3)
							AffineRow(got, x, rows, stride, bias, relu)
							if j, ok := sameBits(got, want); !ok {
								t.Fatalf("width %d in %d stride %d (special %v, bias %v, relu %v) cell %d: AffineRow %#x != reference %#x",
									width, in, stride, pSpecial > 0, bias != nil, relu, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
							}
						}
					}
				}
			}
		}
	}
}

// TestDotColsMatchesReference holds the column-dot score leaf to a scalar
// loop — each logical key's dot product from +0 in ascending dimension, no
// zero-skip, scaled after the sum — bit for bit on both kernel paths. The
// keys sit key-major in a ring, and every query is scored the way AttendRows
// scores it: its band (the whole ring, or ±1 and ±2 around every position)
// read as at most two runs of slots, for every ring head. Ring lengths and
// head dimensions that are not multiples of 4 or 8 reach every block and
// the masked tail; NaN and ±Inf keys meet ±0 query cells, where a skip
// would have hidden a NaN.
func TestDotColsMatchesReference(t *testing.T) { eachKernelPath(t, testDotColsMatchesReference) }

func testDotColsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	nan := math.Float64frombits(0xfff8_0000_0000_0000)
	special := []float64{nan, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	pick := func(pSpecial float64) float64 {
		if rng.Float64() < pSpecial {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	for _, slots := range []int{1, 3, 5, 8, 9, 16, 17, 21, 24, 35, 40} {
		for _, dk := range []int{1, 3, 4, 5, 8, 13} {
			keys := make([]float64, dk*slots) // key-major: dimension c of slot p at keys[c*slots+p]
			for i := range keys {
				keys[i] = pick(0.05)
			}
			q := make([]float64, dk)
			for i := range q {
				if q[i] = pick(0); rng.Intn(4) == 0 {
					q[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
			}
			scale := 1 / math.Sqrt(float64(dk))
			want, got := make([]float64, slots), make([]float64, slots)
			check := func(head, jlo, jhi int) {
				n := jhi - jlo
				for j := jlo; j < jhi; j++ {
					p := (head + j) % slots
					var s float64
					for c, qv := range q {
						s += qv * keys[c*slots+p]
					}
					want[j-jlo] = s * scale
				}
				p0 := (head + jlo) % slots
				n1 := min(n, slots-p0)
				DotCols(got[:n1], q, keys[p0:], slots, scale)
				DotCols(got[n1:n], q, keys, slots, scale)
				if j, ok := sameBits(got[:n], want[:n]); !ok {
					t.Fatalf("slots %d dk %d head %d keys [%d, %d) key %d: DotCols %#x != reference %#x",
						slots, dk, head, jlo, jhi, jlo+j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
			for head := 0; head < slots; head++ {
				check(head, 0, slots)
				for _, band := range []int{1, 2} {
					for qPos := 0; qPos < slots; qPos++ {
						check(head, max(qPos-band, 0), min(qPos+band+1, slots))
					}
				}
			}
		}
	}
}

// TestAffineRowsMatchesReference holds the multi-row projection to
// applyRowRef row by row, bit for bit on both kernel paths, for 0–9 rows,
// widths on each side of the leaf's blocks, ReLU on and off, and the residual
// form — the row's sum plus bias, then plus the value the destination held —
// over operands holding ±0, NaN, ±Inf and overflowing values.
func TestAffineRowsMatchesReference(t *testing.T) { eachKernelPath(t, testAffineRowsMatchesReference) }

func testAffineRowsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	nan := math.Float64frombits(0xfff8_0000_0000_0000)
	special := []float64{nan, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64}
	fill := func(n int, pSpecial float64) []float64 {
		d := make([]float64, n)
		for i := range d {
			if d[i] = rng.NormFloat64(); rng.Float64() < pSpecial {
				d[i] = special[rng.Intn(len(special))]
			}
		}
		return d
	}
	for n := 0; n <= 9; n++ {
		for _, in := range []int{1, 3, 16, 33} {
			for _, out := range []int{1, 5, 8, 16, 19, 32} {
				for _, pSpecial := range []float64{0, 0.05} {
					x, w, bias := fill(n*in, pSpecial+0.1), fill(in*out, pSpecial), fill(out, pSpecial)
					for _, relu := range []bool{false, true} {
						for _, residual := range []bool{false, true} {
							old := fill(n*out, pSpecial)
							want := make([]float64, n*out)
							for i := range n {
								row := want[i*out : (i+1)*out]
								applyRowRef(row, x[i*in:(i+1)*in], w, out, bias, false)
								for j := range row {
									if residual {
										row[j] += old[i*out+j]
									}
									if relu && !(row[j] > 0) {
										row[j] = 0
									}
								}
							}
							got := append([]float64(nil), old...)
							AffineRows(got, x, w, n, in, bias, relu, residual)
							if j, ok := sameBits(got, want); !ok {
								t.Fatalf("%d rows %d -> %d (special %v, relu %v, residual %v) cell %d: AffineRows %#x != reference %#x",
									n, in, out, pSpecial > 0, relu, residual, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
							}
						}
					}
				}
			}
		}
	}
}

// TestSoftmaxRowMatchesReference holds the fused softmax to softmaxRowRef bit
// for bit on both kernel paths, widths 0–70, over rows of random values; rows
// holding −Inf, +Inf or NaN cells; rows of equal values; a +0 and a −0
// maximum in every pair of lanes of the first two groups; arguments below
// −708 (subnormal and zero exponentials) scattered mid-row; and the rows of a
// −1e9 causal mask.
func TestSoftmaxRowMatchesReference(t *testing.T) { eachKernelPath(t, testSoftmaxRowMatchesReference) }

func testSoftmaxRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	nan := math.Float64frombits(0xfff8_0000_0000_0000)
	check := func(what string, row []float64) {
		t.Helper()
		want := append([]float64(nil), row...)
		softmaxRowRef(want)
		got := append([]float64(nil), row...)
		SoftmaxRow(got)
		if j, ok := sameBits(got, want); !ok {
			t.Fatalf("%s, width %d, cell %d: SoftmaxRow %#x != reference %#x",
				what, len(row), j, math.Float64bits(got[j]), math.Float64bits(want[j]))
		}
	}
	randRow := func(n int) []float64 {
		row := make([]float64, n)
		for j := range row {
			row[j] = 3 * rng.NormFloat64()
		}
		return row
	}
	for width := 0; width <= 70; width++ {
		for range 4 {
			check("random", randRow(width))
		}
		if width == 0 {
			continue
		}
		for _, v := range []float64{math.Inf(-1), math.Inf(1), nan} {
			row := randRow(width)
			row[rng.Intn(width)] = v
			check(fmt.Sprintf("a %v cell", v), row)
		}
		row := make([]float64, width)
		for j := range row {
			row[j] = -2.5
		}
		check("equal", row)
		deep := randRow(width) // most cells stay near the row's maximum
		for j := range deep {
			switch rng.Intn(5) {
			case 0:
				deep[j] -= 708 + 40*rng.Float64() // subnormal, then zero from −745
			case 1:
				deep[j] = -708 + deep[j]*1e-3
			}
		}
		check("below −708", deep)
		causal := randRow(width)
		for j := rng.Intn(width) + 1; j < width; j++ {
			causal[j] -= 1e9
		}
		check("causal mask", causal)
	}
	for a := range 8 {
		for b := range 8 {
			for _, width := range []int{8, 9, 12} {
				if a == b {
					continue
				}
				row := randRow(width)
				for j := range row {
					row[j] = -math.Abs(row[j]) - 1
				}
				row[a], row[b] = 0, math.Copysign(0, -1)
				check(fmt.Sprintf("+0 at %d, −0 at %d", a, b), row)
			}
		}
	}
}

// Working numbers for the family at the serving benchmark's training shapes
// (bench/workloads.go: 48-step windows, model width 16, 2 heads of 8, FFN
// hidden 32), on both paths. MAC/ns counts multiply-adds only; no claim rests
// on these.
func BenchmarkMatMulFamily(b *testing.B) {
	rng := rand.New(rand.NewSource(52))
	for _, bc := range []struct {
		name       string
		m, o, out  *Dense
		macs       int
		kernel     func(m, o, out *Dense)
		zeroBefore bool
	}{
		{"MatMulInto/48x16·16x16", Randn(48, 16, 1, rng), Randn(16, 16, 1, rng), New(48, 16), 48 * 16 * 16, (*Dense).MatMulInto, true},
		{"MatMulInto/48x16·16x32", Randn(48, 16, 1, rng), Randn(16, 32, 1, rng), New(48, 32), 48 * 16 * 32, (*Dense).MatMulInto, true},
		{"MatMulTInto/48x8·(48x8)ᵀ", Randn(48, 8, 1, rng), Randn(48, 8, 1, rng), New(48, 48), 48 * 8 * 48, (*Dense).MatMulTInto, false},
		{"MatMulInto/48x48·48x8", Randn(48, 48, 1, rng), Randn(48, 8, 1, rng), New(48, 8), 48 * 48 * 8, (*Dense).MatMulInto, true},
		{"MatMulAddInto/48x48·48x8", Randn(48, 48, 1, rng), Randn(48, 8, 1, rng), New(48, 8), 48 * 48 * 8, (*Dense).MatMulAddInto, false},
		{"MatMulTAddInto/48x16·(16x16)ᵀ", Randn(48, 16, 1, rng), Randn(16, 16, 1, rng), New(48, 16), 48 * 16 * 16, (*Dense).MatMulTAddInto, false},
		{"TMatMulAddInto/(48x16)ᵀ·48x16", Randn(48, 16, 1, rng), Randn(48, 16, 1, rng), New(16, 16), 48 * 16 * 16, (*Dense).TMatMulAddInto, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eachKernelPath(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if bc.zeroBefore {
						bc.out.Zero()
					}
					bc.kernel(bc.m, bc.o, bc.out)
				}
				ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				b.ReportMetric(float64(bc.macs)/ns, "MAC/ns")
			})
		})
	}
}
