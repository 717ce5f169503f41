// Package tensor provides dense row-major float64 matrices and the small
// set of BLAS-like kernels the rest of the library is built on.
//
// The package is deliberately minimal: a Dense value is a shape plus a flat
// backing slice, every operation is explicit about allocation, and nothing
// here starts a goroutine. The matrix products are row loops over the row
// kernels (rowkernel.go), which the layers above also call directly. All
// higher-level semantics (autodiff, layers) live above it.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a dense row-major matrix. A Dense with Rows == 1 doubles as a
// vector. The zero value is an empty matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (not copied) as an r×c matrix.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// FromRows builds a matrix by copying the given equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Randn returns an r×c matrix of N(0, std²) samples drawn from rng.
func Randn(r, c int, std float64, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// Uniform returns an r×c matrix of U(lo, hi) samples drawn from rng.
func Uniform(r, c int, lo, hi float64, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m; shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	m.assertSameShape(src)
	copy(m.Data, src.Data)
}

// Zero resets all elements to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Dense) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Dense) SameShape(o *Dense) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Dense) assertSameShape(o *Dense) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// String implements fmt.Stringer with a compact preview.
func (m *Dense) String() string {
	return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols)
}

// Add returns m + o.
func (m *Dense) Add(o *Dense) *Dense {
	m.assertSameShape(o)
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + o.Data[i]
	}
	return out
}

// AddInPlace sets m = m + o and returns m.
func (m *Dense) AddInPlace(o *Dense) *Dense {
	m.assertSameShape(o)
	for i := range m.Data {
		m.Data[i] += o.Data[i]
	}
	return m
}

// AddScaled sets m = m + s*o and returns m.
func (m *Dense) AddScaled(s float64, o *Dense) *Dense {
	m.assertSameShape(o)
	for i := range m.Data {
		m.Data[i] += s * o.Data[i]
	}
	return m
}

// Sub returns m - o.
func (m *Dense) Sub(o *Dense) *Dense {
	m.assertSameShape(o)
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - o.Data[i]
	}
	return out
}

// Scale returns s * m.
func (m *Dense) Scale(s float64) *Dense {
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// ScaleInPlace sets m = s*m and returns m.
func (m *Dense) ScaleInPlace(s float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// MatMul returns m · o.
func (m *Dense) MatMul(o *Dense) *Dense {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := New(m.Rows, o.Cols)
	m.matMulInto(o, out)
	return out
}

// MatMulInto computes out = m · o into the caller-supplied buffer, which
// must be zeroed (as Arena.Get and New guarantee) and shaped Rows×o.Cols.
// It allows hot paths to reuse output buffers instead of allocating.
func (m *Dense) MatMulInto(o, out *Dense) {
	if m.Cols != o.Rows || out.Rows != m.Rows || out.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: matmul-into shape mismatch %dx%d · %dx%d -> %dx%d",
			m.Rows, m.Cols, o.Rows, o.Cols, out.Rows, out.Cols))
	}
	m.matMulInto(o, out)
}

// MatMulTInto computes out = m · oᵀ into the caller-supplied buffer
// (shape m.Rows×o.Rows) without materialising the transpose. Unlike
// MatMulInto, out need not be zeroed: every cell is overwritten.
func (m *Dense) MatMulTInto(o, out *Dense) {
	if m.Cols != o.Cols || out.Rows != m.Rows || out.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: matmulT-into shape mismatch %dx%d · (%dx%d)ᵀ -> %dx%d",
			m.Rows, m.Cols, o.Rows, o.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		DotRows(out.Row(i), m.Row(i), o.Data, o.Cols, 1)
	}
}

// matMulInto computes out = m · o, assuming out is zeroed and correctly
// sized: each cell's products summed in ascending k, skipping m's zeros,
// continuing from the zeroed cell.
func (m *Dense) matMulInto(o, out *Dense) {
	for i := 0; i < m.Rows; i++ {
		AddScaledRows(out.Row(i), m.Row(i), o.Data, o.Cols)
	}
}

// MatMulT returns m · oᵀ without materialising the transpose.
func (m *Dense) MatMulT(o *Dense) *Dense {
	out := New(m.Rows, o.Rows)
	m.MatMulTInto(o, out)
	return out
}

// The accumulating kernels form each output row's products from zero in a
// fixed stack buffer and add the buffer into out once, which is the per-cell
// "dot product in k order, then the single add" that keeps them bit-identical
// to the product followed by AddInPlace. Outputs wider than sumChunk walk the
// buffer across the row, and TMatMul's strided left operand is gathered
// gatherChunk coefficients at a time, so no shape allocates.
const (
	sumChunk    = 64
	gatherChunk = 256
)

// addInto adds sums into the equally long dst.
func addInto(dst, sums []float64) {
	for j, s := range sums {
		dst[j] += s
	}
}

// MatMulAddInto computes out += m · o into the caller-supplied buffer.
// It is the accumulating kernel the gradient replay path is built on:
// backward steps add into existing gradient buffers instead of
// materialising a product and then summing it.
func (m *Dense) MatMulAddInto(o, out *Dense) {
	if m.Cols != o.Rows || out.Rows != m.Rows || out.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: matmul-add-into shape mismatch %dx%d · %dx%d -> %dx%d",
			m.Rows, m.Cols, o.Rows, o.Cols, out.Rows, out.Cols))
	}
	var buf [sumChunk]float64
	for i := 0; i < m.Rows; i++ {
		mrow, orow := m.Row(i), out.Row(i)
		for j := 0; j < len(orow); j += sumChunk {
			sums := buf[:min(sumChunk, len(orow)-j)]
			clear(sums)
			AddScaledRows(sums, mrow, o.Data[min(j, len(o.Data)):], o.Cols) // o is empty when k is 0
			addInto(orow[j:], sums)
		}
	}
}

// MatMulTAddInto computes out += m · oᵀ without materialising the
// transpose or a temporary product.
func (m *Dense) MatMulTAddInto(o, out *Dense) {
	if m.Cols != o.Cols || out.Rows != m.Rows || out.Cols != o.Rows {
		panic(fmt.Sprintf("tensor: matmulT-add-into shape mismatch %dx%d · (%dx%d)ᵀ -> %dx%d",
			m.Rows, m.Cols, o.Rows, o.Cols, out.Rows, out.Cols))
	}
	var buf [sumChunk]float64
	for i := 0; i < m.Rows; i++ {
		mrow, orow := m.Row(i), out.Row(i)
		for j := 0; j < len(orow); j += sumChunk {
			sums := buf[:min(sumChunk, len(orow)-j)]
			DotRows(sums, mrow, o.Data[j*o.Cols:], o.Cols, 1)
			addInto(orow[j:], sums)
		}
	}
}

// gatherCol copies m[k0+k][col] into coef[k] for every k: a run of one column
// of m as the contiguous coefficient row AddScaledRows takes.
func gatherCol(coef []float64, m *Dense, col, k0 int) {
	at := k0*m.Cols + col
	for k := range coef {
		coef[k] = m.Data[at]
		at += m.Cols
	}
}

// TMatMulAddInto computes out += mᵀ · o without materialising the
// transpose or a temporary product.
func (m *Dense) TMatMulAddInto(o, out *Dense) {
	if m.Rows != o.Rows || out.Rows != m.Cols || out.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: tmatmul-add-into shape mismatch (%dx%d)ᵀ · %dx%d -> %dx%d",
			m.Rows, m.Cols, o.Rows, o.Cols, out.Rows, out.Cols))
	}
	var buf [sumChunk]float64
	var col [gatherChunk]float64
	for i := 0; i < m.Cols; i++ {
		orow := out.Row(i)
		for j := 0; j < len(orow); j += sumChunk {
			sums := buf[:min(sumChunk, len(orow)-j)]
			clear(sums)
			for k := 0; k < m.Rows; k += gatherChunk {
				coef := col[:min(gatherChunk, m.Rows-k)]
				gatherCol(coef, m, i, k)
				AddScaledRows(sums, coef, o.Data[k*o.Cols+j:], o.Cols)
			}
			addInto(orow[j:], sums)
		}
	}
}

// TMatMul returns mᵀ · o without materialising the transpose.
func (m *Dense) TMatMul(o *Dense) *Dense {
	if m.Rows != o.Rows {
		panic(fmt.Sprintf("tensor: tmatmul shape mismatch (%dx%d)ᵀ · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	out := New(m.Cols, o.Cols)
	var col [gatherChunk]float64
	for i := 0; i < m.Cols; i++ {
		for k := 0; k < m.Rows; k += gatherChunk {
			coef := col[:min(gatherChunk, m.Rows-k)]
			gatherCol(coef, m, i, k)
			AddScaledRows(out.Row(i), coef, o.Data[k*o.Cols:], o.Cols)
		}
	}
	return out
}

// Sum returns the sum of all elements.
func (m *Dense) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty matrices).
func (m *Dense) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// Norm returns the Frobenius norm.
func (m *Dense) Norm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Max returns the maximum element (-Inf for empty matrices).
func (m *Dense) Max() float64 {
	mx := math.Inf(-1)
	for _, v := range m.Data {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Min returns the minimum element (+Inf for empty matrices).
func (m *Dense) Min() float64 {
	mn := math.Inf(1)
	for _, v := range m.Data {
		if v < mn {
			mn = v
		}
	}
	return mn
}

// SliceCols returns a copy of columns [lo, hi).
func (m *Dense) SliceCols(lo, hi int) *Dense {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: col slice [%d,%d) out of range for %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// ConcatCols stacks matrices horizontally.
func ConcatCols(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return New(0, 0)
	}
	rows := ms[0].Rows
	cols := 0
	for _, m := range ms {
		if m.Rows != rows {
			panic("tensor: concat cols row mismatch")
		}
		cols += m.Cols
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		dst := out.Row(i)
		at := 0
		for _, m := range ms {
			copy(dst[at:], m.Row(i))
			at += m.Cols
		}
	}
	return out
}

// Equal reports elementwise equality within tol.
func Equal(a, b *Dense, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}
