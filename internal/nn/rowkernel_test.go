package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aero/internal/ag"
	"aero/internal/tensor"
)

// The inference forward derives its rows with the row forms (ApplyRow,
// ApplyRows, attendRow) instead of tape forwards. These tests pin the contract
// those kernels advertise: fed the exact inputs, every row they produce is
// bit-identical to the corresponding row of the tape forward — no epsilon.
// Every test runs on both kernel paths (eachKernelPath) against one set of
// expected values.

func TestLinearApplyRowMatchesForward(t *testing.T) {
	eachKernelPath(t, testLinearApplyRowMatchesForward)
}

func testLinearApplyRowMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// 5 and 12 leave a remainder after the kernel's 8-column blocks; 16 is
	// the benchmark's model width.
	for _, out := range []int{5, 12, 16} {
		l := NewLinear("l", 7, out, rng)
		for j := range l.B.Value.Data {
			l.B.Value.Data[j] = rng.NormFloat64()
		}
		x := tensor.Randn(9, 7, 1, rng)
		x.Set(3, 2, 0) // the zero-skip
		tp := ag.NewTape()
		fwd := l.Forward(tp, tp.Const(x))
		dst := make([]float64, out)
		for r := 0; r < x.Rows; r++ {
			l.ApplyRow(dst, x.Row(r))
			for j, v := range dst {
				if v != fwd.Value.At(r, j) {
					t.Fatalf("out %d row %d col %d: ApplyRow %v != Forward %v", out, r, j, v, fwd.Value.At(r, j))
				}
			}
		}
	}
}

func TestLayerNormApplyRowMatchesForward(t *testing.T) {
	eachKernelPath(t, testLayerNormApplyRowMatchesForward)
}

func testLayerNormApplyRowMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ln := NewLayerNorm("ln", 8)
	// Perturb gain/bias away from identity so the test sees them applied.
	for j := range ln.Gain.Value.Data {
		ln.Gain.Value.Data[j] = 1 + 0.1*float64(j)
		ln.Bias.Value.Data[j] = 0.05 * float64(j)
	}
	x := tensor.Randn(6, 8, 2, rng)
	tp := ag.NewTape()
	out := ln.Forward(tp, tp.Const(x))
	dst := make([]float64, 8)
	for r := 0; r < x.Rows; r++ {
		ln.ApplyRows(dst, x.Row(r), 1)
		for j, v := range dst {
			if v != out.Value.At(r, j) {
				t.Fatalf("row %d col %d: ApplyRow %v != Forward %v", r, j, v, out.Value.At(r, j))
			}
		}
	}
	// The kernel documents that dst may alias x; verify in-place use.
	row := append([]float64(nil), x.Row(2)...)
	ln.ApplyRows(row, row, 1)
	for j, v := range row {
		if v != out.Value.At(2, j) {
			t.Fatalf("aliased col %d: %v != %v", j, v, out.Value.At(2, j))
		}
	}
}

func TestFFNApplyRowMatchesForward(t *testing.T) { eachKernelPath(t, testFFNApplyRowMatchesForward) }

func testFFNApplyRowMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := NewFFN("f", 6, 10, 4, rng)
	x := tensor.Randn(5, 6, 1, rng)
	tp := ag.NewTape()
	out := f.Forward(tp, tp.Const(x))
	dst := make([]float64, 4)
	hidden := make([]float64, 10)
	for r := 0; r < x.Rows; r++ {
		f.ApplyRow(dst, hidden, x.Row(r))
		for j, v := range dst {
			if v != out.Value.At(r, j) {
				t.Fatalf("row %d col %d: ApplyRow %v != Forward %v", r, j, v, out.Value.At(r, j))
			}
		}
	}
}

// attendAllRows reconstructs every output row of an attention forward with
// the row kernels (Wq.ApplyRow → attendRow → Wo.ApplyRow) and compares it
// bitwise against the tape forward's output.
func attendAllRows(t *testing.T, m *MultiHeadAttention, query, kv *tensor.Dense, square bool) {
	t.Helper()
	tp := ag.NewTape()
	if square {
		kv = query
	}
	out := m.Forward(tp, tp.Const(query), tp.Const(kv), tp.Const(kv))
	// The K/V matrices the row kernel attends over, projected the way
	// Forward projects them.
	k, v := m.Wk.Forward(tp, tp.Const(kv)), m.Wv.Forward(tp, tp.Const(kv))
	kT := k.Value.T() // attendRow's key ring is key-major
	q := make([]float64, m.Dim)
	ctx := make([]float64, m.Dim)
	dst := make([]float64, m.Dim)
	scores := make([]float64, k.Value.Rows)
	for r := 0; r < query.Rows; r++ {
		m.Wq.ApplyRow(q, query.Row(r))
		m.attendRow(ctx, scores, q, kT, v.Value, 0, r, square)
		m.Wo.ApplyRow(dst, ctx)
		for j, got := range dst {
			if got != out.Value.At(r, j) {
				t.Fatalf("row %d col %d: attendRow path %v != Forward %v (band %d, square %v)",
					r, j, got, out.Value.At(r, j), m.Band, square)
			}
		}
	}
}

func TestAttendRowMatchesForward(t *testing.T) { eachKernelPath(t, testAttendRowMatchesForward) }

func testAttendRowMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := tensor.Randn(12, 8, 1, rng)
	short := tensor.Randn(5, 8, 1, rng)
	for _, band := range []int{0, 3} {
		m := NewMultiHeadAttention("attn", 8, 2, rng)
		m.Band = band
		// Self-attention (square: the band applies when > 0).
		attendAllRows(t, m, x, nil, true)
		// Cross-attention (query and key lengths differ: band ignored).
		attendAllRows(t, m, short, x, false)
	}
}

// applyRowRef and attendRowRef are the row kernels as they stood before they
// were blocked and ring-indexed: one cell at a time through tensor.Dense.Row,
// keys in physical order. They are the oracle for the operation order every
// output cell must keep.

func applyRowRef(l *Linear, dst, x []float64) {
	w := l.W.Value
	for j := range dst {
		dst[j] = 0
	}
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		wrow := w.Row(k)
		for j, wv := range wrow {
			dst[j] += xv * wv
		}
	}
	for j, bv := range l.B.Value.Data {
		dst[j] += bv
	}
}

func attendRowRef(m *MultiHeadAttention, ctx, scores, q []float64, k, v *tensor.Dense, qPos int, square bool) {
	rows := k.Rows
	jlo, jhi := 0, rows
	if m.Band > 0 && square {
		if jlo = qPos - m.Band; jlo < 0 {
			jlo = 0
		}
		if jhi = qPos + m.Band + 1; jhi > rows {
			jhi = rows
		}
	}
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	for h := 0; h < m.Heads; h++ {
		lo := h * dk
		for j := jlo; j < jhi; j++ {
			krow := k.Row(j)
			var s float64
			for c := 0; c < dk; c++ {
				s += q[lo+c] * krow[lo+c]
			}
			scores[j] = s * scale
		}
		mx := math.Inf(-1)
		for j := jlo; j < jhi; j++ {
			if scores[j] > mx {
				mx = scores[j]
			}
		}
		var sum float64
		for j := jlo; j < jhi; j++ {
			e := math.Exp(scores[j] - mx)
			scores[j] = e
			sum += e
		}
		for c := 0; c < dk; c++ {
			ctx[lo+c] = 0
		}
		for j := jlo; j < jhi; j++ {
			p := scores[j] / sum
			if p == 0 {
				continue
			}
			vrow := v.Row(j)
			for c := 0; c < dk; c++ {
				ctx[lo+c] += p * vrow[lo+c]
			}
		}
	}
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

// sprinkleZeros sets roughly one cell in five to an exact zero (half of them
// negative zero), so both kernels' zero-skips are taken.
func sprinkleZeros(x []float64, rng *rand.Rand) {
	for i := range x {
		switch rng.Intn(10) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		}
	}
}

func TestApplyRowMatchesReference(t *testing.T) { eachKernelPath(t, testApplyRowMatchesReference) }

func testApplyRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, out := range []int{1, 5, 8, 12, 16, 33, 64} {
		for _, in := range []int{1, 7, 16, 32} {
			l := NewLinear("l", in, out, rng)
			for j := range l.B.Value.Data {
				l.B.Value.Data[j] = rng.NormFloat64()
			}
			got, want := make([]float64, out), make([]float64, out)
			for trial := 0; trial < 8; trial++ {
				x := tensor.Randn(1, in, 1, rng).Data
				sprinkleZeros(x, rng)
				applyRowRef(l, want, x)
				l.ApplyRow(got, x)
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("in %d out %d col %d: ApplyRow %v != reference %v", in, out, j, got[j], want[j])
				}
			}
		}
	}
}

// layerNormRowRef is LayerNorm.ApplyRow as it stood before the rows were
// batched, verbatim: the oracle for the operation order of every normalised
// cell.
func layerNormRowRef(l *LayerNorm, dst, x []float64) {
	gain, bias := l.Gain.Value.Data, l.Bias.Value.Data
	cols := float64(len(x))
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= cols
	var va float64
	for _, v := range x {
		d := v - mean
		va += d * d
	}
	va /= cols
	is := 1 / math.Sqrt(va+l.Eps)
	for j, v := range x {
		xh := (v - mean) * is
		dst[j] = xh*gain[j] + bias[j]
	}
}

// TestApplyRowsMatchesApplyRow holds the multi-row forms the exact window
// pass runs — Linear.ApplyRows plain and residual, FFN.ApplyRows with its
// hidden rows in one block or several, LayerNorm.ApplyRows in place and not —
// to the one-row forms (for LayerNorm, the loop it ran before it had a batch
// form) row by row, bit for bit on both kernel paths, for
// 1–9 rows (each side of the four-row LayerNorm pass).
func TestApplyRowsMatchesApplyRow(t *testing.T) { eachKernelPath(t, testApplyRowsMatchesApplyRow) }

func testApplyRowsMatchesApplyRow(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for n := 1; n <= 9; n++ {
		for _, dims := range [][2]int{{1, 16}, {16, 16}, {16, 5}, {7, 33}} {
			in, out := dims[0], dims[1]
			l := NewLinear("l", in, out, rng)
			for j := range l.B.Value.Data {
				l.B.Value.Data[j] = rng.NormFloat64()
			}
			x := tensor.Randn(n, in, 1, rng).Data
			sprinkleZeros(x, rng)
			old := tensor.Randn(n, out, 1, rng).Data
			want, row := make([]float64, n*out), make([]float64, out)
			for _, residual := range []bool{false, true} {
				for i := 0; i < n; i++ {
					l.ApplyRow(row, x[i*in:(i+1)*in])
					for j, v := range row {
						if residual {
							v += old[i*out+j]
						}
						want[i*out+j] = v
					}
				}
				got := append([]float64(nil), old...)
				l.ApplyRows(got, x, n, residual)
				if j, ok := sameBits(got, want); !ok {
					t.Fatalf("Linear %d rows %d -> %d residual %v cell %d: ApplyRows %v != ApplyRow %v", n, in, out, residual, j, got[j], want[j])
				}
			}

			f := NewFFN("f", in, 2*out, in, rng)
			hidden := make([]float64, 2*out)
			fwant, frow := make([]float64, n*in), make([]float64, in)
			for i := 0; i < n; i++ {
				f.ApplyRow(frow, hidden, x[i*in:(i+1)*in])
				for j, v := range frow {
					fwant[i*in+j] = v + x[i*in+j]
				}
			}
			for _, blockRows := range []int{1, 2, 4, n} {
				got := append([]float64(nil), x...)
				f.ApplyRows(got, make([]float64, blockRows*2*out+1), got, n, true)
				if j, ok := sameBits(got, fwant); !ok {
					t.Fatalf("FFN %d rows %d -> %d, %d a block, cell %d: ApplyRows %v != ApplyRow %v", n, in, 2*out, blockRows, j, got[j], fwant[j])
				}
			}
		}
		for _, cols := range []int{1, 5, 16, 33} {
			ln := NewLayerNorm("ln", cols)
			for j := 0; j < cols; j++ {
				ln.Gain.Value.Data[j] = rng.NormFloat64()
				ln.Bias.Value.Data[j] = rng.NormFloat64()
			}
			x := tensor.Randn(n, cols, 3, rng).Data
			want := make([]float64, n*cols)
			for i := 0; i < n; i++ {
				layerNormRowRef(ln, want[i*cols:(i+1)*cols], x[i*cols:(i+1)*cols])
			}
			got := make([]float64, n*cols)
			ln.ApplyRows(got, x, n)
			if j, ok := sameBits(got, want); !ok {
				t.Fatalf("LayerNorm %d rows of %d cell %d: ApplyRows %v != reference %v", n, cols, j, got[j], want[j])
			}
			ln.ApplyRows(x, x, n)
			if j, ok := sameBits(x, want); !ok {
				t.Fatalf("LayerNorm %d rows of %d in place, cell %d: %v != reference %v", n, cols, j, x[j], want[j])
			}
		}
	}
}

// didPanic reports whether f panics.
func didPanic(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestRowFormsRejectMisSizedRows: a row of the wrong width panics, as the
// tape's MatMul and LayerNormRows do on the same shapes, instead of returning
// a partial product or normalising with the wrong gains; a destination wider
// than the layer, and FFN scratch wider than its hidden layer, are accepted.
func TestRowFormsRejectMisSizedRows(t *testing.T) {
	eachKernelPath(t, testRowFormsRejectMisSizedRows)
}

func testRowFormsRejectMisSizedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	l := NewLinear("l", 16, 16, rng)
	ln := NewLayerNorm("ln", 16)
	f := NewFFN("f", 16, 32, 16, rng)
	row := func(n int) []float64 { return make([]float64, n) }
	for _, c := range []struct {
		name string
		call func()
		ok   bool
	}{
		{"Linear 16 -> 16", func() { l.ApplyRow(row(16), row(16)) }, true},
		{"Linear into a wider dst", func() { l.ApplyRow(row(20), row(16)) }, true},
		{"Linear x 8 wide", func() { l.ApplyRow(row(16), row(8)) }, false},
		{"Linear x 17 wide", func() { l.ApplyRow(row(16), row(17)) }, false},
		{"Linear dst 8 wide", func() { l.ApplyRow(row(8), row(16)) }, false},
		{"LayerNorm 16", func() { ln.ApplyRows(row(16), row(16), 1) }, true},
		{"LayerNorm into a wider dst", func() { ln.ApplyRows(row(20), row(16), 1) }, true},
		{"LayerNorm x 8 wide", func() { ln.ApplyRows(row(16), row(8), 1) }, false},
		{"LayerNorm x 17 wide", func() { ln.ApplyRows(row(17), row(17), 1) }, false},
		{"LayerNorm dst 8 wide", func() { ln.ApplyRows(row(8), row(16), 1) }, false},
		{"FFN 16 -> 32 -> 16", func() { f.ApplyRow(row(16), row(32), row(16)) }, true},
		{"FFN with wider scratch", func() { f.ApplyRow(row(16), row(40), row(16)) }, true},
		{"FFN scratch 16 wide", func() { f.ApplyRow(row(16), row(16), row(16)) }, false},
		{"FFN x 8 wide", func() { f.ApplyRow(row(16), row(32), row(8)) }, false},
		{"FFN dst 8 wide", func() { f.ApplyRow(row(8), row(32), row(16)) }, false},
	} {
		if panicked := didPanic(c.call); panicked == c.ok {
			t.Errorf("%s: panicked %v, want %v", c.name, panicked, !c.ok)
		}
	}
	tp := ag.NewTape()
	if !didPanic(func() { l.Forward(tp, tp.Const(tensor.New(1, 8))) }) {
		t.Error("the tape's MatMul accepted an 8-wide row into a 16x16 layer")
	}
	if !didPanic(func() { ln.Forward(tp, tp.Const(tensor.New(1, 8))) }) {
		t.Error("the tape's LayerNormRows accepted an 8-wide row into a 16-wide layer")
	}
}

// rotated returns the physically rotated copy of a logical-order matrix that
// a ring with the given head holds: logical row j sits at row (head+j) mod
// rows. Its transpose is the key-major key ring attendRow reads.
func rotated(logical *tensor.Dense, head int) *tensor.Dense {
	out := tensor.New(logical.Rows, logical.Cols)
	for j := 0; j < logical.Rows; j++ {
		copy(out.Row((head+j)%logical.Rows), logical.Row(j))
	}
	return out
}

func TestAttendRowMatchesReference(t *testing.T) { eachKernelPath(t, testAttendRowMatchesReference) }

func testAttendRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const heads = 2
	for _, dk := range []int{1, 3, 4, 8, 16} {
		for _, rows := range []int{1, 5, 11} {
			for _, band := range []int{0, 2} {
				for _, square := range []bool{true, false} {
					name := fmt.Sprintf("dk%d/rows%d/band%d/square%v", dk, rows, band, square)
					dm := heads * dk
					m := NewMultiHeadAttention("attn", dm, heads, rng)
					m.Band = band
					k := tensor.Randn(rows, dm, 1, rng)
					v := tensor.Randn(rows, dm, 1, rng)
					sprinkleZeros(v.Data, rng)
					want, got := make([]float64, dm), make([]float64, dm)
					scratchRef, scratch := make([]float64, rows), make([]float64, rows)
					for qPos := 0; qPos < rows; qPos++ {
						q := tensor.Randn(1, dm, 1, rng).Data
						sprinkleZeros(q, rng)
						attendRowRef(m, want, scratchRef, q, k, v, qPos, square)
						for head := 0; head < rows; head++ {
							m.attendRow(got, scratch, q, rotated(k, head).T(), rotated(v, head), head, qPos, square)
							if c, ok := sameBits(got, want); !ok {
								t.Fatalf("%s qPos %d head %d cell %d: attendRow %v != reference %v", name, qPos, head, c, got[c], want[c])
							}
						}
						// Documented aliasing: ctx may be q itself.
						alias := append([]float64(nil), q...)
						m.attendRow(alias, scratch, alias, k.T(), v, 0, qPos, square)
						if c, ok := sameBits(alias, want); !ok {
							t.Fatalf("%s qPos %d cell %d: ctx aliasing q gives %v, want %v", name, qPos, c, alias[c], want[c])
						}
					}
				}
			}
		}
	}
}

// TestAttendRowUnderflowSkip drives a softmax row whose far keys underflow
// to p == 0 exactly, so the context loop's zero-skip is taken mid-ring — on
// both sides of the wrap — and must leave the same bits as the reference.
func TestAttendRowUnderflowSkip(t *testing.T) { eachKernelPath(t, testAttendRowUnderflowSkip) }

func testAttendRowUnderflowSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const rows, dm = 9, 8
	m := NewMultiHeadAttention("attn", dm, 1, rng)
	k := tensor.Randn(rows, dm, 1, rng)
	v := tensor.Randn(rows, dm, 1, rng)
	q := tensor.Randn(1, dm, 1, rng).Data
	// Keys 2 and 6 align with a huge query: every other key's exponential
	// underflows to zero against them.
	for _, j := range []int{2, 6} {
		for c := range q {
			k.Set(j, c, 4000*q[c])
		}
	}
	want, got := make([]float64, dm), make([]float64, dm)
	scratchRef, scratch := make([]float64, rows), make([]float64, rows)
	attendRowRef(m, want, scratchRef, q, k, v, 0, false)
	zeros := 0
	for _, e := range scratchRef {
		if e == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("no softmax cell underflowed; the p == 0 skip is not exercised")
	}
	for head := 0; head < rows; head++ {
		m.attendRow(got, scratch, q, rotated(k, head).T(), rotated(v, head), head, 0, false)
		if c, ok := sameBits(got, want); !ok {
			t.Fatalf("head %d cell %d: attendRow %v != reference %v", head, c, got[c], want[c])
		}
	}
}

// Working numbers for the two kernels at the serving benchmark's shape
// (bench/workloads.go: 48 keys, model width 16, 2 heads, FFN hidden 32), on
// both paths. MAC/ns counts multiply-adds only; no claim rests on these.

func BenchmarkAttendRow(b *testing.B) {
	const rows, dm, heads = 48, 16, 2
	rng := rand.New(rand.NewSource(31))
	m := NewMultiHeadAttention("attn", dm, heads, rng)
	k := tensor.Randn(dm, rows, 1, rng) // key-major
	v := tensor.Randn(rows, dm, 1, rng)
	q := tensor.Randn(1, dm, 1, rng).Data
	ctx, scores := make([]float64, dm), make([]float64, rows)
	eachKernelPath(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.attendRow(ctx, scores, q, k, v, i%rows, 0, false)
		}
		reportRow(b, 2*rows*dm) // q·K and p·V
	})
}

func BenchmarkApplyRow(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	for _, out := range []int{16, 32} {
		const in = 16
		l := NewLinear("l", in, out, rng)
		x := tensor.Randn(1, in, 1, rng).Data
		dst := make([]float64, out)
		b.Run(fmt.Sprintf("%dto%d", in, out), func(b *testing.B) {
			eachKernelPath(b, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l.ApplyRow(dst, x)
				}
				reportRow(b, in*out)
			})
		})
	}
}

func reportRow(b *testing.B, macs int) {
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns, "ns/row")
	b.ReportMetric(float64(macs)/ns, "MAC/ns")
}
