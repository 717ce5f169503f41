package nn

import (
	"fmt"
	"math"

	"aero/internal/tensor"
)

// Row kernels: the tape-free single-row forms of Linear and
// MultiHeadAttention that the streaming forward runs for every star on every
// frame.
//
// They are calls into internal/tensor's leaves (AffineRow, DotRows,
// SoftmaxRow, AddScaledRows) — the same leaves the tape's matmuls and softmax
// run on — so each output cell sees exactly the float64 operations Forward
// applies to it, in the same order, and a row computed here is bit-identical
// to the matching row of Forward. What a leaf must keep, and the amd64
// vector path behind it, is in tensor/rowkernel.go.

// ApplyRow applies the layer to the single row x (length in), writing
// x·W + b into dst (length ≥ out) without recording onto a tape. dst must
// not overlap x. Per cell: the products x[k]·W[k][j] summed from zero in
// ascending k, skipping x[k] == 0, then the bias — the tape's MatMul and
// AddRow. A row of the wrong width panics, as the tape's MatMul does.
func (l *Linear) ApplyRow(dst, x []float64) { l.applyRow(dst, x, false) }

// applyRow is ApplyRow, followed by the ReLU of FFN.ApplyRow when relu is
// set.
func (l *Linear) applyRow(dst, x []float64, relu bool) {
	w := l.W.Value
	if len(x) != w.Rows || len(dst) < w.Cols {
		panic(fmt.Sprintf("nn: row shape mismatch 1x%d · %dx%d -> 1x%d", len(x), w.Rows, w.Cols, len(dst)))
	}
	tensor.AffineRow(dst[:w.Cols], x, w.Data, w.Cols, l.B.Value.Data, relu)
}

// AttendRow computes one query row of scaled dot-product attention against
// key/value matrices held as rings (rows are key positions, pre-head-split
// dm-wide): logical key j is physical row (head+j) mod k.Rows, so a cache
// that slides by one position advances head instead of moving its rows, and
// an exact rebuild writes logical = physical with head 0. The concatenated
// per-head context — the input to Wo — lands in ctx (length Dim). scores is
// caller scratch of length ≥ k.Rows and must not overlap ctx or q; ctx may
// be q itself (each head's slice of q is consumed before its context is
// written). qPos is the query's logical position in the attended sequence;
// the band restriction applies only when square is true, mirroring
// Forward's bandMask rule (banded self-attention, unbanded cross-attention).
//
// The arithmetic mirrors the tape kernels op for op: per-cell dot products
// in ascending key-dimension order, the 1/√d_k scale applied after the dot,
// max-subtracted softmax dividing each exponential by the sum, and zero-skip
// accumulation over value rows in ascending logical key order (out-of-band
// tape cells are exact zeros — their −1e9-masked exponentials underflow — so
// restricting the loops to the band is value-preserving).
func (m *MultiHeadAttention) AttendRow(ctx, scores, q []float64, k, v *tensor.Dense, head, qPos int, square bool) {
	rows, dm := k.Rows, k.Cols
	jlo, jhi := 0, rows
	if m.Band > 0 && square {
		if jlo = qPos - m.Band; jlo < 0 {
			jlo = 0
		}
		if jhi = qPos + m.Band + 1; jhi > rows {
			jhi = rows
		}
	}
	// Logical keys jlo..jhi−1 are at most two contiguous runs of physical
	// rows: n1 rows from p0 up to the end of the matrix, the rest from row 0.
	n := jhi - jlo
	p0 := head + jlo
	if p0 >= rows {
		p0 -= rows
	}
	n1 := n
	if p0+n1 > rows {
		n1 = rows - p0
	}
	probs := scores[:n]
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	for h := 0; h < m.Heads; h++ {
		lo := h * dk
		qh := q[lo : lo+dk]
		tensor.DotRows(probs[:n1], qh, k.Data[p0*dm+lo:], dm, scale)
		tensor.DotRows(probs[n1:], qh, k.Data[lo:], dm, scale)
		tensor.SoftmaxRow(probs)
		ch := ctx[lo : lo+dk]
		tensor.AffineRow(ch, probs[:n1], v.Data[p0*dm+lo:], dm, nil, false)
		if n1 < n {
			tensor.AddScaledRows(ch, probs[n1:], v.Data[lo:], dm)
		}
	}
}
