package nn

import (
	"fmt"
	"math"

	"aero/internal/tensor"
)

// Row kernels: the tape-free forms of Linear, FFN, LayerNorm and
// MultiHeadAttention that the inference forward runs for every star — a
// window's rows a layer at a time on an exact pass, the entering row alone
// on the streaming path's benign frames.
//
// They are calls into internal/tensor's leaves (AffineRow, AffineRows,
// NormRows, DotCols, SoftmaxRow, AddScaledRows) — the leaves the tape's
// matmuls and softmax run on, or loops pinned to the tape's LayerNormRows —
// so each output cell sees exactly the float64 operations Forward applies to
// it, in the same order, and a row computed here is bit-identical to the
// matching row of Forward. What a leaf must keep, and the amd64 vector path
// behind it, is in tensor/rowkernel.go.

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

// ApplyRows applies the layer to the n rows of the row-major batch x (in
// wide each), writing row i of x·W + b into row i of dst (out wide), one leaf
// call for the batch; each row is ApplyRow's. With residual set, each result
// is added to the value dst already holds, after the bias: dst ←
// (x·W + b) + dst, a residual connection. dst must not overlap x. An x that
// is not n rows, or a dst too short for them, panics.
func (l *Linear) ApplyRows(dst, x []float64, n int, residual bool) {
	l.applyRows(dst, x, n, false, residual)
}

func (l *Linear) applyRows(dst, x []float64, n int, relu, residual bool) {
	w := l.W.Value
	if len(x) != n*w.Rows || len(dst) < n*w.Cols {
		panic(fmt.Sprintf("nn: batch shape mismatch %d rows in %d values · %dx%d -> %d values", n, len(x), w.Rows, w.Cols, len(dst)))
	}
	tensor.AffineRows(dst, x, w.Data, n, w.Rows, l.B.Value.Data, relu, residual)
}

// ApplyRows applies the block to the n rows of the row-major batch x into
// dst, which may be x itself: L1 and its ReLU over as many rows as spare
// holds at a time (spare must hold one hidden row), then L2 over those rows,
// residual as Linear.ApplyRows. Each row is ApplyRow's.
func (f *FFN) ApplyRows(dst, spare, x []float64, n int, residual bool) {
	in, hidden := f.L1.W.Value.Rows, f.L1.W.Value.Cols
	out := f.L2.W.Value.Cols
	block := len(spare) / hidden
	if block == 0 {
		panic(fmt.Sprintf("nn: FFN scratch of %d values, hidden layer %d wide", len(spare), hidden))
	}
	for r0 := 0; r0 < n; r0 += block {
		r1 := min(n, r0+block)
		h := spare[:(r1-r0)*hidden]
		f.L1.applyRows(h, x[r0*in:r1*in], r1-r0, true, false)
		f.L2.applyRows(dst[r0*out:r1*out], h, r1-r0, false, residual)
	}
}

// ApplyRows normalises the n rows of the row-major batch x into dst, which
// may be x itself, mirroring the tape's LayerNormRows kernel bit for bit,
// four rows to a pass (tensor.NormRows). An x that is not n rows, or a dst shorter than x,
// panics.
func (l *LayerNorm) ApplyRows(dst, x []float64, n int) {
	gain, bias := l.Gain.Value.Data, l.Bias.Value.Data
	if len(x) != n*len(gain) || len(bias) != len(gain) || len(dst) < len(x) {
		panic(fmt.Sprintf("nn: layernorm batch of %d rows in %d values -> %d, layer is %d wide", n, len(x), len(dst), len(gain)))
	}
	tensor.NormRows(dst, x, n, gain, bias, l.Eps)
}

// AttendRows computes n query rows of scaled dot-product attention against
// key/value rings (pre-head-split, dm wide). The queries are the rows of the
// row-major batch qc (Dim wide each) at logical positions qPos, qPos+1, …,
// and each row is replaced by its concatenated per-head context — the input
// to Wo. The keys are held key-major — k is dm × L, dimension c of the key
// at physical slot p at k[c][p] — and the values row-major (v is L × dm).
// Logical key j is physical slot (head+j) mod L, so a cache that slides by
// one position advances head instead of moving its keys, and an exact
// rebuild writes logical = physical with head 0. scores is caller scratch of
// length ≥ L and must not overlap qc. The band restriction applies only when
// square is true, mirroring Forward's bandMask rule (banded self-attention,
// unbanded cross-attention).
//
// The arithmetic mirrors the tape kernels op for op: per-cell dot products
// from +0 in ascending key-dimension order with no zero-skip, the 1/√d_k
// scale applied after the dot (one DotCols call per contiguous run of
// slots), max-subtracted softmax dividing each exponential by the sum, and
// zero-skip accumulation over value rows in ascending logical key order
// (out-of-band tape cells are exact zeros — their −1e9-masked exponentials
// underflow — so restricting the loops to the band is value-preserving).
func (m *MultiHeadAttention) AttendRows(qc []float64, n int, scores []float64, k, v *tensor.Dense, head, qPos int, square bool) {
	for i := range n {
		qi := qc[i*m.Dim : (i+1)*m.Dim]
		m.attendRow(qi, scores, qi, k, v, head, qPos+i, square)
	}
}

// attendRow is one query row of AttendRows: the context of q, at logical
// position qPos, lands in ctx (length Dim). scores must not overlap ctx or
// q; ctx may be q itself (each head's slice of q is consumed before its
// context is written).
func (m *MultiHeadAttention) attendRow(ctx, scores, q []float64, k, v *tensor.Dense, head, qPos int, square bool) {
	dk := m.Dim / m.Heads
	scale := 1 / math.Sqrt(float64(dk))
	rows, dm := k.Cols, v.Cols
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
	// slots: n1 from p0 up to the end of the ring, the rest from slot 0.
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
	for h := 0; h < m.Heads; h++ {
		lo := h * dk
		qh := q[lo : lo+dk]
		tensor.DotCols(probs[:n1], qh, k.Data[lo*rows+p0:], rows, scale)
		tensor.DotCols(probs[n1:], qh, k.Data[lo*rows:], rows, scale)
		tensor.SoftmaxRow(probs)
		ch := ctx[lo : lo+dk]
		tensor.AffineRow(ch, probs[:n1], v.Data[p0*dm+lo:], dm, nil, false)
		if n1 < n {
			tensor.AddScaledRows(ch, probs[n1:], v.Data[lo:], dm)
		}
	}
}
