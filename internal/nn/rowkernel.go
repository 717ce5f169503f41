package nn

import (
	"math"

	"aero/internal/tensor"
)

// Row kernels: the tape-free single-row forms of Linear and
// MultiHeadAttention that the streaming forward runs for every star on every
// frame.
//
// Each output cell sees exactly the float64 operations the tape kernels
// apply to it, in the same order, so a row computed here is bit-identical to
// the matching row of Forward. The only freedom taken is across cells, which
// are independent: several are carried in registers through one pass over
// the inputs. A kernel that re-associates a sum, folds the 1/√d_k scale into
// the dot product, multiplies by a reciprocal instead of dividing, or fuses a
// multiply-add changes score bits (core's TestStreamScoreBitsPinned).
//
// The same freedom is what the amd64 vector leaves (rowkernel_amd64.s) use:
// independent cells ride the lanes of one register, each lane performing the
// operations below with separate multiply and add instructions. The Go loops
// in this file are the portable implementation, the remainder handler and the
// oracle; useVector is the single dispatch point, decided once at init.

// ApplyRow applies the layer to the single row x (length in), writing
// x·W + b into dst (length out) without recording onto a tape. dst must not
// overlap x. Per cell: the products x[k]·W[k][j] summed from zero in
// ascending k, skipping x[k] == 0, then the bias — the tape's MatMul and
// AddRow.
func (l *Linear) ApplyRow(dst, x []float64) {
	w := l.W.Value
	dst = dst[:w.Cols]
	for j := range dst {
		dst[j] = 0
	}
	addScaledRows(dst, x, w.Data, w.Cols)
	for j, bv := range l.B.Value.Data[:len(dst)] {
		dst[j] += bv
	}
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
		dotRows(probs[:n1], qh, k.Data[p0*dm+lo:], dm, scale)
		dotRows(probs[n1:], qh, k.Data[lo:], dm, scale)
		mx := math.Inf(-1)
		for _, s := range probs {
			if s > mx {
				mx = s
			}
		}
		sum := expSumRow(probs, mx)
		divideRow(probs, sum)
		ch := ctx[lo : lo+dk]
		for c := range ch {
			ch[c] = 0
		}
		addScaledRows(ch, probs[:n1], v.Data[p0*dm+lo:], dm)
		addScaledRows(ch, probs[n1:], v.Data[lo:], dm)
	}
}

// expSumRow replaces every s in row by exp(s − mx) and returns the sum of the
// results, added from zero in ascending order. The vector leaf takes leading
// groups of four while every s − mx in the group is in [−708, 0]; math.Exp
// takes the rest — the results are the same bits, so where the split falls
// is invisible.
func expSumRow(row []float64, mx float64) float64 {
	j := 0
	if useVector {
		j = expRows4(row, mx)
	}
	var sum float64
	for _, e := range row[:j] {
		sum += e
	}
	for ; j < len(row); j++ {
		e := math.Exp(row[j] - mx)
		row[j] = e
		sum += e
	}
	return sum
}

// divideRow divides every cell of row by d (a division, not a multiplication
// by the reciprocal).
func divideRow(row []float64, d float64) {
	j := 0
	if useVector {
		j = divRows4(row, d)
	}
	for ; j < len(row); j++ {
		row[j] /= d
	}
}

// dotRows writes dst[i] = scale·(q · row i) for len(dst) consecutive rows of
// a row-major matrix: row i is the len(q) values at rows[i*stride:]. Each dot
// product sums from zero in ascending dimension and is scaled afterwards;
// four rows share one pass over q (on the vector path, one row per lane for
// the leading groups of four when len(q) is a multiple of four).
func dotRows(dst, q, rows []float64, stride int, scale float64) {
	i, o := 0, 0
	if useVector && len(dst) >= 4 && len(q) > 0 && len(q)%4 == 0 {
		n := len(dst) &^ 3
		r := rows[:(n-1)*stride+len(q)] // the one bounds check
		i = dotRows4(dst, q, &r[0], stride, scale)
		o = i * stride
	}
	for ; i+4 <= len(dst); i += 4 {
		r0 := rows[o:][:len(q)]
		r1 := rows[o+stride:][:len(q)]
		r2 := rows[o+2*stride:][:len(q)]
		r3 := rows[o+3*stride:][:len(q)]
		var s0, s1, s2, s3 float64
		for c, qv := range q {
			s0 += qv * r0[c]
			s1 += qv * r1[c]
			s2 += qv * r2[c]
			s3 += qv * r3[c]
		}
		d := dst[i : i+4 : i+4]
		d[0] = s0 * scale
		d[1] = s1 * scale
		d[2] = s2 * scale
		d[3] = s3 * scale
		o += 4 * stride
	}
	for ; i < len(dst); i++ {
		r := rows[o:][:len(q)]
		var s float64
		for c, qv := range q {
			s += qv * r[c]
		}
		dst[i] = s * scale
		o += stride
	}
}

// addScaledRows adds Σ_i coef[i]·row i into acc, where row i is the len(acc)
// values at rows[i*stride:]. Each cell of acc accumulates in ascending i and
// skips coef[i] == 0, continuing from the value acc already holds. It is
// both halves of the streaming forward's arithmetic: a projection (coef the
// input row, rows the weight matrix) and an attention context (coef the
// softmax row, rows the value ring). Eight cells are carried in registers
// per pass over coef (on the vector path, one per lane); a narrower remainder
// accumulates in place.
func addScaledRows(acc, coef, rows []float64, stride int) {
	c := 0
	if useVector && len(acc) >= 8 && len(coef) > 0 {
		r := rows[:(len(coef)-1)*stride+len(acc)&^7] // the one bounds check
		c = addScaledBlocks(acc, coef, &r[0], stride)
	}
	for ; c+8 <= len(acc); c += 8 {
		a := acc[c : c+8 : c+8]
		a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
		o := c
		for _, cv := range coef {
			if cv != 0 {
				r := rows[o : o+8 : o+8]
				a0 += cv * r[0]
				a1 += cv * r[1]
				a2 += cv * r[2]
				a3 += cv * r[3]
				a4 += cv * r[4]
				a5 += cv * r[5]
				a6 += cv * r[6]
				a7 += cv * r[7]
			}
			o += stride
		}
		a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
	if c == len(acc) {
		return
	}
	tail := acc[c:]
	o := c
	for _, cv := range coef {
		if cv != 0 {
			r := rows[o:][:len(tail)]
			for j, rv := range r {
				tail[j] += cv * rv
			}
		}
		o += stride
	}
}
