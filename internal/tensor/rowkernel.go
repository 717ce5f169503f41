package tensor

import "math"

// Row kernels: the leaves every multiply-add and every softmax in the
// library runs on — the matmul family in tensor.go and the tape's
// SoftmaxRows (training: DotRows, AddScaledRows, SoftmaxRow), nn's row forms
// (the inference forward: AffineRows for every projection of a batch of
// rows, NormRows for its layer norms, and AttendRows' DotCols, SoftmaxRow,
// AffineRow and AddScaledRows) — and the logarithms of evt's Grimshaw scan.
// AffineRow and SoftmaxRow are fused: a projection row (sum, bias, ReLU) and
// a softmax row (max, exp, sum, divide) are one call each, and on the vector
// path one leaf each; AffineRows is AffineRow over a batch, one call for the
// batch. Attention keys are stored key-major, so DotCols scores a query
// against a run of keys with one key per lane and no transposes; DotRows,
// which transposes 4×4 blocks on the vector path, serves the tape's MatMulT.
//
// Each output cell sees a fixed sequence of float64 operations — products
// summed in ascending order, multiply and add never fused, a division where
// a division is written. The only freedom taken is across cells, which are
// independent: several are carried in registers through one pass over the
// inputs. A kernel that re-associates a sum, folds a scale into a dot
// product, multiplies by a reciprocal instead of dividing, or fuses a
// multiply-add changes trained weights and score bits
// (TestTrainingBitIdentityGolden, core's TestStreamScoreBitsPinned).
//
// The same freedom is what the amd64 vector leaves (rowkernel_amd64.s) use:
// independent cells ride the lanes of one register, each lane performing the
// operations below with separate multiply and add instructions. The Go loops
// in this file are the portable implementation, the remainder handler and the
// oracle; useVector is the single dispatch point, decided once at init.

// SoftmaxRow replaces row by its softmax, in place: mx is the greatest cell
// by > from −Inf (a NaN is never chosen), every s becomes exp(s − mx), the
// results are added from +0 in ascending order, and every cell is divided by
// that sum (a division, not a multiplication by the reciprocal). The vector
// leaf takes the max four lanes at a time — the same value in any order but
// for the sign of a zero maximum, and exp(s − (+0)) and exp(s − (−0)) are
// the same bits for every s — and the exponentials of leading groups of four
// while every s − mx in the group is in [−708, 0]; math.Exp takes the rest.
// The results are the same bits, so where the split falls is invisible. When
// the leaf takes every cell it also divides, and the row is one call.
func SoftmaxRow(row []float64) {
	mx, sum, j := math.Inf(-1), 0.0, 0
	if useVector {
		if mx, sum, j = softmaxRows4(row); j == len(row) {
			return
		}
	} else {
		for _, s := range row {
			if s > mx {
				mx = s
			}
		}
	}
	for ; j < len(row); j++ {
		e := math.Exp(row[j] - mx)
		row[j] = e
		sum += e
	}
	for j := range row {
		row[j] /= sum
	}
}

// LogRow replaces every x in row by math.Log(x). The vector leaf takes
// leading groups of four while every lane is a finite, positive, normal
// number; math.Log takes the rest — the results are the same bits, so where
// the split falls is invisible.
func LogRow(row []float64) {
	j := 0
	if useVector {
		j = logRows4(row)
	}
	for ; j < len(row); j++ {
		row[j] = math.Log(row[j])
	}
}

// DotRows writes dst[i] = scale·(q · row i) for len(dst) consecutive rows of
// a row-major matrix: row i is the len(q) values at rows[i*stride:]. Each dot
// product sums from zero in ascending dimension and is scaled afterwards;
// four rows share one pass over q (on the vector path, one row per lane for
// the leading groups of four when len(q) is a multiple of four).
func DotRows(dst, q, rows []float64, stride int, scale float64) {
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

// DotCols writes dst[j] = scale·Σ_c q[c]·(column j)[c] for len(dst)
// consecutive columns of a column-major block: dimension c of column j is
// cols[c*stride+j]. Each sum starts from +0 and adds the products in
// ascending c with no zero-skip, and is scaled afterwards — DotRows'
// arithmetic, on keys stored key-major (one dimension per row, the keys
// across it), so the vector path needs no transposes: every lane is one
// column, and q[c] is broadcast against a contiguous run of them.
func DotCols(dst, q, cols []float64, stride int, scale float64) {
	if len(dst) == 0 {
		return
	}
	if useVector && len(q) > 0 {
		c := cols[:(len(q)-1)*stride+len(dst)] // the one bounds check
		dotColsLeaf(dst, q, &c[0], stride, scale)
		return
	}
	clear(dst)
	for c, qv := range q {
		col := cols[c*stride:][:len(dst)]
		for j, kv := range col {
			dst[j] += qv * kv
		}
	}
	for j := range dst {
		dst[j] *= scale
	}
}

// AffineRows applies AffineRow to the n rows of a row-major batch: row i of
// dst (len(bias) wide) is x's row i (in wide) times the in×len(bias) weight
// matrix w, plus bias, then the ReLU if relu. With residual set, each cell
// becomes (x·w + bias) + dst, the row's previous value added after the
// bias — a residual connection written into its own stream. Every cell sees
// AffineRow's operations, in its order; the rows are independent, and on the
// vector path one leaf call runs them all. dst must not overlap x.
func AffineRows(dst, x, w []float64, n, in int, bias []float64, relu, residual bool) {
	out := len(bias)
	if n == 0 || out == 0 {
		return
	}
	dst, x = dst[:n*out], x[:n*in] // the batch's one bounds check
	w = w[:in*out]
	if useVector {
		var r *float64
		if in > 0 {
			r = &w[0]
		}
		affineRowsLeaf(&dst[0], xPtr(x), n, in, out, r, out, &bias[0], relu, residual)
		return
	}
	if !residual {
		for i := range n {
			AffineRow(dst[i*out:(i+1)*out], x[i*in:(i+1)*in], w, out, bias, relu)
		}
		return
	}
	// The sum of a block of cells goes to a register-sized scratch first:
	// the residual is added to the finished sum, not accumulated into.
	var blk [16]float64
	for i := range n {
		d, xr := dst[i*out:(i+1)*out], x[i*in:(i+1)*in]
		for c0 := 0; c0 < out; c0 += len(blk) {
			s := blk[:min(len(blk), out-c0)]
			clear(s)
			AddScaledRows(s, xr, w[c0:], out)
			for j, v := range s {
				v = v + bias[c0+j] + d[c0+j]
				if relu && !(v > 0) {
					v = 0
				}
				d[c0+j] = v
			}
		}
	}
}

// xPtr is the address of x's first value, or nil for an empty x.
func xPtr(x []float64) *float64 {
	if len(x) == 0 {
		return nil
	}
	return &x[0]
}

// NormRows layer-normalises the n rows of x (len(gain) wide) into dst, which
// may be x itself: per row, mean = Σ x[j] from +0 in ascending j, divided by
// the width; var = Σ (x[j] − mean)² likewise; is = 1/√(var + eps); and
// dst[j] = ((x[j] − mean)·is)·gain[j] + bias[j] — the tape's LayerNormRows,
// operation for operation. On the vector path four rows share each pass over
// the columns, one row per lane, so their four dependent sums are in flight
// at once, and each row's cells are then written four columns at a time; the
// rows past the last group of four, and every row off it, take the Go loop.
func NormRows(dst, x []float64, n int, gain, bias []float64, eps float64) {
	cols := len(gain)
	bias = bias[:cols]
	dst, x = dst[:n*cols], x[:n*cols]
	i := 0
	if useVector && n >= 4 && cols > 0 {
		i = n &^ 3
		normRows4(&dst[0], &x[0], i, cols, &gain[0], &bias[0], eps)
	}
	w := float64(cols)
	for ; i < n; i++ {
		xr, y := x[i*cols:][:cols], dst[i*cols:][:cols]
		var m float64
		for _, v := range xr {
			m += v
		}
		m /= w
		var va float64
		for _, v := range xr {
			d := v - m
			va += d * d
		}
		is := 1 / math.Sqrt(va/w+eps)
		for j, g := range gain {
			y[j] = (xr[j]-m)*is*g + bias[j]
		}
	}
}

// AffineRow writes dst[c] = Σ_k x[k]·(row k)[c] into every cell of dst, where
// row k is the len(dst) values at rows[k*stride:]: the products summed from
// +0 in ascending k, skipping x[k] == 0, then bias[c] added to the sum
// (unless bias is nil), then, if relu, every cell that is not > 0 — NaN and
// −0 included — set to +0. It is a projection (x the input row, rows the
// weight matrix, bias its bias, relu an FFN's first layer) and the first run
// of an attention context (no bias). On the vector path one leaf computes
// every cell — blocks of 16 and 8 cells in registers, the last few through
// lane masks, each block stored once — and takes the skip without a branch:
// a skipped product is masked to +0, which leaves the sum's bits as they
// were, because a sum that starts from +0 is never −0. Off it, the Go loops
// do it: a cleared row, AddScaledRows, the bias, the ReLU.
func AffineRow(dst, x, rows []float64, stride int, bias []float64, relu bool) {
	if len(dst) == 0 {
		return
	}
	if bias != nil {
		bias = bias[:len(dst)] // the bias's one bounds check
	}
	if useVector {
		var r, b *float64
		if len(x) > 0 {
			rs := rows[:(len(x)-1)*stride+len(dst)] // the rows' one bounds check
			r = &rs[0]
		}
		if bias != nil {
			b = &bias[0]
		}
		affineRowsLeaf(&dst[0], xPtr(x), 1, len(x), len(dst), r, stride, b, relu, false)
		return
	}
	clear(dst)
	AddScaledRows(dst, x, rows, stride)
	for j, bv := range bias {
		dst[j] += bv
	}
	if relu {
		for j, v := range dst {
			if !(v > 0) {
				dst[j] = 0
			}
		}
	}
}

// AddScaledRows adds Σ_i coef[i]·row i into acc, where row i is the len(acc)
// values at rows[i*stride:]. Each cell of acc accumulates in ascending i and
// skips coef[i] == 0, continuing from the value acc already holds. It is a
// projection (coef the input row, rows the weight matrix), an attention
// context (coef the softmax row, rows the value ring) and every row of a
// matrix product (coef a row of the left operand, rows the right operand).
// Eight cells are carried in registers per pass over coef (on the vector
// path, one per lane); a narrower remainder accumulates in place.
func AddScaledRows(acc, coef, rows []float64, stride int) {
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
