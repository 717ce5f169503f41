// Package stats provides the scalar and vector statistics used throughout
// the library: moments, quantiles, moving windows, smoothing, and
// normalization. All functions are pure and operate on []float64.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Var returns the population variance of xs.
func Var(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// MeanStd returns both the mean and population standard deviation in one pass.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var s, sq float64
	for _, v := range xs {
		s += v
		sq += v * v
	}
	n := float64(len(xs))
	mean = s / n
	v := sq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return mean, math.Sqrt(v)
}

// Min returns the minimum of xs (+Inf for empty input).
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, v := range xs {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum of xs (-Inf for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range xs {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics, in sort.Float64s order (NaN
// first). xs is not modified; a NaN q gives NaN.
func Quantile(xs []float64, q float64) float64 {
	return QuantileInPlace(append([]float64(nil), xs...), q)
}

// QuantileInPlace is Quantile without the copy: it reorders xs. Only the
// two order statistics the interpolation reads are located, by selection,
// and the partial order Select leaves behind makes the next call on the
// same slice cheaper — POT reads several levels of one calibration set.
func QuantileInPlace(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		Select(xs, 0)
		return xs[0]
	}
	if q >= 1 {
		Select(xs, n-1)
		return xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		Select(xs, n-1)
		return xs[n-1]
	}
	Select(xs, lo)
	// Everything right of lo follows it in sort order, so the sorted slice's
	// next element is the least of them.
	next := xs[hi]
	for _, v := range xs[hi+1:] {
		if sortsBefore(v, next) {
			next = v
		}
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + next*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// sortsBefore is sort.Float64s's order: ascending, NaN before everything.
func sortsBefore(a, b float64) bool { return a < b || (a != a && b == b) }

// Select reorders xs so that xs[k] is the value sort.Float64s would put at
// index k, nothing before it sorts after it and nothing after it sorts
// before it. Values equal under the order (−0 and +0, NaNs of different
// payloads) may land in either's place, as they may under the unstable
// sort. Quickselect with a median-of-three pivot and a three-way partition,
// so runs of ties cost one pass; after 2·log₂ n rounds without converging,
// the remaining range is sorted, which bounds the worst case at the sort's.
func Select(xs []float64, k int) {
	lo, hi := 0, len(xs)-1
	for rounds := 2 * bits.Len(uint(len(xs))); hi > lo; rounds-- {
		if rounds == 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi]
		if sortsBefore(b, a) {
			a, b = b, a
		}
		if sortsBefore(c, b) {
			b = c
			if sortsBefore(b, a) {
				b = a
			}
		}
		pivot := b
		// [lo, lt) sorts before pivot, [lt, i) ties it, (gt, hi] sorts after.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := xs[i]; {
			case sortsBefore(v, pivot):
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case sortsBefore(pivot, v):
				xs[i], xs[gt] = xs[gt], v
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

// Diff returns the first-order difference xs[i+1]-xs[i]; the result has
// length len(xs)-1 (empty for inputs shorter than 2).
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	out := make([]float64, len(xs)-1)
	for i := 0; i < len(out); i++ {
		out[i] = xs[i+1] - xs[i]
	}
	return out
}

// EWMA returns the exponentially weighted moving average of xs with
// smoothing factor alpha in (0, 1]; larger alpha weights recent points more.
func EWMA(xs []float64, alpha float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	out[0] = xs[0]
	for i := 1; i < len(xs); i++ {
		out[i] = alpha*xs[i] + (1-alpha)*out[i-1]
	}
	return out
}

// MovingMean returns the trailing moving average with window w; positions
// before a full window average the available prefix.
func MovingMean(xs []float64, w int) []float64 {
	if w < 1 {
		w = 1
	}
	out := make([]float64, len(xs))
	var sum float64
	for i, v := range xs {
		sum += v
		if i >= w {
			sum -= xs[i-w]
			out[i] = sum / float64(w)
		} else {
			out[i] = sum / float64(i+1)
		}
	}
	return out
}

// ZScore returns (xs - mean) / std elementwise; std 0 maps to zeros.
func ZScore(xs []float64) []float64 {
	m, s := MeanStd(xs)
	out := make([]float64, len(xs))
	if s == 0 {
		return out
	}
	for i, v := range xs {
		out[i] = (v - m) / s
	}
	return out
}

// MinMaxScale maps xs linearly onto [0, 1] using the provided lo/hi bounds.
// A degenerate range (hi <= lo) maps everything to 0.5. Values outside
// [lo, hi] are clipped.
func MinMaxScale(xs []float64, lo, hi float64) []float64 {
	out := make([]float64, len(xs))
	if hi <= lo {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	r := hi - lo
	for i, v := range xs {
		u := (v - lo) / r
		if u < 0 {
			u = 0
		} else if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

// Correlation returns the Pearson correlation of a and b (0 when either
// side is constant). Panics if lengths differ.
func Correlation(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: correlation length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	ma, sa := MeanStd(a)
	mb, sb := MeanStd(b)
	if sa == 0 || sb == 0 {
		return 0
	}
	var s float64
	for i := range a {
		s += (a[i] - ma) * (b[i] - mb)
	}
	return s / (float64(len(a)) * sa * sb)
}

// CosineSimilarity returns ⟨a,b⟩ / (‖a‖‖b‖), or 0 when either norm is 0.
func CosineSimilarity(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("stats: cosine length mismatch")
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Argmax returns the index of the maximum element (-1 for empty input).
func Argmax(xs []float64) int {
	idx := -1
	best := math.Inf(-1)
	for i, v := range xs {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

// TopKIndices returns the indices of the k largest elements in descending
// order of value. k is clipped to len(xs).
func TopKIndices(xs []float64, k int) []int {
	if k > len(xs) {
		k = len(xs)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	return idx[:k]
}
