package evt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"aero/internal/stats"
)

// The sort-based POT, with its two-pass Grimshaw scan on math.Log, as this
// package had it before POT selected its order statistics and the scan took
// its logs from tensor.LogRow — verbatim but for the names: potSortRef,
// fitGPDRef, findRootsRef, bisectRef and quantileSortedRef (stats'
// QuantileSorted, which now lives only in tests). TestPOTMatchesSortRef and
// FuzzPOT hold POT to it bit for bit.

// fitGPDRef fits a GPD to the positive excesses y with Grimshaw's procedure:
// the two-parameter MLE is reduced to the scalar root-finding problem
// w(x) = u(x)·v(x) − 1 = 0, each root giving a candidate (γ, σ); the
// candidate with the highest likelihood wins, with the method-of-moments
// and exponential fits always in the candidate set as fallbacks.
func fitGPDRef(y []float64) GPD {
	candidates := []GPD{FitGPDMoments(y), {Gamma: 0, Sigma: math.Max(stats.Mean(y), 1e-12)}}

	ymin, ymax := stats.Min(y), stats.Max(y)
	ymean := stats.Mean(y)
	if len(y) >= 2 && ymax > 0 && ymin > 0 {
		u := func(x float64) float64 {
			var s float64
			for _, v := range y {
				s += 1 / (1 + x*v)
			}
			return s / float64(len(y))
		}
		v := func(x float64) float64 {
			var s float64
			for _, v2 := range y {
				s += math.Log(1 + x*v2)
			}
			return 1 + s/float64(len(y))
		}
		w := func(x float64) float64 { return u(x)*v(x) - 1 }

		eps := 1e-8 / ymean
		lo := -1/ymax + eps
		hiNeg := -eps
		hiPos := 2 * (ymean - ymin) / (ymin * ymin)
		for _, iv := range [][2]float64{{lo, hiNeg}, {eps, hiPos}} {
			for _, x := range findRootsRef(w, iv[0], iv[1], 64) {
				gamma := v(x) - 1
				if math.Abs(gamma) < 1e-12 || math.Abs(x) < 1e-300 {
					continue
				}
				sigma := gamma / x
				if sigma > 0 {
					candidates = append(candidates, GPD{Gamma: gamma, Sigma: sigma})
				}
			}
		}
	}

	best := candidates[0]
	bestLL := best.LogLikelihood(y)
	for _, c := range candidates[1:] {
		if ll := c.LogLikelihood(y); ll > bestLL {
			best, bestLL = c, ll
		}
	}
	return best
}

// findRootsRef scans [lo, hi] on a uniform grid and refines each sign change
// with bisection, returning up to a handful of roots.
func findRootsRef(f func(float64) float64, lo, hi float64, grid int) []float64 {
	if !(hi > lo) || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return nil
	}
	var roots []float64
	step := (hi - lo) / float64(grid)
	prevX := lo
	prevF := f(lo)
	for i := 1; i <= grid; i++ {
		x := lo + float64(i)*step
		fx := f(x)
		if prevF == 0 {
			roots = append(roots, prevX)
		} else if !math.IsNaN(prevF) && !math.IsNaN(fx) && prevF*fx < 0 {
			roots = append(roots, bisectRef(f, prevX, x, prevF))
		}
		prevX, prevF = x, fx
		if len(roots) >= 8 {
			break
		}
	}
	return roots
}

func bisectRef(f func(float64) float64, a, b, fa float64) float64 {
	for i := 0; i < 60; i++ {
		mid := 0.5 * (a + b)
		fm := f(mid)
		if fm == 0 || (b-a) < 1e-14*math.Max(1, math.Abs(mid)) {
			return mid
		}
		if fa*fm < 0 {
			b = mid
		} else {
			a, fa = mid, fm
		}
	}
	return 0.5 * (a + b)
}

// potSortRef calibrates an anomaly threshold from scores: the initial threshold is
// the `level` empirical quantile, a GPD is fitted to the excesses, and the
// final threshold is the q tail quantile (Siffer et al., Alg. 1).
//
// When fewer than minPeaks scores exceed the initial level, the level is
// relaxed toward the median until enough peaks exist; if that fails, POT
// falls back to the (1−q) empirical quantile so callers always get a
// usable threshold.
func potSortRef(scores []float64, level, q float64) (Threshold, error) {
	const minPeaks = minTailPeaks
	n := len(scores)
	if n == 0 {
		return Threshold{}, errors.New("evt: no calibration scores")
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)

	// One excess buffer reused across level relaxation: calibration sits
	// on the retrain path, and each lowered level only grows the excess
	// set, so the buffer settles after at most a couple of regrowths.
	excesses := make([]float64, 0, n/20+minPeaks)
	for lvl := level; lvl >= 0.5; lvl -= 0.05 {
		t := quantileSortedRef(sorted, lvl)
		excesses = excesses[:0]
		for _, s := range scores {
			if s > t {
				excesses = append(excesses, s-t)
			}
		}
		if len(excesses) < minPeaks {
			continue
		}
		g := fitGPDRef(excesses)
		z := g.Quantile(t, q, n, len(excesses))
		if math.IsNaN(z) || math.IsInf(z, 0) || z < t {
			continue
		}
		return Threshold{Init: t, Z: z, Model: g, Peaks: len(excesses), N: n}, nil
	}
	// Fallback: empirical quantile.
	z := quantileSortedRef(sorted, 1-q)
	return Threshold{Init: z, Z: z, Peaks: 0, N: n}, fmt.Errorf("%w: fell back to empirical quantile", ErrTooFewPeaks)
}

// quantileSortedRef is Quantile for already-sorted input, avoiding the copy.
func quantileSortedRef(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
