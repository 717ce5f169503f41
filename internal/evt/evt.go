// Package evt implements extreme value theory primitives for anomaly
// thresholding: generalized Pareto distribution (GPD) fitting via
// Grimshaw's maximum-likelihood trick with a method-of-moments fallback,
// the Peaks-Over-Threshold (POT) quantile estimator of Siffer et al.
// (KDD 2017), and its streaming variant SPOT.
//
// POT is the threshold selector used by AERO and by every baseline in this
// repository (paper §IV-B: level = 0.99, q = 1e-3 for all methods).
package evt

import (
	"errors"
	"fmt"
	"math"

	"aero/internal/stats"
	"aero/internal/tensor"
)

// GPD holds generalized Pareto parameters: shape Gamma and scale Sigma.
type GPD struct {
	Gamma float64
	Sigma float64
}

// LogLikelihood returns the GPD log-likelihood of the excesses y.
func (g GPD) LogLikelihood(y []float64) float64 {
	n := float64(len(y))
	if g.Sigma <= 0 {
		return math.Inf(-1)
	}
	if math.Abs(g.Gamma) < 1e-12 {
		// exponential limit
		var s float64
		for _, v := range y {
			s += v
		}
		return -n*math.Log(g.Sigma) - s/g.Sigma
	}
	ll := -n * math.Log(g.Sigma)
	c := 1 + 1/g.Gamma
	for _, v := range y {
		u := 1 + g.Gamma*v/g.Sigma
		if u <= 0 {
			return math.Inf(-1)
		}
		ll -= c * math.Log(u)
	}
	return ll
}

// Quantile returns the 1-p tail quantile above threshold t for a GPD fitted
// to nPeaks excesses out of n observations:
//
//	z_q = t + σ/γ ((q·n/N_t)^{-γ} − 1)   (γ ≠ 0)
//	z_q = t − σ·ln(q·n/N_t)              (γ → 0)
func (g GPD) Quantile(t, q float64, n, nPeaks int) float64 {
	r := q * float64(n) / float64(nPeaks)
	if math.Abs(g.Gamma) < 1e-12 {
		return t - g.Sigma*math.Log(r)
	}
	return t + g.Sigma/g.Gamma*(math.Pow(r, -g.Gamma)-1)
}

// FitGPDMoments fits a GPD to excesses using the method of moments
// (the estimator FluxEV uses). Degenerate inputs fall back to an
// exponential fit.
func FitGPDMoments(y []float64) GPD {
	mean, std := stats.MeanStd(y)
	if mean <= 0 || std == 0 {
		if mean <= 0 {
			mean = 1e-8
		}
		return GPD{Gamma: 0, Sigma: mean}
	}
	r := mean * mean / (std * std)
	gamma := 0.5 * (1 - r)
	sigma := 0.5 * mean * (r + 1)
	if sigma <= 0 {
		sigma = mean
		gamma = 0
	}
	return GPD{Gamma: gamma, Sigma: sigma}
}

// FitGPD fits a GPD to the positive excesses y with Grimshaw's procedure:
// the two-parameter MLE is reduced to the scalar root-finding problem
// w(x) = u(x)·v(x) − 1 = 0, each root giving a candidate (γ, σ); the
// candidate with the highest likelihood wins, with the method-of-moments
// and exponential fits always in the candidate set as fallbacks.
func FitGPD(y []float64) GPD {
	candidates := []GPD{FitGPDMoments(y), {Gamma: 0, Sigma: math.Max(stats.Mean(y), 1e-12)}}

	ymin, ymax := stats.Min(y), stats.Max(y)
	ymean := stats.Mean(y)
	if len(y) >= 2 && ymax > 0 && ymin > 0 {
		w := func(x float64) float64 {
			u, v := grimshawUV(y, x)
			return u*v - 1
		}

		eps := 1e-8 / ymean
		lo := -1/ymax + eps
		hiNeg := -eps
		hiPos := 2 * (ymean - ymin) / (ymin * ymin)
		for _, iv := range [][2]float64{{lo, hiNeg}, {eps, hiPos}} {
			for _, x := range findRoots(w, iv[0], iv[1], 64) {
				_, v := grimshawUV(y, x)
				gamma := v - 1
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

// grimshawUV returns Grimshaw's u(x) = (1/n)Σ 1/(1+x·yᵢ) and
// v(x) = 1 + (1/n)Σ log(1+x·yᵢ) in one pass over y. Both sums run from zero
// in ascending i, as two separate loops would, and each log is math.Log's
// bits (tensor.LogRow), so fusing the passes changes no result. The chunks
// live on the stack.
func grimshawUV(y []float64, x float64) (u, v float64) {
	const chunk = 64
	var d, logs [chunk]float64
	var su, sl float64
	for rest := y; len(rest) > 0; {
		k := min(len(rest), chunk)
		for i, yi := range rest[:k] {
			d[i] = 1 + x*yi
		}
		copy(logs[:k], d[:k])
		tensor.LogRow(logs[:k])
		for i := range k {
			su += 1 / d[i]
			sl += logs[i]
		}
		rest = rest[k:]
	}
	n := float64(len(y))
	return su / n, 1 + sl/n
}

// findRoots scans [lo, hi] on a uniform grid and refines each sign change
// with bisection, returning up to a handful of roots.
func findRoots(f func(float64) float64, lo, hi float64, grid int) []float64 {
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
			roots = append(roots, bisect(f, prevX, x, prevF))
		}
		prevX, prevF = x, fx
		if len(roots) >= 8 {
			break
		}
	}
	return roots
}

func bisect(f func(float64) float64, a, b, fa float64) float64 {
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

// Threshold is the outcome of a POT calibration.
type Threshold struct {
	// Init is the initial threshold t (the `level` empirical quantile).
	Init float64
	// Z is the calibrated anomaly threshold z_q.
	Z float64
	// Model is the fitted GPD over the excesses.
	Model GPD
	// Peaks is the number of excesses used for the fit.
	Peaks int
	// N is the number of calibration observations.
	N int
}

// ErrTooFewPeaks is returned when the calibration data has too few values
// above the initial threshold to fit a tail distribution.
var ErrTooFewPeaks = errors.New("evt: too few peaks over initial threshold")

// minTailPeaks is the fewest excesses POT fits a tail distribution to.
const minTailPeaks = 8

// POT calibrates an anomaly threshold from scores: the initial threshold is
// the `level` empirical quantile, a GPD is fitted to the excesses, and the
// final threshold is the q tail quantile (Siffer et al., Alg. 1).
//
// When fewer than minPeaks scores exceed the initial level, the level is
// relaxed toward the median until enough peaks exist; if that fails, POT
// falls back to the (1−q) empirical quantile so callers always get a
// usable threshold.
func POT(scores []float64, level, q float64) (Threshold, error) {
	const minPeaks = minTailPeaks
	if err := CheckPOTParams(level, q); err != nil {
		return Threshold{}, err
	}
	n := len(scores)
	if n == 0 {
		return Threshold{}, errors.New("evt: no calibration scores")
	}
	// Each level reads two order statistics, so a private copy is selected
	// into place rather than sorted. The excesses are still taken from
	// scores in arrival order: FitGPD's sums run in that order.
	order := append([]float64(nil), scores...)

	// One excess buffer reused across level relaxation: calibration sits
	// on the retrain path, and each lowered level only grows the excess
	// set, so the buffer settles after at most a couple of regrowths.
	excesses := make([]float64, 0, n/20+minPeaks)
	for lvl := level; lvl >= 0.5; lvl -= 0.05 {
		t := stats.QuantileInPlace(order, lvl)
		excesses = excesses[:0]
		for _, s := range scores {
			if s > t {
				excesses = append(excesses, s-t)
			}
		}
		if len(excesses) < minPeaks {
			continue
		}
		g := FitGPD(excesses)
		z := g.Quantile(t, q, n, len(excesses))
		if math.IsNaN(z) || math.IsInf(z, 0) || z < t {
			continue
		}
		return Threshold{Init: t, Z: z, Model: g, Peaks: len(excesses), N: n}, nil
	}
	// Fallback: empirical quantile.
	z := stats.QuantileInPlace(order, 1-q)
	return Threshold{Init: z, Z: z, Peaks: 0, N: n}, fmt.Errorf("%w: fell back to empirical quantile", ErrTooFewPeaks)
}

// CheckPOTParams reports an error unless level and q both lie in the open
// interval (0, 1) — NaN included. Outside it POT has no meaning: a level
// of 1.5 would calibrate at a relaxed level, a q of 0 at an infinite
// threshold, and a NaN one would index the order statistics with garbage.
func CheckPOTParams(level, q float64) error {
	if !(level > 0 && level < 1) || !(q > 0 && q < 1) {
		return fmt.Errorf("evt: POT level %v and q %v must both lie in (0, 1)", level, q)
	}
	return nil
}
