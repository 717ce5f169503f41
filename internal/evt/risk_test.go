package evt

import (
	"math"
	"math/rand"
	"testing"

	"aero/internal/stats"
)

// TestDSPOTHoldsRiskLevel holds a served star to the risk level it was
// calibrated to, on streams whose quantiles are known: Exp(1), N(0, 1), a
// GPD tail with γ = 0.25, and Exp(1) riding a slow 3·sin(2πi/20 000)
// drift. Each stream runs through a one-star Bank (depth 20, level 0.99,
// q 10⁻³, the paper's §IV-B protocol) for 2,000 calibration points and
// 400 k steps, over 32 seeds. The reference is Monte Carlo: the 1−q
// quantile of the drift-corrected residuals the star itself thresholded,
// x − Baseline, pooled over the first eight seeds (3.2 M residuals).
//
// A 2,000-point calibration is the error that dominates: one cell's rate
// ranges from about 0.2× to 3× q between seeds, so the bounds are on
// pooled and median values, not on cells. For each stream the pooled
// alarm rate must lie in [q/2, 2q] and the median over seeds of z within
// ±10 % of the reference quantile. The heavy GPD tail sets the seed
// count: its z is fitted to about 20 peaks, and the median of eight seeds
// spread from −22 % to +9 % of the reference over eight groups of eight,
// about a −3 % bias. A level that refits on the excesses below it (every
// refit sees a tail cut at z) drifts down and fails both bounds on every
// stream: 7.3–7.7× q, z 23–57 % low.
func TestDSPOTHoldsRiskLevel(t *testing.T) {
	const (
		level, q = 0.99, 1e-3
		depth    = 20
		calibN   = 2000
		steps    = 400_000
		refSeeds = 8 // the seeds whose residuals make the reference quantile
	)
	seeds := make([]int64, 32)
	for k := range seeds {
		seeds[k] = 11 + int64(k)
	}
	streams := []struct {
		name string
		draw func(rng *rand.Rand, i int) float64
	}{
		{"exp", func(rng *rand.Rand, _ int) float64 { return rng.ExpFloat64() }},
		{"normal", func(rng *rand.Rand, _ int) float64 { return rng.NormFloat64() }},
		{"gpd-0.25", func(rng *rand.Rand, _ int) float64 {
			return (math.Exp(0.25*rng.ExpFloat64()) - 1) / 0.25
		}},
		{"exp-drift", func(rng *rand.Rand, i int) float64 {
			return rng.ExpFloat64() + 3*math.Sin(2*math.Pi*float64(i)/20_000)
		}},
	}
	resid := make([]float64, 0, refSeeds*steps)
	calib := make([]float64, calibN)
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			resid = resid[:0]
			zs := make([]float64, len(seeds))
			alarms := 0
			for k, seed := range seeds {
				rng := rand.New(rand.NewSource(seed))
				for i := range calib {
					calib[i] = s.draw(rng, i)
				}
				b := NewBank(1, level, q, depth)
				if err := b.Fit(0, calib); err != nil {
					t.Fatal(err)
				}
				for i := calibN; i < calibN+steps; i++ {
					x := s.draw(rng, i)
					if k < refSeeds {
						resid = append(resid, x-b.Baseline(0))
					}
					fired, err := b.Step(0, x)
					if err != nil {
						t.Fatal(err)
					}
					if fired {
						alarms++
					}
				}
				zs[k] = b.Threshold(0)
			}
			rate := float64(alarms) / float64(len(seeds)*steps)
			ref := stats.QuantileInPlace(resid, 1-q)
			z := stats.Median(zs)
			t.Logf("pooled alarm rate %.2f× q; median z %.4f, reference %.4f (%+.1f %%); z per seed %.3f",
				rate/q, z, ref, 100*(z/ref-1), zs)
			if rate < q/2 || rate > 2*q {
				t.Errorf("pooled alarm rate %.5f (%.2f× q) outside [q/2, 2q]", rate, rate/q)
			}
			if math.Abs(z/ref-1) > 0.10 {
				t.Errorf("median z %.4f is %+.1f %% from the 1−q residual quantile %.4f, outside ±10 %%", z, 100*(z/ref-1), ref)
			}
		})
	}
}
