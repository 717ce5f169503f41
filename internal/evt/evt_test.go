package evt

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sampleGPD draws n samples from GPD(gamma, sigma) by inverse transform.
func sampleGPD(gamma, sigma float64, n int, rng *rand.Rand) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := rng.Float64()
		if math.Abs(gamma) < 1e-12 {
			out[i] = -sigma * math.Log(1-u)
		} else {
			out[i] = sigma / gamma * (math.Pow(1-u, -gamma) - 1)
		}
	}
	return out
}

func TestFitGPDRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ gamma, sigma float64 }{
		{0.0, 1.0},
		{0.2, 2.0},
		{-0.2, 1.5},
		{0.4, 0.5},
	} {
		y := sampleGPD(tc.gamma, tc.sigma, 5000, rng)
		g := FitGPD(y)
		if math.Abs(g.Gamma-tc.gamma) > 0.12 {
			t.Errorf("gamma: got %.3f want %.3f", g.Gamma, tc.gamma)
		}
		if math.Abs(g.Sigma-tc.sigma)/tc.sigma > 0.15 {
			t.Errorf("sigma: got %.3f want %.3f", g.Sigma, tc.sigma)
		}
	}
}

func TestFitGPDMomentsExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	y := sampleGPD(0, 2.0, 8000, rng)
	g := FitGPDMoments(y)
	if math.Abs(g.Gamma) > 0.1 {
		t.Errorf("gamma: got %.3f want ~0", g.Gamma)
	}
	if math.Abs(g.Sigma-2.0) > 0.25 {
		t.Errorf("sigma: got %.3f want ~2", g.Sigma)
	}
}

func TestFitGPDDegenerateInputs(t *testing.T) {
	// Must not panic or return invalid scale.
	for _, y := range [][]float64{
		{},
		{1},
		{1, 1, 1, 1},
		{0.5, 0.5},
	} {
		g := FitGPD(y)
		if !(g.Sigma > 0) {
			t.Fatalf("sigma must stay positive, got %v for %v", g.Sigma, y)
		}
	}
}

func TestGPDLogLikelihoodPrefersTrueParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	y := sampleGPD(0.3, 1.0, 4000, rng)
	good := GPD{Gamma: 0.3, Sigma: 1.0}
	bad := GPD{Gamma: -0.3, Sigma: 3.0}
	if good.LogLikelihood(y) <= bad.LogLikelihood(y) {
		t.Fatal("true parameters should have higher likelihood")
	}
}

func TestGPDQuantileExponentialLimit(t *testing.T) {
	g := GPD{Gamma: 0, Sigma: 1}
	// z = t - sigma*ln(q n / Npeaks)
	z := g.Quantile(10, 0.001, 10000, 100)
	want := 10 - math.Log(0.001*10000/100)
	if math.Abs(z-want) > 1e-9 {
		t.Fatalf("got %v want %v", z, want)
	}
}

func TestPOTThresholdAboveInit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	scores := make([]float64, 5000)
	for i := range scores {
		scores[i] = math.Abs(rng.NormFloat64())
	}
	th, err := POT(scores, 0.99, 0.001)
	if err != nil {
		t.Fatalf("POT: %v", err)
	}
	if th.Z < th.Init {
		t.Fatalf("threshold %v below init %v", th.Z, th.Init)
	}
	if th.Peaks < 8 {
		t.Fatalf("too few peaks: %d", th.Peaks)
	}
	// Empirically, almost everything should fall below z.
	above := 0
	for _, s := range scores {
		if s >= th.Z {
			above++
		}
	}
	if frac := float64(above) / float64(len(scores)); frac > 0.01 {
		t.Fatalf("%.3f of calibration scores above threshold", frac)
	}
}

func TestPOTMonotonicInQ(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	scores := make([]float64, 4000)
	for i := range scores {
		scores[i] = rng.ExpFloat64()
	}
	t1, err1 := POT(scores, 0.98, 1e-2)
	t2, err2 := POT(scores, 0.98, 1e-4)
	if err1 != nil || err2 != nil {
		t.Fatalf("POT errors: %v %v", err1, err2)
	}
	if !(t2.Z > t1.Z) {
		t.Fatalf("smaller q must give larger threshold: q=1e-2→%v q=1e-4→%v", t1.Z, t2.Z)
	}
}

func TestPOTEmptyInput(t *testing.T) {
	if _, err := POT(nil, 0.99, 1e-3); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestPOTConstantScoresFallsBack(t *testing.T) {
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = 1
	}
	th, _ := POT(scores, 0.99, 1e-3)
	if math.IsNaN(th.Z) || math.IsInf(th.Z, 0) {
		t.Fatalf("unusable fallback threshold %v", th.Z)
	}
}

func TestSPOTFlagsInjectedExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	init := make([]float64, 3000)
	for i := range init {
		init[i] = math.Abs(rng.NormFloat64())
	}
	s := newSPOT(0.99, 1e-3)
	if err := s.Fit(init); err != nil {
		t.Fatalf("fit: %v", err)
	}
	// Normal stream: should rarely alarm.
	alarms := 0
	for i := 0; i < 2000; i++ {
		if fired, _ := s.Step(math.Abs(rng.NormFloat64())); fired {
			alarms++
		}
	}
	if alarms > 20 {
		t.Fatalf("too many false alarms on normal data: %d", alarms)
	}
	// Extreme values: must alarm.
	if fired, _ := s.Step(100); !fired {
		t.Fatal("missed an extreme value")
	}
}

// TestSPOTStepBeforeFitTypedError is the regression test for the old
// behavior, where an unwarmed Step panicked and could take an engine
// shard worker down with it: Step before Fit must instead report
// ErrNotReady, for both the SPOT rule and a DSPOT bank, and leave the
// detector usable once Fit eventually runs.
func TestSPOTStepBeforeFitTypedError(t *testing.T) {
	s := newSPOT(0.99, 1e-3)
	if fired, err := s.Step(1); !errors.Is(err, ErrNotReady) || fired {
		t.Fatalf("SPOT.Step before Fit: got (%v, %v), want (false, ErrNotReady)", fired, err)
	}
	d := NewBank(1, 0.99, 1e-3, 5)
	if fired, err := d.Step(0, 1); !errors.Is(err, ErrNotReady) || fired {
		t.Fatalf("DSPOT.Step before Fit: got (%v, %v), want (false, ErrNotReady)", fired, err)
	}
	// The failed step must not have corrupted anything: Fit afterwards
	// yields a working detector.
	rng := rand.New(rand.NewSource(8))
	init := make([]float64, 2000)
	for i := range init {
		init[i] = math.Abs(rng.NormFloat64())
	}
	if err := s.Fit(init); err != nil {
		t.Fatalf("fit after failed step: %v", err)
	}
	if fired, err := s.Step(100); err != nil || !fired {
		t.Fatalf("step after fit: got (%v, %v), want (true, nil)", fired, err)
	}
}

// TestSPOTCountsExceedancesAtFixedLevel: live scores in (t, z] are
// counted as exceedances, every score that does not alarm as an
// observation, and the level stays where calibration set it.
func TestSPOTCountsExceedancesAtFixedLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	init := make([]float64, 2000)
	for i := range init {
		init[i] = rng.ExpFloat64()
	}
	s := newSPOT(0.98, 1e-3)
	if err := s.Fit(init); err != nil {
		t.Fatalf("fit: %v", err)
	}
	t0, z0, peaks0, n0 := s.t, s.Threshold(), s.peaks, s.n
	var alarms, exceed int
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64()
		fired, err := s.Step(x)
		if err != nil || fired != (x > z0) {
			t.Fatalf("step %d (%v): fired %v, err %v; level %v", i, x, fired, err, z0)
		}
		switch {
		case fired:
			alarms++
		case x > t0:
			exceed++
		}
	}
	if exceed == 0 {
		t.Fatal("no score fell in (t, z]; the count is untested")
	}
	if s.Threshold() != z0 || s.t != t0 {
		t.Fatalf("level moved from (%v, %v) to (%v, %v)", t0, z0, s.t, s.Threshold())
	}
	if s.peaks != peaks0+exceed || s.n != n0+500-alarms {
		t.Fatalf("counts peaks %d, n %d; want %d, %d", s.peaks, s.n, peaks0+exceed, n0+500-alarms)
	}
}

func BenchmarkFitGPD(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	y := sampleGPD(0.2, 1, 500, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitGPD(y)
	}
}

func BenchmarkPOT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make([]float64, 10000)
	for i := range scores {
		scores[i] = math.Abs(rng.NormFloat64())
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := POT(scores, 0.99, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
