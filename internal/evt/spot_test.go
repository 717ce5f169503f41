package evt

import (
	"math"
	"math/rand"
	"testing"
)

// spot drives star 0 of a one-star bank through the SPOT rule alone, on
// raw scores with no drift window: the tail model as Siffer et al. state
// it. The tests reach the bank's config and the star's fields through it.
type spot struct {
	*Bank
	*tail
}

// newSPOT returns an unfitted SPOT.
func newSPOT(level, q float64) spot {
	b := NewBank(1, level, q, 1)
	return spot{&b, &b.stars[0]}
}

func (s spot) Fit(init []float64) error     { return s.fitTail(s.tail, init) }
func (s spot) Step(x float64) (bool, error) { return s.stepTail(x) }
func (s spot) Threshold() float64           { return s.z }

// spotCalib is the shared calibration batch for the SPOT policy tests:
// heavy-ish one-sided noise, the shape of an anomaly-score stream.
func spotCalib(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Abs(rng.NormFloat64())
	}
	return out
}

// TestSPOTStepBenignAllocs pins every Step path at zero allocations: the
// benign step, the exceedance step that counts a score in (t, z], and the
// alarm. A star's state is its scalars and its slot in the bank's window
// slab, so no path has anything to grow.
func TestSPOTStepBenignAllocs(t *testing.T) {
	s := newSPOT(0.99, 1e-3)
	if err := s.Fit(spotCalib(71, 3000)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		x      float64
		fired  bool
		counts int // exceedances the step counts
	}{
		{"benign", 0, false, 0},
		{"exceedance", (s.t + s.z) / 2, false, 1},
		{"alarm", s.z + 1, true, 0},
	} {
		peaks := s.peaks
		if fired, err := s.Step(c.x); err != nil || fired != c.fired {
			t.Fatalf("%s step: fired %v, err %v; want fired %v", c.name, fired, err, c.fired)
		}
		if s.peaks-peaks != c.counts {
			t.Fatalf("%s step counted %d exceedances, want %d", c.name, s.peaks-peaks, c.counts)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Step(c.x) }); allocs != 0 {
			t.Fatalf("%s Step allocates %.1f objects, want 0", c.name, allocs)
		}
	}
}

// BenchmarkSPOTStep measures the three Step paths: the benign step, the
// exceedance step and the alarm. Each is a comparison or two and a
// counter increment.
func BenchmarkSPOTStep(b *testing.B) {
	s := newSPOT(0.99, 1e-3)
	if err := s.Fit(spotCalib(81, 3000)); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		x    float64
	}{
		{"benign", 0.1},
		{"exceedance", (s.t + s.z) / 2},
		{"alarm", s.z + 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				s.Step(c.x)
			}
		})
	}
}
