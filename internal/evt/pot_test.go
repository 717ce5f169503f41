package evt

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	_ "unsafe" // go:linkname
)

// tensorUseVector is internal/tensor's kernel dispatch variable, reached by
// linkname (it is unexported there on purpose) so that POT's oracle runs
// over both of LogRow's paths.
//
//go:linkname tensorUseVector aero/internal/tensor.useVector
var tensorUseVector bool

// eachKernelPath runs f on tensor's vector leaves (skipped where its init
// probe said no) and on its Go loops.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	probed := tensorUseVector
	defer func() { tensorUseVector = probed }()
	t.Run("vector", func(t *testing.T) {
		if !probed {
			t.Skip("internal/tensor's probe chose the Go loops on this host: nothing to compare")
		}
		f(t)
	})
	tensorUseVector = false
	t.Run("scalar", f)
}

// checkPOTMatchesRef fails unless POT and the sort-based reference agree on
// every bit of the threshold, on the counts and on whether an error is
// returned, and POT left scores as it found them.
func checkPOTMatchesRef(t *testing.T, scores []float64, level, q float64) {
	t.Helper()
	before := append([]float64(nil), scores...)
	got, gotErr := POT(scores, level, q)
	for i := range scores {
		if math.Float64bits(scores[i]) != math.Float64bits(before[i]) {
			t.Fatalf("n=%d level=%v q=%v: POT rewrote scores[%d] from %v to %v", len(scores), level, q, i, before[i], scores[i])
		}
	}
	want, wantErr := potSortRef(scores, level, q)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if (gotErr == nil) != (wantErr == nil) || !same(got.Init, want.Init) || !same(got.Z, want.Z) ||
		!same(got.Model.Gamma, want.Model.Gamma) || !same(got.Model.Sigma, want.Model.Sigma) ||
		got.Peaks != want.Peaks || got.N != want.N {
		t.Fatalf("n=%d level=%v q=%v:\nPOT       %+v err %v\nreference %+v err %v", len(scores), level, q, got, gotErr, want, wantErr)
	}
}

// TestPOTMatchesSortRef is the oracle that lets the sort go: on data shaped
// like calibration scores and on data built to break a selection — ties,
// runs of zeros, NaN and ±Inf, sizes from one score up — POT's threshold is
// the sort-based one bit for bit, on both of the Grimshaw scan's log paths.
func TestPOTMatchesSortRef(t *testing.T) {
	dists := []struct {
		name string
		draw func(rng *rand.Rand) float64
	}{
		{"normal", func(rng *rand.Rand) float64 { return rng.NormFloat64() }},
		{"half-normal", func(rng *rand.Rand) float64 { return math.Abs(rng.NormFloat64()) }},
		{"exponential", func(rng *rand.Rand) float64 { return rng.ExpFloat64() }},
		{"heavy", func(rng *rand.Rand) float64 { return math.Pow(1-rng.Float64(), -0.5) - 1 }}, // GPD, γ = σ = 1/2
		{"integer", func(rng *rand.Rand) float64 { return float64(rng.Intn(6)) }},
		{"sparse-zeros", func(rng *rand.Rand) float64 {
			if rng.Intn(10) != 0 {
				return 0
			}
			return rng.ExpFloat64()
		}},
		{"nan-inf", func(rng *rand.Rand) float64 {
			switch r := rng.Intn(50); {
			case r < 3:
				return math.NaN()
			case r < 5:
				return math.Inf(1)
			case r < 6:
				return math.Inf(-1)
			}
			return rng.ExpFloat64()
		}},
	}
	var ns []int
	for n := 1; n <= 24; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 31, 32, 33, 50, 64, 99, 100, 128, 200, 255, 256, 500, 999, 1000, 1024, 1980, 2047, 2048, 3000)

	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		for _, d := range dists {
			for _, n := range ns {
				for range 2 {
					scores := make([]float64, n)
					for i := range scores {
						scores[i] = d.draw(rng)
					}
					level := 0.9 + 0.09*rng.Float64()
					q := math.Pow(10, -4+2*rng.Float64())
					checkPOTMatchesRef(t, scores, level, q)
				}
			}
		}
	})
}

// decodeScores turns fuzz bytes into calibration scores. The first byte
// picks the shape: raw float64 bit patterns, small integers (ties), or
// 16-bit uniforms through −log (an exponential tail). Raw patterns are
// canonicalised to +0 and one NaN: sort.Float64s orders −0 and +0, and NaNs
// of any payload, as equal and is unstable, so which of two such values it
// puts at a rank depends on the sort's algorithm and not its order, and a
// selection may put the other one there.
func decodeScores(data []byte) []float64 {
	const maxScores = 4096
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0]%3, data[1:]
	var out []float64
	switch mode {
	case 0:
		for ; len(data) >= 8 && len(out) < maxScores; data = data[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if x == 0 {
				x = 0
			} else if math.IsNaN(x) {
				x = math.NaN()
			}
			out = append(out, x)
		}
	case 1:
		for _, b := range data[:min(len(data), maxScores)] {
			out = append(out, float64(b%16))
		}
	default:
		for ; len(data) >= 2 && len(out) < maxScores; data = data[2:] {
			u := float64(binary.LittleEndian.Uint16(data)) + 1
			out = append(out, -math.Log(u/65537))
		}
	}
	return out
}

// FuzzPOT holds POT to the sort-based reference on arbitrary scores, levels
// and tail probabilities; a level or q outside (0, 1) must be an error. The
// seed corpus (testdata/fuzz/FuzzPOT) covers each decoding with the paper's
// protocol and the fallback, and the NaN q and level 1.5 that used to panic
// and to calibrate silently wrong.
func FuzzPOT(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, level, q float64) {
		scores := decodeScores(data)
		if CheckPOTParams(level, q) != nil {
			if _, err := POT(scores, level, q); err == nil {
				t.Fatalf("POT accepted level %v, q %v", level, q)
			}
			return
		}
		checkPOTMatchesRef(t, scores, level, q)
	})
}

// TestPOTRejectsBadParams is the guard for the panic a NaN q caused (the
// order-statistic index came out of int(NaN)) and for the levels that
// calibrated silently wrong: POT, and SPOT.Fit on top of it, reject any
// level or q outside (0, 1).
func TestPOTRejectsBadParams(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	scores := make([]float64, 2000)
	for i := range scores {
		scores[i] = rng.ExpFloat64()
	}
	nan := math.NaN()
	for _, tc := range []struct {
		level, q float64
		ok       bool
	}{
		{0.99, 1e-3, true},
		{0.9, 1e-2, true},
		{0.99, nan, false},
		{nan, 1e-3, false},
		{1.5, 1e-3, false},
		{1, 1e-3, false},
		{0, 1e-3, false},
		{-0.5, 1e-3, false},
		{math.Inf(1), 1e-3, false},
		{0.99, 0, false},
		{0.99, 1, false},
		{0.99, -1e-3, false},
		{0.99, math.Inf(-1), false},
	} {
		_, err := POT(scores, tc.level, tc.q)
		if (err == nil) != tc.ok {
			t.Errorf("POT(level %v, q %v): err %v, want ok=%v", tc.level, tc.q, err, tc.ok)
		}
		if err := newSPOT(tc.level, tc.q).Fit(scores); (err == nil) != tc.ok {
			t.Errorf("SPOT.Fit(level %v, q %v): err %v, want ok=%v", tc.level, tc.q, err, tc.ok)
		}
	}
}
