package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Powers of two and awkward sizes (prime, composite).
	for _, n := range []int{1, 2, 4, 8, 16, 64, 3, 5, 7, 12, 30, 97, 100} {
		x := randComplex(n, rng)
		if e := maxErr(FFT(x), naiveDFT(x)); e > 1e-8 {
			t.Fatalf("n=%d: max error %g vs naive DFT", n, e)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(128)
		x := randComplex(n, rng)
		return maxErr(IFFT(FFT(x)), x) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 24
	x := randComplex(n, rng)
	y := randComplex(n, rng)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = 2*x[i] + 3*y[i]
	}
	fx, fy, fs := FFT(x), FFT(y), FFT(sum)
	for i := range fs {
		if cmplx.Abs(fs[i]-(2*fx[i]+3*fy[i])) > 1e-9 {
			t.Fatal("FFT not linear")
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 33} {
		x := randComplex(n, rng)
		var et float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		var ef float64
		for _, v := range FFT(x) {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(et-ef/float64(n)) > 1e-8*math.Max(1, et) {
			t.Fatalf("Parseval violated: time %g freq/n %g", et, ef/float64(n))
		}
	}
}

func TestFFTRealOfSinusoidPeaksAtFrequency(t *testing.T) {
	n := 256
	k := 17
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k) * float64(i) / float64(n))
	}
	spec := FFTReal(x)
	best := 0
	for i := 1; i < n/2; i++ {
		if cmplx.Abs(spec[i]) > cmplx.Abs(spec[best]) {
			best = i
		}
	}
	if best != k {
		t.Fatalf("dominant bin %d, want %d", best, k)
	}
}

func TestPeriodogramDetectsPeriod(t *testing.T) {
	n := 400
	period := 50.0
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi / period * float64(i))
	}
	power, periods := Periodogram(x)
	best := 0
	for i := range power {
		if power[i] > power[best] {
			best = i
		}
	}
	if math.Abs(periods[best]-period) > 1.0 {
		t.Fatalf("detected period %.1f, want %.1f", periods[best], period)
	}
}

func TestPeriodogramShortInput(t *testing.T) {
	if p, _ := Periodogram([]float64{1}); p != nil {
		t.Fatal("expected nil for too-short input")
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5}
	orig := append([]complex128(nil), x...)
	FFT(x)
	IFFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("input modified")
		}
	}
}

// TestFFTConcurrentPlanCache exercises the twiddle/Bluestein plan caches
// from many goroutines hitting the same fresh lengths at once (run with
// -race): every transform must agree with a serially computed reference.
func TestFFTConcurrentPlanCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Lengths chosen to avoid the package's other tests so the caches are
	// cold: one power of two, one prime (Bluestein).
	inputs := [][]complex128{randComplex(512, rng), randComplex(509, rng)}
	want := [][]complex128{FFT(inputs[0]), FFT(inputs[1])}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := inputs[g%2]
			got := FFT(x)
			for i := range got {
				if got[i] != want[g%2][i] {
					errs <- "concurrent FFT diverged from serial reference"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(1024, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randComplex(1000, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}
