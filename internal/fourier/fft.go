// Package fourier implements the discrete Fourier transform for arbitrary
// lengths: an iterative radix-2 Cooley–Tukey kernel for powers of two and
// Bluestein's chirp-z algorithm for everything else. It backs the spectral
// residual baseline, TimesNet's period detection, and periodogram utilities.
//
// Twiddle factors and Bluestein plans (chirp sequence plus the
// pre-transformed chirp filter) are computed once per length and cached in
// concurrency-safe maps: Periodogram is called per-series by the SR and
// FluxEV baselines, and recomputing the trigonometry dominated small
// transforms.
package fourier

import (
	"math"
	"sync"
)

// twiddles holds the per-length radix-2 twiddle tables: fwd[j] = e^{-2πij/n}
// and inv[j] = e^{+2πij/n} for j < n/2. A stage of length L indexes the
// table with stride n/L. Tables are immutable once built.
type twiddles struct {
	fwd, inv []complex128
}

var twiddleCache sync.Map // int -> *twiddles

func twiddlesFor(n int) *twiddles {
	if cached, ok := twiddleCache.Load(n); ok {
		return cached.(*twiddles)
	}
	tw := &twiddles{fwd: make([]complex128, n/2), inv: make([]complex128, n/2)}
	for j := 0; j < n/2; j++ {
		ang := 2 * math.Pi * float64(j) / float64(n)
		s, c := math.Sincos(ang)
		tw.fwd[j] = complex(c, -s)
		tw.inv[j] = complex(c, s)
	}
	cached, _ := twiddleCache.LoadOrStore(n, tw)
	return cached.(*twiddles)
}

// bluesteinPlan holds the length-dependent, sign-dependent constants of the
// chirp-z transform: the chirp sequence and the radix-2 FFT of the chirp
// filter, both reused verbatim by every transform of the same length.
type bluesteinPlan struct {
	m     int          // padded power-of-two convolution length
	chirp []complex128 // chirp[k] = exp(sign·iπk²/n)
	bfft  []complex128 // FFT of the conjugate-chirp filter, length m
}

type bluesteinKey struct {
	n       int
	inverse bool
}

var bluesteinCache sync.Map // bluesteinKey -> *bluesteinPlan

func bluesteinPlanFor(n int, inverse bool) *bluesteinPlan {
	key := bluesteinKey{n, inverse}
	if cached, ok := bluesteinCache.Load(key); ok {
		return cached.(*bluesteinPlan)
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign * i*pi*k^2/n); use k^2 mod 2n to avoid overflow.
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		chirp[k] = complex(math.Cos(ang), math.Sin(ang))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		bc := complex(real(chirp[k]), -imag(chirp[k])) // conj
		b[k] = bc
		if k > 0 {
			b[m-k] = bc
		}
	}
	radix2(b, false)
	plan := &bluesteinPlan{m: m, chirp: chirp, bfft: b}
	cached, _ := bluesteinCache.LoadOrStore(key, plan)
	return cached.(*bluesteinPlan)
}

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Any length is supported (Bluestein for non powers of two).
func FFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	if isPow2(n) {
		radix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// IFFT returns the inverse discrete Fourier transform of x (normalized by
// 1/n so that IFFT(FFT(x)) == x).
func IFFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	if isPow2(n) {
		radix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FFTReal transforms a real-valued signal.
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	return FFT(cx)
}

// Amplitudes returns |X_k| for every bin of the spectrum.
func Amplitudes(spec []complex128) []float64 {
	out := make([]float64, len(spec))
	for i, c := range spec {
		out[i] = math.Hypot(real(c), imag(c))
	}
	return out
}

// Periodogram returns the single-sided power spectrum of a real signal:
// bins 1..n/2 with power |X_k|²/n, along with the corresponding periods
// (n/k in samples). Bin 0 (the mean) is excluded.
func Periodogram(x []float64) (power []float64, period []float64) {
	n := len(x)
	if n < 2 {
		return nil, nil
	}
	spec := FFTReal(x)
	half := n / 2
	power = make([]float64, half)
	period = make([]float64, half)
	for k := 1; k <= half; k++ {
		c := spec[k]
		power[k-1] = (real(c)*real(c) + imag(c)*imag(c)) / float64(n)
		period[k-1] = float64(n) / float64(k)
	}
	return power, period
}

func isPow2(n int) bool { return n&(n-1) == 0 }

// radix2 performs an in-place iterative Cooley–Tukey FFT using the cached
// per-length twiddle table. inverse selects the conjugate table
// (normalization is the caller's responsibility). The direct table lookup
// is both faster and more accurate than the sequential w *= wl recurrence
// it replaced.
func radix2(a []complex128, inverse bool) {
	n := len(a)
	// bit-reversal permutation
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	tw := twiddlesFor(n).fwd
	if inverse {
		tw = twiddlesFor(n).inv
	}
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		stride := n / length
		for i := 0; i < n; i += length {
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * tw[j*stride]
				a[i+j] = u + v
				a[i+j+half] = u - v
			}
		}
	}
}

// bluestein computes the DFT of arbitrary length via the chirp-z transform,
// expressing it as a convolution evaluated with a padded radix-2 FFT. The
// chirp sequence and the transformed chirp filter come from the per-length
// plan cache, so each call performs two FFTs instead of three.
func bluestein(x []complex128, inverse bool) []complex128 {
	n := len(x)
	plan := bluesteinPlanFor(n, inverse)
	a := make([]complex128, plan.m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * plan.chirp[k]
	}
	radix2(a, false)
	for i := range a {
		a[i] *= plan.bfft[i]
	}
	radix2(a, true)
	invM := complex(1/float64(plan.m), 0)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		out[k] = a[k] * invM * plan.chirp[k]
	}
	return out
}
