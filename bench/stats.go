package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

var epoch = time.Now()

// now is the bench's one clock: monotonic nanoseconds since process
// start. Every stamp in a run — generator, decorators, tap — reads it, so
// stamps from different goroutines subtract directly.
func now() int64 { return int64(time.Since(epoch)) }

// cpuNanos is the process's user+system CPU time so far. The sum is what
// the kernel accounts exactly; the user/system split is tick-sampled and
// is not reported.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// quantile returns the q-quantile of sorted samples by the nearest-rank
// rule (the smallest sample with at least q of the samples at or below
// it); 0 for an empty slice.
func quantile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy[T int64 | uint32 | float64](xs []T) []T {
	out := append([]T(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of unsorted values; 0 for none.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// refKernel is the frozen reference kernel: a fixed float64 matrix
// product whose code and size must never change, timed for about dur so a
// run can tell "the host got slower" from "the program got slower". It is
// a warning beside the results, never a divisor (normalising by it made
// run-to-run spread worse, see README). Returns the median milliseconds
// per call.
func refKernel(dur time.Duration) float64 {
	const n = 160
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
		b[i] = float64(i%5) * 0.5
	}
	var ms []float64
	for start := now(); now()-start < int64(dur) || len(ms) < 3; {
		t0 := now()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for k := 0; k < n; k++ {
					s += a[i*n+k] * b[k*n+j]
				}
				c[i*n+j] = s
			}
		}
		ms = append(ms, float64(now()-t0)/1e6)
	}
	refSink = c[n+1]
	return median(ms)
}

var refSink float64
