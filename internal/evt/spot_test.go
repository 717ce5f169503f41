package evt

import (
	"encoding/json"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// spot drives star 0 of a one-star bank through the SPOT rule alone, on
// raw scores with no drift window: the tail model as Siffer et al. state
// it. The tests reach the bank's config and the star's fields through it.
type spot struct {
	*Bank
	*tail
}

// newSPOT returns an unfitted SPOT that fits on every exceedance, as
// NewDSPOT does; clear exact before Fit for the serving schedule.
func newSPOT(level, q float64) spot {
	b := NewBank(1, level, q, 1)
	b.exact = true
	return spot{&b, &b.stars[0]}
}

func (s spot) Fit(init []float64) error     { return s.fitTail(s.tail, init) }
func (s spot) Step(x float64) (bool, error) { return s.stepTail(s.tail, x) }
func (s spot) Threshold() float64           { return s.z }
func (s spot) State() SPOTState             { return s.tailState(s.tail) }
func (s spot) SetState(st SPOTState) error  { return s.setTailState(s.tail, st) }

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

// TestSPOTStateBounded pins the fix for the unbounded excess buffer: after
// a million steps of in-tail traffic the retained state — and therefore
// every snapshot and every refit — stays capped at maxExcesses, in exact
// mode too.
func TestSPOTStateBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		exact bool
	}{
		{"exact", true},
		{"amortized", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSPOT(0.99, 1e-3)
			s.exact = tc.exact
			if err := s.Fit(spotCalib(11, 3000)); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(12))
			for i := 0; i < 1_000_000; i++ {
				// In-tail with probability ~1/4 keeps the ring churning far
				// past its capacity without tripping alarms every step.
				x := math.Abs(rng.NormFloat64())
				if rng.Intn(4) == 0 {
					x = s.t + 0.1*(s.z-s.t)*rng.Float64()
				}
				s.Step(x)
			}
			if ringLimit(s.tail) != maxExcesses {
				t.Fatalf("ring limit drifted: %d, want %d", ringLimit(s.tail), maxExcesses)
			}
			st := s.State()
			if len(st.Excesses) > maxExcesses {
				t.Fatalf("retained %d excesses, cap %d", len(st.Excesses), maxExcesses)
			}
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			// ~25 bytes/float is a generous ceiling; the pre-fix behavior
			// would be megabytes here (hundreds of thousands of excesses).
			if len(blob) > 32*1024 {
				t.Fatalf("snapshot is %d bytes after 1e6 steps; state is not bounded", len(blob))
			}
			if s.peaks < maxExcesses {
				t.Fatalf("test fed only %d exceedances; ring never overflowed", s.peaks)
			}
		})
	}
}

// TestSPOTSnapshotRoundTripAfterEviction pins resume bit-identity once the
// serving schedule's ring has wrapped: State/SetState must carry the
// eviction cursor and the incrementally-maintained sufficient statistics
// verbatim (recomputing the sums from the slice is NOT bit-identical to
// the +=/-= history).
func TestSPOTSnapshotRoundTripAfterEviction(t *testing.T) {
	mk := func() spot {
		s := newSPOT(0.99, 1e-3)
		s.exact = false
		if err := s.Fit(spotCalib(21, 2000)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	feed := func(s spot, seed int64, n int) []bool {
		rng := rand.New(rand.NewSource(seed))
		out := make([]bool, n)
		for i := range out {
			x := math.Abs(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				x = s.t + 0.2*(s.z-s.t)*rng.Float64()
			}
			out[i], _ = s.Step(x)
		}
		return out
	}

	full := mk()
	want := feed(full, 31, 4000)

	cut := mk()
	feed(cut, 31, 2000) // identical prefix (same seed, same stream)
	blob, err := json.Marshal(cut.State())
	if err != nil {
		t.Fatal(err)
	}
	var st SPOTState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	resumed := newSPOT(0.99, 1e-3)
	resumed.exact = false
	if err := resumed.SetState(st); err != nil {
		t.Fatal(err)
	}
	if resumed.peaks <= maxExcesses || resumed.evict == 0 {
		t.Fatalf("ring never wrapped (peaks %d); eviction round-trip untested", resumed.peaks)
	}
	if resumed.sum != cut.sum || resumed.sumsq != cut.sumsq || resumed.evict != cut.evict {
		t.Fatalf("bookkeeping did not round-trip: sum %v/%v sumsq %v/%v evict %d/%d",
			resumed.sum, cut.sum, resumed.sumsq, cut.sumsq, resumed.evict, cut.evict)
	}

	// Continue the cut stream on the restored detector: every verdict and
	// the final threshold must equal the uninterrupted run's exactly. The
	// loop first burns through the prefix to advance the RNG to the cut
	// point (each step draws the same number of variates regardless of
	// detector state, so the suffix stream matches the full run's), then
	// resets to the snapshot and checks the suffix for identity.
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 4000; i++ {
		x := math.Abs(rng.NormFloat64())
		if rng.Intn(3) == 0 {
			x = resumed.t + 0.2*(resumed.z-resumed.t)*rng.Float64()
		}
		if i < 2000 {
			if i == 1999 {
				resumed = newSPOT(0.99, 1e-3)
				resumed.exact = false
				if err := resumed.SetState(st); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if fired, _ := resumed.Step(x); fired != want[i] {
			t.Fatalf("resumed verdict %d: got %v want %v", i, fired, want[i])
		}
	}
	if resumed.z != full.z {
		t.Fatalf("resumed threshold %v != uninterrupted %v", resumed.z, full.z)
	}
}

// TestSPOTLegacySnapshotCompat: snapshots taken before the ring rework lack
// the bookkeeping fields; SetState must detect them (Peaks < len(Excesses))
// and derive exact equivalents, so old engine checkpoints keep restoring.
func TestSPOTLegacySnapshotCompat(t *testing.T) {
	s := newSPOT(0.99, 1e-3)
	if err := s.Fit(spotCalib(41, 2000)); err != nil {
		t.Fatal(err)
	}
	legacy := SPOTState{
		Level: s.level, Q: s.q, T: s.t, Z: s.z, Model: s.model,
		Excesses: append([]float64(nil), s.excesses...), N: s.n, Ready: true,
	}
	r := newSPOT(0.99, 1e-3)
	if err := r.SetState(legacy); err != nil {
		t.Fatal(err)
	}
	if r.peaks != len(legacy.Excesses) {
		t.Fatalf("derived peaks %d, want %d", r.peaks, len(legacy.Excesses))
	}
	var sum, sumsq float64
	for _, e := range legacy.Excesses {
		sum += e
		sumsq += e * e
	}
	if r.sum != sum || r.sumsq != sumsq {
		t.Fatalf("derived sums %v/%v, want %v/%v", r.sum, r.sumsq, sum, sumsq)
	}
	if !r.fitted {
		t.Fatal("legacy state with a fitted model restored as unfitted")
	}
	if fired, err := r.Step(r.z + 1); err != nil || !fired {
		t.Fatalf("restored legacy detector does not alarm above z (fired %v, err %v)", fired, err)
	}
}

// TestSPOTAmortizedTracksExact is the approximation property test: on
// drifting score streams, the amortized policy's threshold must stay
// within a pinned relative tolerance of the exact policy's at every step,
// and converge to it at each refit boundary.
func TestSPOTAmortizedTracksExact(t *testing.T) {
	for _, seed := range []int64{51, 52, 53} {
		exact := newSPOT(0.99, 1e-3)
		amort := newSPOT(0.99, 1e-3)
		amort.exact = false
		calib := spotCalib(seed, 3000)
		if err := exact.Fit(calib); err != nil {
			t.Fatal(err)
		}
		if err := amort.Fit(calib); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		scale := 1.0
		worst := 0.0
		for i := 0; i < 20000; i++ {
			// Slow variance drift: the tail the models chase keeps moving.
			scale *= 1 + 0.0002*rng.NormFloat64()
			if scale < 0.25 {
				scale = 0.25
			}
			x := scale * math.Abs(rng.NormFloat64())
			exact.Step(x)
			amort.Step(x)
			if d := math.Abs(amort.z-exact.z) / exact.z; d > worst {
				worst = d
			}
		}
		if worst > 0.35 {
			t.Fatalf("seed %d: amortized threshold strayed %.1f%% from exact (tolerance 35%%)", seed, 100*worst)
		}
		// Exact mode pays one fit per exceedance; the drifting stream keeps
		// scores near the moving threshold, so the boundary guard fires
		// often here — amortization must still cut fits several-fold.
		rs := amort.RefitStats()
		if rs.Refits*3 > rs.Exceedances {
			t.Fatalf("amortization vacuous: %d refits for %d exceedances", rs.Refits, rs.Exceedances)
		}
	}
}

// TestSPOTExactPolicyBitIdentical pins the exact-mode contract directly:
// under Every=1 the new ring-based implementation must walk through
// byte-for-byte the same fits as the textbook update (a full FitGPD over
// all retained excesses per exceedance), pre-overflow.
func TestSPOTExactPolicyBitIdentical(t *testing.T) {
	s := newSPOT(0.99, 1e-3)
	if err := s.Fit(spotCalib(61, 2000)); err != nil {
		t.Fatal(err)
	}
	// Shadow reference: the pre-rework update rule, reconstructed.
	excesses := append([]float64(nil), s.excesses...)
	tRef, zRef, n, model := s.t, s.z, s.n, s.model
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 3000; i++ {
		if len(excesses) >= maxExcesses {
			break // identity is only promised pre-overflow
		}
		x := math.Abs(rng.NormFloat64())
		if rng.Intn(3) == 0 {
			x = tRef + 0.3*(zRef-tRef)*rng.Float64()
		}
		fired, _ := s.Step(x)
		var refFired bool
		switch {
		case x > zRef:
			refFired = true
		case x > tRef:
			excesses = append(excesses, x-tRef)
			n++
			if len(excesses) >= 8 {
				model = FitGPD(excesses)
				zRef = model.Quantile(tRef, 1e-3, n, len(excesses))
			}
		default:
			n++
		}
		if fired != refFired {
			t.Fatalf("step %d: verdict %v, textbook %v", i, fired, refFired)
		}
		if s.z != zRef {
			t.Fatalf("step %d: threshold %v, textbook %v (must be bit-identical)", i, s.z, zRef)
		}
	}
	if len(excesses) < 100 {
		t.Fatalf("only %d exceedances exercised; identity check too weak", len(excesses))
	}
}

// TestSPOTStepBenignAllocs pins the serving-path allocation budget: the
// benign step, and the exceedance step on a ring already at its cap, are
// both zero-alloc (the quantile update is arithmetic, and a refit's few
// allocations average out). TestSPOTRingGrowthAllocs covers the ring's
// way to its cap.
func TestSPOTStepBenignAllocs(t *testing.T) {
	s := newSPOT(0.99, 1e-3)
	s.exact = false
	if err := s.Fit(spotCalib(71, 3000)); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Step(0) }); allocs != 0 {
		t.Fatalf("benign Step allocates %.1f objects, want 0", allocs)
	}
	i := 0
	exceed := func() {
		i++
		s.Step(s.t + 0.001 + 0.0001*float64(i%7))
	}
	for len(s.excesses) < maxExcesses {
		exceed()
	}
	if cap(s.excesses) != maxExcesses {
		t.Fatalf("ring at its cap has backing array %d, want %d", cap(s.excesses), maxExcesses)
	}
	if allocs := testing.AllocsPerRun(1000, exceed); allocs != 0 {
		t.Fatalf("exceedance Step on a full ring allocates %.1f objects, want 0", allocs)
	}
}

// TestSPOTRingGrowthAllocs pins what the ring's growth costs: a ring
// restored at 20 excesses reaches the default cap of 256 in at most
// ⌈log₂(256/20)⌉ + 1 = 5 allocations over the whole stream, and its
// backing array never exceeds the limit. The count is taken with
// runtime.MemStats over the stream; testing.AllocsPerRun would average
// the few growth allocations away to 0. MemStats also counts what other
// goroutines allocate meanwhile (the race runtime's, a finished test's
// runner), which only adds, so as AllocsPerRun does the stream runs at
// GOMAXPROCS 1, and it is replayed three times keeping the least count.
func TestSPOTRingGrowthAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fitted := newSPOT(0.99, 1e-3)
	if err := fitted.Fit(spotCalib(72, 2000)); err != nil {
		t.Fatal(err)
	}
	st := fitted.State()
	if len(st.Excesses) != 20 {
		t.Fatalf("calibration left %d excesses, want 20", len(st.Excesses))
	}
	const steps = 2000
	xs := make([]float64, steps)
	for i := range xs {
		xs[i] = st.T + 0.001 + 0.0001*float64(i%7)
	}
	caps := make([]int, steps)
	least := uint64(math.MaxUint64)
	for range 3 {
		s := newSPOT(0.99, 1e-3)
		s.exact = false
		if err := s.SetState(st); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, x := range xs {
			if _, err := s.Step(x); err != nil {
				t.Fatal(err)
			}
			caps[i] = cap(s.excesses)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		for i, c := range caps {
			if c > maxExcesses {
				t.Fatalf("step %d: backing array %d exceeds the ring limit %d", i, c, maxExcesses)
			}
		}
		if len(s.excesses) != maxExcesses || caps[steps-1] != maxExcesses {
			t.Fatalf("ring holds %d excesses in a %d array, want %d in %d", len(s.excesses), caps[steps-1], maxExcesses, maxExcesses)
		}
	}
	if least > 5 {
		t.Fatalf("ring growth from 20 to 256 excesses took %d allocations, want at most 5", least)
	}
}

// TestSPOTRestoreLargerCapEvictsInAgeOrder restores a wrapped 32-excess
// ring, as a checkpoint of an older build with a 32-excess cap holds it
// (slots 0–7 hold the 8 newest of 40 excesses, the cursor names slot 8),
// and feeds it in-tail steps. Once the ring has refilled to maxExcesses
// and wrapped again, it must hold exactly the newest maxExcesses
// excesses, oldest first from the cursor: a stale cursor would evict the
// restored newest 8 after excesses that arrived later.
func TestSPOTRestoreLargerCapEvictsInAgeOrder(t *testing.T) {
	fitted := newSPOT(0.99, 1e-3)
	if err := fitted.Fit(spotCalib(91, 2000)); err != nil {
		t.Fatal(err)
	}
	st := fitted.State()
	// Distinct excesses within a fifth of the margin: far enough below z
	// that the boundary guard never fires, with a tail mean that stays
	// within refitDrift, and fewer steps than refitEvery, so the ring is
	// never refitted and every step stays in the tail.
	m := st.Z - st.T
	excess := func(k int) float64 { return m * (0.05 + 0.15*math.Mod(float64(k)*0.6180339887498949, 1)) }
	const restored, wrapped, steps = 32, 40, 300
	st.Excesses = make([]float64, restored)
	st.Sum, st.SumSq = 0, 0
	for k := wrapped - restored; k < wrapped; k++ {
		e := excess(k)
		st.Excesses[k%restored] = e
		st.Sum += e
		st.SumSq += e * e
	}
	st.Evict, st.Peaks = wrapped%restored, wrapped
	st.SinceRefit, st.RefitMean = 0, st.Sum/restored
	// The feed refills the ring, then evicts past the restored excesses
	// older than slot 0's, all before a count refit is due.
	if steps >= refitEvery || steps-(maxExcesses-restored) <= restored-wrapped%restored {
		t.Fatal("the feed does not wrap the refilled ring past the restored excesses")
	}
	r := newSPOT(0.99, 1e-3)
	r.exact = false
	if err := r.SetState(st); err != nil {
		t.Fatal(err)
	}
	for k := wrapped; k < wrapped+steps; k++ {
		if fired, err := r.Step(st.T + excess(k)); err != nil || fired {
			t.Fatalf("in-tail step %d: fired %v, err %v", k, fired, err)
		}
	}
	if rs := r.RefitStats(); rs.Refits != 0 {
		t.Fatalf("%d refits; the feed was meant to stay between refits", rs.Refits)
	}
	got := append(append([]float64(nil), r.excesses[r.evict:]...), r.excesses[:r.evict]...)
	if len(got) != maxExcesses {
		t.Fatalf("ring holds %d excesses, want %d", len(got), maxExcesses)
	}
	for i, g := range got {
		k := wrapped + steps - maxExcesses + i
		// The ring holds each excess as pushed, x − t.
		if want := (st.T + excess(k)) - st.T; g != want {
			t.Fatalf("ring slot %d from the cursor holds %v, want excess %d (%v): not the newest %d in age order", i, g, k, want, maxExcesses)
		}
	}
}

// BenchmarkSPOTStep measures the three Step paths the refit schedule
// separates: the benign O(1) common case, the amortized in-tail update
// (ring push + O(1) quantile, a refit every refitEvery-th call), and the
// exact mode that pays a full Grimshaw grid fit per exceedance — the
// pre-rework price of every in-tail step.
func BenchmarkSPOTStep(b *testing.B) {
	setup := func(b *testing.B, exact bool) spot {
		b.Helper()
		s := newSPOT(0.99, 1e-3)
		s.exact = exact
		if err := s.Fit(spotCalib(81, 3000)); err != nil {
			b.Fatal(err)
		}
		return s
	}
	b.Run("benign", func(b *testing.B) {
		s := setup(b, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Step(0.1)
		}
	})
	b.Run("exceedance", func(b *testing.B) {
		s := setup(b, false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Step(s.t + 0.001 + 0.0001*float64(i%7))
		}
	})
	b.Run("refit", func(b *testing.B) {
		s := setup(b, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Step(s.t + 0.001 + 0.0001*float64(i%7))
		}
	})
}
