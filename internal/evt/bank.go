package evt

import (
	"fmt"
	"math"
	"time"
)

// Bank is the adaptive tail state of one stage: the drift-aware SPOT
// (Siffer et al., KDD 2017, §4.4) of each of its stars, in one flat
// layout. What the stars share is held once per stage — Level, Q, the
// drift-window depth, the refit schedule and the refit counters. Each
// star's scalars are one element of a per-stage slice, and the drift
// windows are one stars × depth slab; only a star's excess ring is an
// allocation of its own, grown as its exceedances arrive (see
// pushExcess).
//
// The SPOT update rule, the refit schedule and State/SetState are
// written once, here, over star i; DSPOT is a one-star bank. A Bank is
// built by NewBank and used in place: a copy of the value shares its
// slabs, so a second stage takes a Clone.
type Bank struct {
	level, q float64
	exact    bool // a grid-scan fit on every exceedance (NewDSPOT); else the serving schedule
	depth    int
	stars    []tail
	win      []float64 // star i's drift window is win[i*depth : (i+1)*depth]

	refits, warmRefits, gridRefits uint64
	refitNanos                     uint64
}

// tail is one star's scalars: its SPOT threshold and tail model, the
// bookkeeping of its excess ring, and its drift window's running sum and
// cursor.
type tail struct {
	t, z  float64
	model GPD

	// excesses is a bounded ring: it grows to its limit (see ringLimit),
	// doubling its backing array, then evict walks circularly over the
	// oldest entries. sum/sumsq are running sufficient statistics over
	// exactly the retained entries.
	excesses   []float64
	sum, sumsq float64
	refitMean  float64
	peaks      int // total exceedances observed — the Nt of the quantile
	n          int
	sinceRefit int

	// dsum is the drift window's running sum.
	dsum float64
	// evict is the ring's eviction cursor and dpos the drift-window slot
	// the next value writes; both index slices, and as int32 they share a
	// word with the flags, so a star is 128 bytes.
	evict, dpos          int32
	dfull, fitted, ready bool
}

// NewBank returns an unfitted bank of the given stars with a trailing
// drift window of depth (at least 1) per star, under the serving refit
// schedule. Level and Q are checked by Fit.
func NewBank(stars int, level, q float64, depth int) Bank {
	depth = max(depth, 1)
	return Bank{
		level: level, q: q, depth: depth,
		stars: make([]tail, stars),
		win:   make([]float64, stars*depth),
	}
}

// Len returns the number of stars.
func (b *Bank) Len() int { return len(b.stars) }

// Fresh returns an unfitted bank of b's stars under b's config.
func (b *Bank) Fresh() Bank {
	f := NewBank(len(b.stars), b.level, b.q, b.depth)
	f.exact = b.exact
	return f
}

// Clone returns a bank with the same config, counters and state as b and
// slabs and rings of its own; each ring is allocated at its length and
// grows from there.
func (b *Bank) Clone() Bank {
	c := *b
	c.stars = make([]tail, len(b.stars))
	copy(c.stars, b.stars)
	c.win = make([]float64, len(b.win))
	copy(c.win, b.win)
	for i := range c.stars {
		s := &c.stars[i]
		s.excesses = append(make([]float64, 0, len(s.excesses)), s.excesses...)
	}
	return c
}

func (b *Bank) window(i int) []float64 { return b.win[i*b.depth : (i+1)*b.depth] }

// Fit calibrates star i on an initial batch; the first depth values seed
// its trailing window and the rest, re-centred on it, calibrate the tail
// model. A batch of depth+8 points or fewer, a NaN or ±Inf anywhere in it
// (named by its index), or a Level or Q outside (0, 1) is an error, after
// which the star is not ready and the bank must be discarded. Stars may
// be fitted concurrently: Fit writes star i's state and window only.
func (b *Bank) Fit(i int, init []float64) error {
	if len(init) <= b.depth+8 {
		return fmt.Errorf("evt: DSPOT needs more than depth+8=%d calibration points, got %d", b.depth+8, len(init))
	}
	s, win := &b.stars[i], b.window(i)
	// The checks ride in the loops that read each point anyway.
	for j, v := range init[:b.depth] {
		if !finite(v) {
			return nonFinitePoint(j, v)
		}
		s.push(win, v)
	}
	resid := make([]float64, 0, len(init)-b.depth)
	for j, v := range init[b.depth:] {
		if !finite(v) {
			return nonFinitePoint(b.depth+j, v)
		}
		resid = append(resid, v-s.mean(win))
		s.push(win, v)
	}
	return b.fitTail(s, resid)
}

func nonFinitePoint(i int, v float64) error {
	return fmt.Errorf("evt: DSPOT calibration point %d is %v", i, v)
}

// fitTail calibrates s's tail model (SPOT, Siffer et al. Alg. 1) on a
// batch. Too few peaks is not an error: the empirical quantile is still a
// usable threshold, and the tail model forms once enough live exceedances
// accumulate.
func (b *Bank) fitTail(s *tail, init []float64) error {
	if err := CheckPOTParams(b.level, b.q); err != nil {
		return err
	}
	s.excesses = nil
	s.evict, s.peaks, s.sum, s.sumsq = 0, 0, 0, 0
	s.sinceRefit, s.refitMean = 0, 0
	th, err := POT(init, b.level, b.q)
	if err != nil && th.Peaks == 0 {
		s.t, s.z, s.model = th.Init, th.Z, GPD{}
		s.n = len(init)
		s.fitted = false
		s.ready = true
		return nil
	}
	s.t, s.z, s.model = th.Init, th.Z, th.Model
	s.n = th.N
	s.excesses = make([]float64, 0, min(th.Peaks, maxExcesses))
	for _, v := range init {
		if v > s.t {
			b.pushExcess(s, v-s.t)
		}
	}
	s.fitted = true
	s.refitMean = s.tailMean()
	s.ready = true
	return nil
}

func (s *tail) push(win []float64, v float64) {
	if s.dfull {
		s.dsum -= win[s.dpos]
	}
	win[s.dpos] = v
	s.dsum += v
	s.dpos++
	if int(s.dpos) == len(win) {
		s.dpos = 0
		s.dfull = true
	}
}

func (s *tail) mean(win []float64) float64 {
	n := len(win)
	if !s.dfull {
		n = int(s.dpos)
		if n == 0 {
			return 0
		}
	}
	return s.dsum / float64(n)
}

// Threshold returns star i's residual-space alarm threshold z_q.
func (b *Bank) Threshold(i int) float64 { return b.stars[i].z }

// Baseline returns star i's drift-corrected baseline (its trailing window
// mean); Baseline(i)+Threshold(i) is its effective alarm level in raw
// score space.
func (b *Bank) Baseline(i int) float64 { return b.stars[i].mean(b.window(i)) }

// RefitStats returns the bank's cumulative tail-maintenance counters over
// all its stars.
func (b *Bank) RefitStats() RefitStats {
	var peaks int
	for i := range b.stars {
		peaks += b.stars[i].peaks
	}
	return RefitStats{
		Exceedances: uint64(peaks),
		Refits:      b.refits,
		WarmRefits:  b.warmRefits,
		GridRefits:  b.gridRefits,
		RefitNanos:  b.refitNanos,
	}
}

// ringLimit is the most excesses s's ring retains: maxExcesses, or more
// when a snapshot restored a longer ring (setTailState drops no retained
// excess). The length never shrinks, so the limit never does.
func ringLimit(s *tail) int { return max(maxExcesses, len(s.excesses)) }

// pushExcess inserts one excess into s's ring, evicting the oldest entry
// once the ring is at its limit, and maintains the running sufficient
// statistics. Below the limit a full backing array is doubled (to at
// least 2·minTailPeaks, at most the limit), so a ring reaches its limit
// in O(log limit) allocations and then pushes allocation free.
func (b *Bank) pushExcess(s *tail, e float64) {
	if n, limit := len(s.excesses), ringLimit(s); n < limit {
		if n == cap(s.excesses) {
			grown := make([]float64, n, min(max(2*n, 2*minTailPeaks), limit))
			copy(grown, s.excesses)
			s.excesses = grown
		}
		s.excesses = append(s.excesses, e)
	} else {
		old := s.excesses[s.evict]
		s.sum -= old
		s.sumsq -= old * old
		s.excesses[s.evict] = e
		s.evict++
		if int(s.evict) == len(s.excesses) {
			s.evict = 0
		}
	}
	s.sum += e
	s.sumsq += e * e
	s.peaks++
}

func (s *tail) tailMean() float64 {
	if len(s.excesses) == 0 {
		return 0
	}
	return s.sum / float64(len(s.excesses))
}

// shouldRefit decides whether this exceedance pays for a full fit: always
// in exact mode (or before a first fit exists), every refitEvery
// exceedances, or early when the tail mean drifted past refitDrift.
func (b *Bank) shouldRefit(s *tail) bool {
	if b.exact || !s.fitted || s.sinceRefit >= refitEvery {
		return true
	}
	if s.refitMean > 0 {
		if d := s.tailMean() - s.refitMean; d > refitDrift*s.refitMean || -d > refitDrift*s.refitMean {
			return true
		}
	}
	return false
}

// refit re-estimates s's (γ, σ) over its ring — warm-started Newton in
// amortized mode, the full Grimshaw grid scan in exact mode or when the
// warm start diverges — and rebases the threshold and drift reference.
func (b *Bank) refit(s *tail) {
	start := time.Now()
	if !b.exact && s.fitted {
		if g, ok := fitGPDWarm(s.excesses, s.model, s.sum, s.sumsq); ok {
			s.model = g
			b.warmRefits++
		} else {
			s.model = FitGPD(s.excesses)
			b.gridRefits++
		}
	} else {
		s.model = FitGPD(s.excesses)
		b.gridRefits++
	}
	b.refits++
	s.fitted = true
	b.requantile(s)
	s.sinceRefit = 0
	s.refitMean = s.tailMean()
	b.refitNanos += uint64(time.Since(start))
}

// requantile moves s's threshold to its tail model's quantile at the live
// tail fraction. A quantile that overflows — a degenerate fit read far
// outside the tail fraction it was fitted at — leaves the threshold where
// it was: an infinite or NaN one would silence or flood the star for
// good, and no checkpoint could hold it.
func (b *Bank) requantile(s *tail) {
	if z := s.model.Quantile(s.t, b.q, s.n, s.peaks); finite(z) {
		s.z = z
	}
}

// Step consumes star i's next observation and reports whether it is
// anomalous relative to the drift-corrected baseline. Non-anomalous
// observations update the trailing window; anomalies do not (so an alarm
// does not poison the baseline). Stepping before Fit returns ErrNotReady,
// a non-finite x ErrNonFinite (the residual of one is non-finite, and the
// tail model refuses it before the window sees x); neither changes the
// state.
func (b *Bank) Step(i int, x float64) (bool, error) {
	s, win := &b.stars[i], b.window(i)
	fired, err := b.stepTail(s, x-s.mean(win))
	if err != nil || fired {
		return fired, err
	}
	s.push(win, x)
	return false, nil
}

// stepTail is the SPOT update rule (Siffer et al., Alg. 2) under the
// refit schedule: a score above z alarms, a score in (t, z] refines the
// tail, anything else is counted as normal. The benign path is a counter
// increment, an exceedance is an O(1) ring push plus quantile update, and
// only every refitEvery-th exceedance (or a drift or boundary trigger)
// pays for a fit; in exact mode every exceedance does.
func (b *Bank) stepTail(s *tail, x float64) (bool, error) {
	if !s.ready {
		return false, ErrNotReady
	}
	if !finite(x) {
		return false, ErrNonFinite
	}
	// Alarm-boundary guard: a near-threshold score under a stale model is
	// the one decision amortization could flip, so it pays for a fresh fit
	// up front. sinceRefit > 0 gates repeats — after the refit, no further
	// boundary fit until a new excess actually lands in the ring.
	if !b.exact && s.fitted && s.sinceRefit > 0 && len(s.excesses) >= minTailPeaks {
		if m := s.z - s.t; m > 0 {
			if d := x - s.z; d < refitBoundary*m && -d < refitBoundary*m {
				b.refit(s)
			}
		}
	}
	switch {
	case x > s.z:
		return true, nil
	case x > s.t:
		b.pushExcess(s, x-s.t)
		s.n++
		s.sinceRefit++
		if len(s.excesses) >= minTailPeaks {
			if b.shouldRefit(s) {
				b.refit(s)
			} else {
				// O(1) between refits: stale (γ, σ), live tail fraction.
				b.requantile(s)
			}
		}
		return false, nil
	default:
		s.n++
		return false, nil
	}
}

// State captures star i's runtime state. The refit counters are
// observability, not state, and are deliberately not snapshotted.
func (b *Bank) State(i int) DSPOTState {
	s := &b.stars[i]
	return DSPOTState{
		SPOT: b.tailState(s), Depth: b.depth,
		Win: append([]float64(nil), b.window(i)...), Sum: s.dsum, Pos: int(s.dpos), Full: s.dfull,
	}
}

func (b *Bank) tailState(s *tail) SPOTState {
	return SPOTState{
		Level: b.level, Q: b.q, T: s.t, Z: s.z, Model: s.model,
		Excesses: append([]float64(nil), s.excesses...), N: s.n, Ready: s.ready,
		Evict: int(s.evict), Peaks: s.peaks, Sum: s.sum, SumSq: s.sumsq,
		Fitted: s.fitted, SinceRefit: s.sinceRefit, RefitMean: s.refitMean,
	}
}

// SetState replaces star i's runtime state with a snapshot taken by
// State. The snapshot must be of this bank's config: its drift-window
// depth, Level and Q. Its window position must lie in [0, depth), its
// eviction cursor in [0, len(Excesses)) (0 for an empty ring; a legacy
// snapshot's is ignored), its counts must hold 0 ≤ Peaks ≤ N and
// SinceRefit ≥ 0, and its scores, thresholds and sums must lie within
// ±maxScore (sums of squares within ±maxScore²). Otherwise the error
// leaves the star untouched.
func (b *Bank) SetState(i int, st DSPOTState) error {
	if st.Depth != b.depth || len(st.Win) != b.depth {
		return fmt.Errorf("evt: DSPOT state depth %d (win %d), detector depth %d", st.Depth, len(st.Win), b.depth)
	}
	if st.Pos < 0 || st.Pos >= b.depth {
		return fmt.Errorf("evt: DSPOT state window position %d outside [0, %d)", st.Pos, b.depth)
	}
	if !within(maxScore, st.Sum) || !within(maxScore, st.Win...) {
		return fmt.Errorf("evt: DSPOT state window holds a value beyond ±%g", maxScore)
	}
	s := &b.stars[i]
	if err := b.setTailState(s, st.SPOT); err != nil {
		return err
	}
	copy(b.window(i), st.Win)
	s.dsum, s.dpos, s.dfull = st.Sum, int32(st.Pos), st.Full
	return nil
}

// setTailState replaces s's tail state with a snapshot, after checking
// it against the bank's config as SetState documents. The ring is
// allocated at the snapshot's retained length and grows from there to its
// limit, maxExcesses (or that length, when it is larger, so no retained
// excess is dropped). A wrapped ring restored below its limit — a
// snapshot taken by a build with a smaller ring — is laid out oldest
// first with the eviction cursor at 0, so the ring refills and then
// evicts in age order.
func (b *Bank) setTailState(s *tail, st SPOTState) error {
	if st.Level != b.level || st.Q != b.q {
		return fmt.Errorf("evt: SPOT state level %v, q %v; detector level %v, q %v", st.Level, st.Q, b.level, b.q)
	}
	// A legacy snapshot predates eviction: its peaks are its retained
	// excesses, and its running statistics are exactly the slice's.
	legacy := st.Peaks < len(st.Excesses)
	peaks, sum, sumsq := st.Peaks, st.Sum, st.SumSq
	if legacy {
		peaks, sum, sumsq = len(st.Excesses), 0, 0
		for _, e := range st.Excesses {
			sum += e
			sumsq += e * e
		}
	}
	if !within(maxScore, st.T, st.Z, sum, st.RefitMean) || !within(maxScore, st.Excesses...) ||
		!within(maxScore*maxScore, sumsq) {
		return fmt.Errorf("evt: SPOT state holds a score or sum beyond ±%g (sum of squares ±%g)", maxScore, maxScore*maxScore)
	}
	// Every exceedance is also an observation, so peaks never outnumber n.
	if st.Peaks < 0 || peaks > st.N || st.SinceRefit < 0 {
		return fmt.Errorf("evt: SPOT state counts n %d, peaks %d, since_refit %d, excesses %d outside 0 ≤ peaks ≤ n, since_refit ≥ 0",
			st.N, st.Peaks, st.SinceRefit, len(st.Excesses))
	}
	// The cursor names the oldest retained excess; one past the ring
	// would evict newer excesses before older ones.
	if !legacy && (st.Evict < 0 || st.Evict >= max(len(st.Excesses), 1)) {
		return fmt.Errorf("evt: SPOT state eviction cursor %d outside [0, %d)", st.Evict, max(len(st.Excesses), 1))
	}
	s.t, s.z, s.model = st.T, st.Z, st.Model
	s.n, s.peaks = st.N, peaks
	s.sum, s.sumsq = sum, sumsq
	s.ready = st.Ready
	if legacy {
		s.excesses = append(make([]float64, 0, len(st.Excesses)), st.Excesses...)
		s.evict = 0
		s.fitted = st.Model.Sigma > 0
		s.sinceRefit = 0
		s.refitMean = s.tailMean()
		return nil
	}
	// The oldest retained excess sits at the cursor. Below its limit the
	// ring appends before it evicts again, so it is rotated to start there.
	evict, oldest := st.Evict, 0
	if evict != 0 && len(st.Excesses) < maxExcesses {
		oldest, evict = evict, 0
	}
	s.evict = int32(evict)
	s.excesses = append(append(make([]float64, 0, len(st.Excesses)), st.Excesses[oldest:]...), st.Excesses[:oldest]...)
	s.fitted = st.Fitted
	s.sinceRefit = st.SinceRefit
	s.refitMean = st.RefitMean
	return nil
}

// maxScore bounds the magnitude of every score-valued float a restored
// star holds — thresholds, excesses, drift-window values and their
// running sums — and maxScore² its sum of squares: far past any score,
// and far enough below the float64 limit that the sums and squares the
// update rule forms from them stay finite.
const maxScore = 1e150

// within reports whether every x lies in [−limit, limit]; NaN does not.
func within(limit float64, xs ...float64) bool {
	for _, x := range xs {
		if !(math.Abs(x) <= limit) {
			return false
		}
	}
	return true
}
