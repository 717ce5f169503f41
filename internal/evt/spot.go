package evt

import (
	"errors"
	"time"
)

// ErrNotReady is returned by SPOT.Step and DSPOT.Step when the detector
// has not been calibrated yet (Fit has not run, or a restore left it
// unready). Callers that drive a detector per-score must treat it as a
// per-sample failure, not a process-fatal condition.
var ErrNotReady = errors.New("evt: Step before Fit")

// ErrNonFinite is returned by SPOT.Step and DSPOT.Step for a NaN or ±Inf
// observation, which is refused with the detector's state untouched: one
// such value in a tail ring or drift window would poison every later
// verdict (a NaN baseline never alarms again, a −Inf one alarms forever).
var ErrNonFinite = errors.New("evt: non-finite observation")

// finite reports whether x is neither NaN nor ±Inf: NaN fails the first
// comparison, ±Inf the second.
func finite(x float64) bool { return x == x && x-x == 0 }

// minTailPeaks is the minimum number of excesses needed before a tail
// distribution is fitted — both by the batch POT calibration and by the
// streaming SPOT update rule.
const minTailPeaks = 8

// DefaultMaxExcesses is the default capacity of a streaming SPOT's excess
// ring. A few hundred peaks is a statistically comfortable tail sample
// (Siffer et al. calibrate on comparable peak counts), and the cap is what
// bounds refit cost, snapshot size, and long-run memory: without it a
// long-serving detector's excess buffer — and therefore the cost of every
// Grimshaw refit over it — grows linearly in exceedance count.
const DefaultMaxExcesses = 256

// RefitPolicy schedules the expensive part of streaming SPOT: the Grimshaw
// MLE refit of the GPD tail model over the excess buffer. Between full
// refits the detector maintains running sufficient statistics (sum and
// sum-of-squares of the retained excesses) and keeps the threshold live
// with the O(1) quantile update z = model.Quantile(t, q, n, nPeaks) — the
// (γ, σ) pair is stale, but the empirical tail fraction nPeaks/n it is
// applied to is not.
//
// The approximation contract: with Every = K, the GPD parameters lag the
// excess stream by at most K exceedances — or less, when a tail-mean shift
// beyond DriftTolerance forces an early refit. Every = 1 disables the
// amortization entirely and is bit-identical to the textbook SPOT update
// (a full fit on every exceedance), at the cost that made it ~18,000× the
// price of a cheap backend's push.
type RefitPolicy struct {
	// Every refits the tail model every K exceedances. 1 (or less) is the
	// exact mode: a full Grimshaw grid-scan fit on every exceedance,
	// bit-identical to SPOT before refits were amortized.
	Every int
	// DriftTolerance forces a refit early when the running tail mean has
	// shifted by more than this fraction relative to the mean at the last
	// refit — the drift trigger that keeps staleness data-dependent rather
	// than purely count-based. 0 disables the trigger.
	DriftTolerance float64
	// MaxExcesses caps the excess ring; once full, the oldest retained
	// excess is evicted per new exceedance. 0 means DefaultMaxExcesses.
	MaxExcesses int
	// Boundary is the alarm-boundary guard band, as a fraction of the
	// threshold margin z−t: a score within Boundary·(z−t) of the stale
	// threshold forces a refit before the alarm decision, so the verdicts
	// amortization could actually flip — the near-threshold ones — are
	// made against a fresh tail model. Scores far from z are insensitive
	// to parameter staleness and skip the fit. 0 disables the trigger.
	Boundary float64
}

// ExactRefitPolicy is the bit-identical-to-textbook-SPOT schedule: a full
// Grimshaw fit on every exceedance (the ring is still bounded, so even
// exact mode cannot leak memory or grow its snapshots without bound).
func ExactRefitPolicy() RefitPolicy {
	return RefitPolicy{Every: 1, MaxExcesses: DefaultMaxExcesses}
}

// DefaultRefitPolicy is the amortized serving schedule: a warm-started
// refit every 384 exceedances, pulled forward whenever the tail mean
// shifts by more than 30% or a score lands within 10% of the threshold
// margin, over a DefaultMaxExcesses-deep ring. The constants are tuned on
// the exceedance-heavy micro-benchmark field: the count schedule is a
// backstop, and the drift and boundary triggers carry the fidelity (see
// TestDSPOTStageAmortizedAlarmsGolden and TestSPOTAmortizedTracksExact).
func DefaultRefitPolicy() RefitPolicy {
	return RefitPolicy{Every: 384, DriftTolerance: 0.3, MaxExcesses: DefaultMaxExcesses, Boundary: 0.1}
}

// capacity resolves the policy's excess-ring capacity, flooring it so a
// full ring always holds enough peaks for a meaningful fit.
func (p RefitPolicy) capacity() int {
	if p.MaxExcesses <= 0 {
		return DefaultMaxExcesses
	}
	return max(p.MaxExcesses, 2*minTailPeaks)
}

// RefitStats are cumulative counters of a streaming tail model's
// maintenance work: how many exceedances fed the ring, and how many of
// them actually paid for a fit (warm Newton vs full grid scan). The gap
// between Exceedances and Refits is the amortization.
type RefitStats struct {
	// Exceedances counts tail updates (t < x ≤ z), each an O(1) ring push.
	Exceedances uint64 `json:"exceedances"`
	// Refits counts full tail-model fits (warm + grid).
	Refits uint64 `json:"refits"`
	// WarmRefits counts refits settled by the warm-started Newton search.
	WarmRefits uint64 `json:"warm_refits"`
	// GridRefits counts refits that ran the full Grimshaw grid scan —
	// exact-mode fits, cold first fits, and warm-start fallbacks.
	GridRefits uint64 `json:"grid_refits"`
	// RefitNanos is cumulative wall time spent inside refits. Refits are
	// rare (hundreds of µs each, amortized across many exceedances), so
	// the two clock reads per refit are noise; the counter lets the
	// metrics layer expose refit cost as a rate without touching the
	// benign path.
	RefitNanos uint64 `json:"refit_nanos"`
}

// Add returns the element-wise sum of two counter sets.
func (a RefitStats) Add(b RefitStats) RefitStats {
	return RefitStats{
		Exceedances: a.Exceedances + b.Exceedances,
		Refits:      a.Refits + b.Refits,
		WarmRefits:  a.WarmRefits + b.WarmRefits,
		GridRefits:  a.GridRefits + b.GridRefits,
		RefitNanos:  a.RefitNanos + b.RefitNanos,
	}
}

// SPOT is the streaming variant of POT: after calibration, each new score
// either triggers an alarm (score > z), refines the tail fit (t < score ≤ z)
// or is counted as normal (Siffer et al., Alg. 2). Policy schedules the
// tail refits (see RefitPolicy); set it before Fit. The benign path
// (x ≤ t) and the between-refits exceedance path are O(1), and allocation
// free once the excess ring has grown to its cap: the ring holds what the
// detector has seen, not what it may come to hold.
type SPOT struct {
	Level  float64
	Q      float64
	Policy RefitPolicy

	t     float64
	z     float64
	model GPD

	// excesses is a bounded ring: it grows to its limit (see ringLimit),
	// doubling its backing array, then evict walks circularly over the
	// oldest entries. sum/sumsq are running sufficient statistics over
	// exactly the retained entries.
	excesses []float64
	evict    int
	sum      float64
	sumsq    float64

	peaks      int // total exceedances observed — the Nt of the quantile
	n          int
	fitted     bool
	sinceRefit int
	refitMean  float64
	ready      bool

	refits, warmRefits, gridRefits uint64
	refitNanos                     uint64
}

// NewSPOT returns a SPOT detector with the given initial quantile level and
// target tail probability q, under the exact (bit-identical to textbook
// SPOT) refit policy; assign Policy before Fit to amortize refits.
func NewSPOT(level, q float64) *SPOT {
	return &SPOT{Level: level, Q: q, Policy: ExactRefitPolicy()}
}

// Fit calibrates the detector on an initial batch. A Level or Q outside
// (0, 1) is an error; too few peaks is not (see below).
func (s *SPOT) Fit(init []float64) error {
	if err := CheckPOTParams(s.Level, s.Q); err != nil {
		return err
	}
	s.excesses = nil
	s.evict, s.peaks, s.sum, s.sumsq = 0, 0, 0, 0
	s.sinceRefit, s.refitMean = 0, 0
	th, err := POT(init, s.Level, s.Q)
	if err != nil && th.Peaks == 0 {
		// Empirical fallback still yields usable t/z; the tail model forms
		// once enough live exceedances accumulate.
		s.t, s.z, s.model = th.Init, th.Z, GPD{}
		s.n = len(init)
		s.fitted = false
		s.ready = true
		return nil
	}
	s.t, s.z, s.model = th.Init, th.Z, th.Model
	s.n = th.N
	s.excesses = make([]float64, 0, min(th.Peaks, s.Policy.capacity()))
	for _, v := range init {
		if v > s.t {
			s.pushExcess(v - s.t)
		}
	}
	s.fitted = true
	s.refitMean = s.tailMean()
	s.ready = true
	return nil
}

// Threshold returns the current alarm threshold z_q.
func (s *SPOT) Threshold() float64 { return s.z }

// TailThreshold returns the peaks-over-threshold level t: scores above it
// feed the tail model, scores above Threshold alarm.
func (s *SPOT) TailThreshold() float64 { return s.t }

// RefitStats returns the detector's cumulative tail-maintenance counters.
func (s *SPOT) RefitStats() RefitStats {
	return RefitStats{
		Exceedances: uint64(s.peaks),
		Refits:      s.refits,
		WarmRefits:  s.warmRefits,
		GridRefits:  s.gridRefits,
		RefitNanos:  s.refitNanos,
	}
}

// ringLimit is the most excesses the ring retains: the policy's capacity,
// or more when a snapshot restored a longer ring (SetState drops no
// retained excess). The length never shrinks, so the limit never does.
func (s *SPOT) ringLimit() int { return max(s.Policy.capacity(), len(s.excesses)) }

// pushExcess inserts one excess into the ring, evicting the oldest entry
// once the ring is at its limit, and maintains the running sufficient
// statistics. Below the limit a full backing array is doubled (to at
// least 2·minTailPeaks, at most the limit), so a ring reaches its limit
// in O(log limit) allocations and then pushes allocation free.
func (s *SPOT) pushExcess(e float64) {
	if n, limit := len(s.excesses), s.ringLimit(); n < limit {
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
		if s.evict == len(s.excesses) {
			s.evict = 0
		}
	}
	s.sum += e
	s.sumsq += e * e
	s.peaks++
}

func (s *SPOT) tailMean() float64 {
	if len(s.excesses) == 0 {
		return 0
	}
	return s.sum / float64(len(s.excesses))
}

// shouldRefit decides whether this exceedance pays for a full fit: always
// in exact mode (or before a first fit exists), every Policy.Every
// exceedances, or early when the tail mean drifted past the tolerance.
func (s *SPOT) shouldRefit() bool {
	if s.Policy.Every <= 1 || !s.fitted {
		return true
	}
	if s.sinceRefit >= s.Policy.Every {
		return true
	}
	if tol := s.Policy.DriftTolerance; tol > 0 && s.refitMean > 0 {
		if d := s.tailMean() - s.refitMean; d > tol*s.refitMean || -d > tol*s.refitMean {
			return true
		}
	}
	return false
}

// refit re-estimates (γ, σ) over the ring — warm-started Newton in
// amortized mode, the full Grimshaw grid scan in exact mode or when the
// warm start diverges — and rebases the threshold and drift reference.
func (s *SPOT) refit() {
	start := time.Now()
	if s.Policy.Every > 1 && s.fitted {
		if g, ok := fitGPDWarm(s.excesses, s.model, s.sum, s.sumsq); ok {
			s.model = g
			s.warmRefits++
		} else {
			s.model = FitGPD(s.excesses)
			s.gridRefits++
		}
	} else {
		s.model = FitGPD(s.excesses)
		s.gridRefits++
	}
	s.refits++
	s.fitted = true
	s.z = s.model.Quantile(s.t, s.Q, s.n, s.peaks)
	s.sinceRefit = 0
	s.refitMean = s.tailMean()
	s.refitNanos += uint64(time.Since(start))
}

// Step consumes one score and reports whether it is an anomaly.
// Non-anomalous peaks update the tail model, following the SPOT update
// rule under the refit policy: the benign path is a counter increment,
// an exceedance is an O(1) ring push plus quantile update, and only every
// Policy.Every-th exceedance (or a drift trigger) pays for a fit.
// Stepping before Fit returns ErrNotReady, a non-finite x ErrNonFinite.
func (s *SPOT) Step(x float64) (bool, error) {
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
	if b := s.Policy.Boundary; b > 0 && s.Policy.Every > 1 && s.fitted &&
		s.sinceRefit > 0 && len(s.excesses) >= minTailPeaks {
		if m := s.z - s.t; m > 0 {
			if d := x - s.z; d < b*m && -d < b*m {
				s.refit()
			}
		}
	}
	switch {
	case x > s.z:
		return true, nil
	case x > s.t:
		s.pushExcess(x - s.t)
		s.n++
		s.sinceRefit++
		if len(s.excesses) >= minTailPeaks {
			if s.shouldRefit() {
				s.refit()
			} else {
				// O(1) between refits: stale (γ, σ), live tail fraction.
				s.z = s.model.Quantile(s.t, s.Q, s.n, s.peaks)
			}
		}
		return false, nil
	default:
		s.n++
		return false, nil
	}
}

// SPOTState is the serializable runtime state of a SPOT detector, used by
// streaming-backend snapshots to checkpoint adaptive thresholds. Floats
// survive a JSON round-trip bit-exactly (encoding/json emits the shortest
// representation that parses back to the same float64).
//
// The ring bookkeeping fields (Evict, Peaks, Sum, SumSq, ...) were added
// with the amortized-refit rework; snapshots taken before it lack them and
// are detected by Peaks < len(Excesses), in which case SetState derives
// them from the excess slice (legacy snapshots predate any eviction, so
// the derivation is exact).
type SPOTState struct {
	Level    float64   `json:"level"`
	Q        float64   `json:"q"`
	T        float64   `json:"t"`
	Z        float64   `json:"z"`
	Model    GPD       `json:"model"`
	Excesses []float64 `json:"excesses"`
	N        int       `json:"n"`
	Ready    bool      `json:"ready"`

	Evict      int     `json:"evict,omitempty"`
	Peaks      int     `json:"peaks,omitempty"`
	Sum        float64 `json:"sum,omitempty"`
	SumSq      float64 `json:"sumsq,omitempty"`
	Fitted     bool    `json:"fitted,omitempty"`
	SinceRefit int     `json:"since_refit,omitempty"`
	RefitMean  float64 `json:"refit_mean,omitempty"`
}

// State captures the detector's current runtime state. The refit counters
// are observability, not state, and are deliberately not snapshotted.
func (s *SPOT) State() SPOTState {
	return SPOTState{
		Level: s.Level, Q: s.Q, T: s.t, Z: s.z, Model: s.model,
		Excesses: append([]float64(nil), s.excesses...), N: s.n, Ready: s.ready,
		Evict: s.evict, Peaks: s.peaks, Sum: s.sum, SumSq: s.sumsq,
		Fitted: s.fitted, SinceRefit: s.sinceRefit, RefitMean: s.refitMean,
	}
}

// SetState replaces the detector's runtime state with a snapshot taken by
// State. The ring is allocated at the snapshot's retained length and grows
// from there to its limit, the policy's capacity (or that length, when it
// is larger, so no retained excess is dropped when restoring under a
// smaller policy). A wrapped ring restored below its limit — a snapshot
// taken under a smaller MaxExcesses — is laid out oldest first with the
// eviction cursor at 0, so the ring refills and then evicts in age order.
func (s *SPOT) SetState(st SPOTState) {
	s.Level, s.Q = st.Level, st.Q
	s.t, s.z, s.model = st.T, st.Z, st.Model
	s.n = st.N
	s.ready = st.Ready
	s.excesses = make([]float64, 0, len(st.Excesses))
	if st.Peaks < len(st.Excesses) {
		// Legacy snapshot: no eviction can have happened, so the running
		// statistics are exactly the slice's.
		s.excesses = append(s.excesses, st.Excesses...)
		s.evict = 0
		s.peaks = len(st.Excesses)
		s.sum, s.sumsq = 0, 0
		for _, e := range s.excesses {
			s.sum += e
			s.sumsq += e * e
		}
		s.fitted = st.Model.Sigma > 0
		s.sinceRefit = 0
		s.refitMean = s.tailMean()
		return
	}
	s.evict = st.Evict
	if s.evict < 0 || s.evict >= max(len(st.Excesses), 1) {
		s.evict = 0
	}
	// The oldest retained excess sits at the cursor. Below its limit the
	// ring appends before it evicts again, so it is rotated to start there.
	oldest := 0
	if s.evict != 0 && len(st.Excesses) < s.Policy.capacity() {
		oldest, s.evict = s.evict, 0
	}
	s.excesses = append(append(s.excesses, st.Excesses[oldest:]...), st.Excesses[:oldest]...)
	s.peaks = st.Peaks
	s.sum, s.sumsq = st.Sum, st.SumSq
	s.fitted = st.Fitted
	s.sinceRefit = st.SinceRefit
	s.refitMean = st.RefitMean
}
