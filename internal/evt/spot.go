package evt

import "errors"

// ErrNotReady is returned by Bank.Step and DSPOT.Step when the star has
// not been calibrated yet (Fit has not run, or a restore left it
// unready). Callers that drive a detector per-score must treat it as a
// per-sample failure, not a process-fatal condition.
var ErrNotReady = errors.New("evt: Step before Fit")

// ErrNonFinite is returned by Bank.Step and DSPOT.Step for a NaN or ±Inf
// observation, which is refused with the star's state untouched: one
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

// SPOTState is the serializable runtime state of one star's SPOT tail
// model, used by streaming-backend snapshots to checkpoint adaptive thresholds. Floats
// survive a JSON round-trip bit-exactly (encoding/json emits the shortest
// representation that parses back to the same float64).
//
// The ring bookkeeping fields (Evict, Peaks, Sum, SumSq, ...) were added
// with the amortized-refit rework; snapshots taken before it lack them and
// are detected by Peaks < len(Excesses), in which case Bank.SetState derives
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
