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

// The serving refit schedule. Between Grimshaw refits a star keeps its
// threshold live with the O(1) quantile update z = model.Quantile(t, q,
// n, nPeaks): (γ, σ) are stale, the tail fraction nPeaks/n is not. The
// count is a backstop; the drift and boundary triggers carry the fidelity
// (TestDSPOTStageAmortizedAlarmsGolden, TestSPOTAmortizedTracksExact).
// NewDSPOT, the exact reference, fits on every exceedance instead.
const (
	refitEvery = 384 // exceedances between refits, at most
	// refitDrift refits early once the running tail mean has moved by
	// more than this fraction of its value at the last refit.
	refitDrift = 0.3
	// refitBoundary refits before the verdict on a score within this
	// fraction of the margin z−t of the stale threshold: the decisions
	// amortization could flip are made against a fresh model.
	refitBoundary = 0.1
	// maxExcesses caps every star's excess ring, exact mode's too; a full
	// ring evicts its oldest excess. The cap bounds refit cost, snapshot
	// size and memory; a few hundred peaks is a comfortable tail sample.
	maxExcesses = 256
)

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
