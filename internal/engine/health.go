package engine

import (
	"errors"
	"hash/fnv"
	"sync/atomic"
	"time"

	"aero/internal/core"
	"aero/internal/metrics"
)

// HealthState is one tenant's position in the fault-containment state
// machine:
//
//	healthy ──fault──▶ degraded ──faults──▶ quarantined
//	   ▲                  │                     │ backoff expires
//	   │ probes clean     ▼                     ▼
//	   └────────────── probation ◀──────────────┘
//	                      │ fault
//	                      └──▶ quarantined (backoff doubled, capped)
//
// Healthy and degraded tenants are served by their primary backend;
// quarantined tenants by the warm fallback when one is installed (frames
// are rejected otherwise); probation feeds the primary silently while the
// fallback keeps serving, and only hands the alarm stream back after
// ProbationFrames consecutive clean probes.
type HealthState int32

const (
	// HealthHealthy: the primary backend serves, no recent faults.
	HealthHealthy HealthState = iota
	// HealthDegraded: the primary still serves, but consecutive faults
	// have crossed DegradeAfter — the operator-visible early warning.
	HealthDegraded
	// HealthQuarantined: the primary is presumed corrupt and receives no
	// frames; the fallback serves (or frames are rejected) until the
	// frame-count backoff expires.
	HealthQuarantined
	// HealthProbation: the primary is probed with live frames but its
	// alarms are withheld while a fallback is present; clean probes
	// promote back to healthy, any fault re-quarantines with a doubled
	// backoff.
	HealthProbation
)

// String returns the state's stats spelling.
func (h HealthState) String() string {
	switch h {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthQuarantined:
		return "quarantined"
	case HealthProbation:
		return "probation"
	}
	return "unknown"
}

// ErrQuarantined is reported for frames addressed to a quarantined tenant
// that has no fallback backend to serve them.
var ErrQuarantined = errors.New("engine: subscription quarantined")

// HealthConfig parameterizes per-subscription health supervision. The
// zero value enables supervision with the defaults below; set Disable to
// restore the pre-supervision behavior (every backend error reported,
// nothing ever quarantined — panics are still contained and reported).
type HealthConfig struct {
	// Disable turns the state machine off. Panic isolation stays on:
	// a panicking backend can never take a shard worker down.
	Disable bool
	// DegradeAfter is the consecutive-fault count that marks a healthy
	// tenant degraded. Defaults to 2.
	DegradeAfter int
	// QuarantineAfter is the consecutive-fault count that quarantines a
	// tenant. Defaults to 5.
	QuarantineAfter int
	// BackoffFrames is the initial quarantine length, in frames addressed
	// to the tenant (frame counts, not wall-clock, keep recovery
	// deterministic under test and load-independent in production).
	// Defaults to 64.
	BackoffFrames int
	// BackoffMax caps the exponential backoff growth at
	// BackoffMax×BackoffFrames. Defaults to 16.
	BackoffMax int
	// BackoffJitter spreads quarantine expiries by up to this fraction of
	// the backoff, derived deterministically from the subscription id, so
	// co-quarantined tenants do not re-probe in lockstep. Defaults to
	// 0.25; negative disables.
	BackoffJitter float64
	// ProbationFrames is how many consecutive clean probes promote a
	// probing tenant back to healthy. Defaults to 16.
	ProbationFrames int
	// LatencyThreshold, when positive, treats any single primary push
	// slower than this duration as a fault (the latency signal of the
	// state machine). 0 disables latency faults — the default, since a
	// wall-clock signal is inherently machine-dependent.
	LatencyThreshold time.Duration
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.DegradeAfter <= 0 {
		c.DegradeAfter = 2
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 5
	}
	if c.DegradeAfter > c.QuarantineAfter {
		c.DegradeAfter = c.QuarantineAfter
	}
	if c.BackoffFrames <= 0 {
		c.BackoffFrames = 64
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 16
	}
	if c.BackoffJitter == 0 {
		c.BackoffJitter = 0.25
	}
	if c.ProbationFrames <= 0 {
		c.ProbationFrames = 16
	}
	return c
}

// jitterFrac derives a stable per-tenant fraction in [0, 1) from the
// subscription id — deterministic across runs and restarts, so chaos
// replays and golden tests reproduce exactly, yet distinct across
// tenants, so a cohort quarantined together does not probe in lockstep.
func jitterFrac(id string) float64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64()>>11) / float64(1<<53)
}

// quarantineLen is the current quarantine length in frames: the doubling
// base plus the tenant's deterministic jitter share.
func (sub *subscription) quarantineLen() int {
	n := sub.backoffBase
	if j := sub.health.BackoffJitter; j > 0 {
		n += int(j * sub.jitter * float64(n))
	}
	return n
}

// enterQuarantine moves the tenant into quarantine with the current
// backoff. Called under sub.mu.
func (sub *subscription) enterQuarantine() {
	sub.setState(HealthQuarantined)
	sub.backoff = sub.quarantineLen()
	atomic.AddUint64(&sub.quarantines, 1)
}

// recordFault advances the state machine over one fault (panic, backend
// error, non-finite score, or latency breach). Called under sub.mu.
func (sub *subscription) recordFault() {
	atomic.AddUint64(&sub.faultsTotal, 1)
	sub.faultsConsec++
	switch sub.state() {
	case HealthProbation:
		// A probe failed: the primary is still broken. Double the backoff
		// (capped) and go back to quarantine.
		sub.backoffBase *= 2
		if maxB := sub.health.BackoffFrames * sub.health.BackoffMax; sub.backoffBase > maxB {
			sub.backoffBase = maxB
		}
		sub.enterQuarantine()
	case HealthHealthy, HealthDegraded:
		if sub.faultsConsec >= sub.health.QuarantineAfter {
			sub.enterQuarantine()
		} else if sub.faultsConsec >= sub.health.DegradeAfter && sub.state() == HealthHealthy {
			sub.setState(HealthDegraded)
			atomic.AddUint64(&sub.degradations, 1)
		}
	}
}

// recordOK advances the state machine over one clean primary push.
// Called under sub.mu.
func (sub *subscription) recordOK() {
	sub.faultsConsec = 0
	switch sub.state() {
	case HealthDegraded:
		sub.setState(HealthHealthy)
	case HealthProbation:
		sub.probeClean++
		if sub.probeClean >= sub.health.ProbationFrames {
			// Recovered: the primary held up for a full probation. Reset
			// the backoff ladder so the next incident starts small again.
			sub.setState(HealthHealthy)
			sub.backoffBase = sub.health.BackoffFrames
			atomic.AddUint64(&sub.recoveries, 1)
		}
	}
}

// state/setState: the health state is written only under sub.mu but read
// lock-free by stats snapshots, hence the atomic.
func (sub *subscription) state() HealthState {
	return HealthState(atomic.LoadInt32((*int32)(&sub.healthState)))
}

func (sub *subscription) setState(s HealthState) {
	atomic.StoreInt32((*int32)(&sub.healthState), int32(s))
}

// scoreResult is what one guarded, supervised push hands back to the
// drain loop: the alarms to emit (already scrubbed), whether the frame
// counted as scored, the error to report, if any, and — on timed frames —
// the stage stamps the drain loop turns into histogram samples and a
// trace-ring entry after it releases the subscription lock.
type scoreResult struct {
	alarms []core.Alarm
	scored bool
	err    error

	// Stage stamps on the shared monotonic clock (metrics.Now), zero on
	// untimed frames. One reading serves every consumer: doneNs-pushNs
	// is at once the health latency-watch measurement, the score
	// histogram sample, and the trace ring's score+tail stages.
	lockNs  int64 // subscription lock acquired (score entry)
	pushNs  int64 // hygiene done, backend push starting
	splitNs int64 // inner-score → tail boundary (staged backends only)
	doneNs  int64 // backend push returned
	path    uint8 // metrics.Path* classification of the serving path
}

// score pushes one frame through the tenant's hygiene, guard, and health
// layers. Called under sub.mu from the draining worker; t0 is the
// drain's pre-lock stamp (0 = untimed frame: no metrics, no latency
// watch). The benign path — healthy tenant, clean frame, no fallback —
// is the old det.Push plus a recover guard and a handful of branch
// tests: 0 allocs/op, pinned by TestGuardedScoreBenignAllocs and
// TestMetricsHotPathAllocs.
func (sub *subscription) score(t float64, mags []float64, t0 int64) scoreResult {
	timed := t0 != 0
	var res scoreResult
	if timed {
		res.lockNs = metrics.Now()
	}
	repaired, err := sub.scrub(t, mags)
	if err != nil {
		// Hygiene drops are the *feed* misbehaving, not the backend: they
		// never count as backend faults.
		atomic.AddUint64(&sub.hygieneDropped, 1)
		res.err = err
		res.path = metrics.PathError
		if timed {
			res.pushNs = metrics.Now()
			res.doneNs = res.pushNs
		}
		return res
	}
	if repaired {
		atomic.AddUint64(&sub.hygieneRepaired, 1)
		// A repaired frame is synthetic data: force backends that reuse
		// cached activations across frames to score it with a full exact
		// pass rather than an incremental update seeded by fabricated
		// inputs.
		if inv, ok := capability[core.IncrementalInvalidator](sub.det); ok {
			inv.InvalidateIncremental()
		}
	}
	f := core.Frame{Time: t, Magnitudes: mags}

	// Path classification: diff the backend's incremental counters across
	// the push. Only paid for traced frames on capable backends — two
	// interface calls returning small structs, no allocation.
	classify := timed && sub.obs != nil && sub.incStats != nil
	var incBefore core.IncrementalStats
	if classify {
		incBefore = sub.incStats.IncrementalStats()
	}
	if timed {
		res.pushNs = metrics.Now()
	}
	finishPrimary := func() {
		if classify {
			res.path = classifyPath(incBefore, sub.incStats.IncrementalStats())
		}
	}

	if sub.health.Disable {
		alarms, perr := GuardPush(sub.det, f)
		sub.stampDone(&res, timed)
		if perr != nil {
			if _, isPanic := perr.(*PanicError); isPanic {
				atomic.AddUint64(&sub.panics, 1)
				atomic.AddUint64(&sub.faultsTotal, 1)
			}
			res.err = perr
			res.path = metrics.PathError
			return res
		}
		finishPrimary()
		sub.noteScored(t)
		res.alarms = sub.scrubAlarms(alarms, repaired)
		res.scored = true
		return res
	}

	switch sub.state() {
	case HealthQuarantined:
		sub.backoff--
		if sub.backoff <= 0 {
			sub.setState(HealthProbation)
			sub.probeClean = 0
			atomic.AddUint64(&sub.probations, 1)
		}
		if sub.fallback == nil {
			res.err = ErrQuarantined
			res.path = metrics.PathError
			if timed {
				res.doneNs = res.pushNs
			}
			return res
		}
		return sub.serveFallback(f, repaired, res, timed)

	case HealthProbation:
		// Probe the primary with the live frame. While a fallback exists
		// it keeps serving the alarm stream — a recovering primary's
		// verdicts are not trusted until probation completes; without one
		// the primary's alarms serve (degraded service beats none).
		alarms, perr := sub.guardedPush(f, &res, timed)
		if perr != nil {
			sub.fault(perr)
			if sub.fallback == nil {
				res.err = perr
				res.path = metrics.PathError
				return res
			}
			return sub.serveFallback(f, repaired, res, timed)
		}
		alarms, bad := splitFiniteAlarms(alarms)
		if bad > 0 {
			sub.fault(nil)
		} else {
			sub.recordOK()
		}
		if sub.fallback == nil {
			finishPrimary()
			sub.noteScored(t)
			res.alarms = sub.scrubAlarms(alarms, repaired)
			res.scored = true
			return res
		}
		return sub.serveFallback(f, repaired, res, timed)

	default: // HealthHealthy, HealthDegraded
		if sub.fallback != nil {
			// Keep the fallback warm from the same frames; its scores and
			// errors are ignored here — it only has to be current if the
			// primary is later quarantined.
			if _, ferr := GuardPushScores(sub.fallback, f); ferr != nil {
				atomic.AddUint64(&sub.fallbackErrs, 1)
			}
			if timed {
				// The warm feed is upkeep, not scoring: rebase the push
				// stamp so the primary's latency series stays pure.
				res.pushNs = metrics.Now()
			}
		}
		alarms, perr := sub.guardedPush(f, &res, timed)
		if perr != nil {
			sub.fault(perr)
			res.err = perr
			res.path = metrics.PathError
			return res
		}
		alarms, bad := splitFiniteAlarms(alarms)
		if bad > 0 {
			// A non-finite score is backend corruption leaking out — the
			// alarm is withheld and the tenant takes a fault, but the
			// frame itself was consumed.
			sub.fault(nil)
		} else {
			sub.recordOK()
		}
		finishPrimary()
		sub.noteScored(t)
		res.alarms = sub.scrubAlarms(alarms, repaired)
		res.scored = true
		return res
	}
}

// stampDone closes the push interval on a timed frame: one clock read
// that feeds the latency watch, the histograms and the trace ring alike
// (one clock, one reading), plus the staged backend's split stamp when
// the capability is present.
func (sub *subscription) stampDone(res *scoreResult, timed bool) {
	if !timed {
		return
	}
	res.doneNs = metrics.Now()
	if sub.splitter != nil {
		res.splitNs = sub.splitter.LastSplitNanos()
	}
}

// guardedPush runs the primary push under the panic guard and, when
// configured, the latency watch. The watch reuses the shared stage
// stamps — it takes no clock reading of its own.
func (sub *subscription) guardedPush(f core.Frame, res *scoreResult, timed bool) ([]core.Alarm, error) {
	alarms, err := GuardPush(sub.det, f)
	sub.stampDone(res, timed)
	if err == nil && sub.health.LatencyThreshold > 0 &&
		res.doneNs-res.pushNs > int64(sub.health.LatencyThreshold) {
		return alarms, errLatency
	}
	return alarms, err
}

// errLatency marks a primary push that exceeded HealthConfig.LatencyThreshold.
var errLatency = errors.New("engine: backend push exceeded latency threshold")

// fault counts one fault and advances the state machine; err carries the
// cause when there is one (nil for a bad-score fault).
func (sub *subscription) fault(err error) {
	if _, isPanic := err.(*PanicError); isPanic {
		atomic.AddUint64(&sub.panics, 1)
	}
	sub.recordFault()
}

// serveFallback pushes the frame through the warm fallback, which owns
// the alarm stream while the primary is distrusted. On timed frames the
// push interval is re-based around the fallback push (a probing
// primary's stamps are discarded — the fallback is what served), and
// the split stamp is cleared: fallback service has no tail stage.
func (sub *subscription) serveFallback(f core.Frame, repaired bool, res scoreResult, timed bool) scoreResult {
	if timed {
		res.pushNs = metrics.Now()
		res.splitNs = 0
	}
	alarms, err := GuardPush(sub.fallback, f)
	if timed {
		res.doneNs = metrics.Now()
	}
	if err != nil {
		atomic.AddUint64(&sub.fallbackErrs, 1)
		res.err = err
		res.path = metrics.PathError
		return res
	}
	atomic.AddUint64(&sub.fallbackFrames, 1)
	if n := len(alarms); n > 0 {
		atomic.AddUint64(&sub.fallbackAlarms, uint64(n))
	}
	sub.noteScored(f.Time)
	res.alarms = sub.scrubAlarms(alarms, repaired)
	res.scored = true
	res.path = metrics.PathFallback
	return res
}

// splitFiniteAlarms removes non-finite-scored alarms in place, returning
// the retained slice and how many were dropped.
func splitFiniteAlarms(alarms []core.Alarm) ([]core.Alarm, int) {
	bad := 0
	w := 0
	for _, a := range alarms {
		if isFinite(a.Score) {
			alarms[w] = a
			w++
		} else {
			bad++
		}
	}
	return alarms[:w], bad
}

func isFinite(x float64) bool {
	// NaN fails both comparisons; ±Inf fails one.
	return x == x && x-x == 0
}

// scrubAlarms drops alarms raised on gap-marked (repaired) variates —
// a held-last placeholder is not evidence of an anomaly.
func (sub *subscription) scrubAlarms(alarms []core.Alarm, repaired bool) []core.Alarm {
	if !repaired || sub.hygiene.Policy != HygieneGapMark || len(alarms) == 0 {
		return alarms
	}
	w := 0
	for _, a := range alarms {
		if a.Variate < 0 || a.Variate >= len(sub.repaired) || !sub.repaired[a.Variate] {
			alarms[w] = a
			w++
		}
	}
	return alarms[:w]
}
