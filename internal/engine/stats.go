package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"aero/internal/core"
	"aero/internal/evt"
	"aero/internal/tensor"
)

// ShardStats is a point-in-time snapshot of one shard's activity.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Subscriptions is the number of tenants pinned to the shard.
	Subscriptions int
	// Frames counts frames scored (including warmup frames).
	Frames uint64
	// Alarms counts alarms emitted — the denominator of any downstream
	// triage reduction ratio.
	Alarms uint64
	// AlarmsBlocked counts alarm emissions that found the fan-in channel
	// full and had to park until the consumer caught up: a nonzero,
	// growing value means the alarm consumer — not scoring — is the
	// pipeline's bottleneck.
	AlarmsBlocked uint64
	// Errors counts frames rejected at scoring time (backend errors,
	// contained panics, hygiene drops, quarantine rejections).
	Errors uint64
	// ErrorsDropped counts frame-error reports that found the Errors
	// channel full and were dropped from it — the errors themselves are
	// still counted in Errors, but no FrameError was delivered. A growing
	// value means the error consumer is not keeping up.
	ErrorsDropped uint64
	// QueueDepth is the number of frames currently waiting.
	QueueDepth int
	// FramesPerSec is an exponentially-weighted estimate of the shard's
	// recent processing rate (0 until two drains have happened).
	FramesPerSec float64
}

// Stats snapshots every shard.
func (e *Engine) Stats() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, sh := range e.shards {
		sh.mu.Lock()
		out[i] = ShardStats{
			Shard:         sh.id,
			Subscriptions: sh.subsN,
			Frames:        sh.frames,
			Alarms:        sh.alarmsN,
			AlarmsBlocked: sh.blockedN,
			Errors:        sh.errsN,
			ErrorsDropped: sh.droppedN,
			QueueDepth:    sh.count,
			FramesPerSec:  sh.rate,
		}
		sh.mu.Unlock()
	}
	return out
}

// Totals aggregates all shards into one ShardStats (Shard is -1 and
// FramesPerSec is total frames over the engine's lifetime). Errors also
// includes frames that failed routing and so never reached a shard, and
// ErrorsDropped the routing-error reports dropped from the channel.
func (e *Engine) Totals() ShardStats {
	t := ShardStats{Shard: -1, Errors: e.routerErrs.Load(), ErrorsDropped: e.routerDropped.Load()}
	for _, s := range e.Stats() {
		t.Subscriptions += s.Subscriptions
		t.Frames += s.Frames
		t.Alarms += s.Alarms
		t.AlarmsBlocked += s.AlarmsBlocked
		t.Errors += s.Errors
		t.ErrorsDropped += s.ErrorsDropped
		t.QueueDepth += s.QueueDepth
	}
	if el := time.Since(e.start).Seconds(); el > 0 {
		t.FramesPerSec = float64(t.Frames) / el
	}
	return t
}

// SubscriptionStats is a point-in-time snapshot of one tenant.
type SubscriptionStats struct {
	// Frames counts frames scored for this tenant.
	Frames uint64
	// Alarms counts alarms raised for this tenant — the denominator of
	// any downstream triage reduction ratio.
	Alarms uint64
	// AlarmsBlocked counts this tenant's alarm emissions that found the
	// fan-in channel full and parked until the consumer caught up.
	AlarmsBlocked uint64
	// Swaps counts model hot-swaps applied to this tenant.
	Swaps uint64
	// Ready reports whether the tenant's window is warm.
	Ready bool
	// Shard is the index of the shard the tenant is pinned to.
	Shard int

	// Health is the tenant's current fault-containment state.
	Health HealthState
	// Faults counts every fault the supervisor charged to the tenant:
	// contained panics, backend errors, non-finite alarm scores, and
	// latency breaches.
	Faults uint64
	// Panics counts the subset of Faults that were recovered panics.
	Panics uint64
	// Degradations, Quarantines, Probations, Recoveries count health
	// state transitions: healthy→degraded, →quarantined, quarantined→
	// probation, and probation→healthy respectively.
	Degradations uint64
	Quarantines  uint64
	Probations   uint64
	Recoveries   uint64
	// HygieneDropped counts frames the hygiene stage rejected
	// (stale/duplicate time, unrepairable non-finite magnitudes);
	// HygieneRepaired counts frames scored after in-place repair.
	HygieneDropped  uint64
	HygieneRepaired uint64
	// FallbackFrames and FallbackAlarms count service delivered by the
	// warm fallback backend while the primary was distrusted;
	// FallbackErrors counts fallback pushes that errored or panicked
	// (including warm-feed pushes while the primary was serving).
	FallbackFrames uint64
	FallbackAlarms uint64
	FallbackErrors uint64
}

// Subscription is the caller's handle on one registered tenant.
type Subscription struct {
	// ID is the tenant identifier passed to Subscribe.
	ID  string
	e   *Engine
	sub *subscription
}

// Stats snapshots the tenant's counters.
func (s *Subscription) Stats() SubscriptionStats {
	s.sub.mu.Lock()
	ready := s.sub.det.Ready()
	s.sub.mu.Unlock()
	return SubscriptionStats{
		Frames:          atomic.LoadUint64(&s.sub.frames),
		Alarms:          atomic.LoadUint64(&s.sub.alarms),
		AlarmsBlocked:   atomic.LoadUint64(&s.sub.blocked),
		Swaps:           atomic.LoadUint64(&s.sub.swaps),
		Ready:           ready,
		Shard:           s.sub.shard.id,
		Health:          s.sub.state(),
		Faults:          atomic.LoadUint64(&s.sub.faultsTotal),
		Panics:          atomic.LoadUint64(&s.sub.panics),
		Degradations:    atomic.LoadUint64(&s.sub.degradations),
		Quarantines:     atomic.LoadUint64(&s.sub.quarantines),
		Probations:      atomic.LoadUint64(&s.sub.probations),
		Recoveries:      atomic.LoadUint64(&s.sub.recoveries),
		HygieneDropped:  atomic.LoadUint64(&s.sub.hygieneDropped),
		HygieneRepaired: atomic.LoadUint64(&s.sub.hygieneRepaired),
		FallbackFrames:  atomic.LoadUint64(&s.sub.fallbackFrames),
		FallbackAlarms:  atomic.LoadUint64(&s.sub.fallbackAlarms),
		FallbackErrors:  atomic.LoadUint64(&s.sub.fallbackErrs),
	}
}

// Health returns the tenant's current fault-containment state, readable
// lock-free at any time.
func (s *Subscription) Health() HealthState { return s.sub.state() }

// QueueHeadroom reports how many more frames the tenant's shard queue
// can accept before Ingest would block — the signal a network front end
// sizes its first flow-control credit grant from (IngestBatch returns the
// same figure for every later one), so a saturated shard slows remote
// producers at the protocol layer instead of parking their connection
// goroutines.
func (s *Subscription) QueueHeadroom() int {
	sh := s.sub.shard
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.queue) - sh.count
}

// SetFallback installs a warm standby backend for the tenant: while the
// primary is healthy the fallback is kept current from the same frames
// (scores discarded), and while the primary is quarantined or on
// probation the fallback serves the alarm stream. The intended shape is
// an expensive primary (aero, ~2.9 ms/frame) backed by a cheap streaming
// baseline (fluxev, sub-µs) whose warm-feed cost is negligible next
// to the primary's push.
//
// The fallback's variate count must match the tenant's. Install it
// before frames flow (or accept that it warms from mid-stream); passing
// nil removes the fallback.
func (s *Subscription) SetFallback(det core.StreamBackend) error {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	if det != nil && det.Variates() != s.sub.n {
		return fmt.Errorf("engine: fallback has %d variates, subscription %q expects %d",
			det.Variates(), s.ID, s.sub.n)
	}
	s.sub.fallback = det
	return nil
}

// FallbackKind returns the installed fallback backend's kind tag, or ""
// when the tenant has none.
func (s *Subscription) FallbackKind() string {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	if s.sub.fallback == nil {
		return ""
	}
	return s.sub.fallback.Kind()
}

// modelSwapper is the AERO-specific capability behind Subscription.Swap:
// installing an in-memory *core.Model without a serialize/parse round
// trip. StreamDetector implements it; DSPOT-wrapped or baseline tenants
// swap through SwapArtifact instead.
type modelSwapper interface {
	Swap(m *core.Model) error
}

// Swap installs a freshly trained model into the tenant's detector with
// zero downtime. The subscription mutex serializes the swap against the
// draining worker's Push, so the swap always lands at a frame boundary:
// no frame is ever scored by a half-installed model, no queued frame is
// dropped or re-ordered — frames enqueued before the swap completes score
// under whichever model is installed when their turn comes, in strict
// arrival order. The warm window is preserved (core re-normalizes it
// under the new model's bounds), so a swapped tenant never re-warms.
//
// The new model must match the tenant's variate count and window length
// (see core.StreamDetector.Swap for the exact contract), and the tenant
// must be AERO-backed; other backends hot-swap via SwapArtifact.
func (s *Subscription) Swap(m *core.Model) error {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	sw, ok := s.sub.det.(modelSwapper)
	if !ok {
		return fmt.Errorf("engine: %s backend does not accept a model swap; use SwapArtifact", s.sub.det.Kind())
	}
	if err := sw.Swap(m); err != nil {
		return err
	}
	atomic.AddUint64(&s.sub.swaps, 1)
	return nil
}

// SwapArtifact installs a freshly trained artifact of the tenant's
// backend kind with zero downtime — the backend-agnostic form of Swap,
// with the same frame-boundary ordering guarantee (the subscription
// mutex serializes it against the draining worker's Push).
func (s *Subscription) SwapArtifact(artifact []byte) error {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	if err := s.sub.det.SwapArtifact(artifact); err != nil {
		return err
	}
	atomic.AddUint64(&s.sub.swaps, 1)
	return nil
}

// Kind returns the tenant's backend kind tag (e.g. "aero", "fluxev+dspot").
func (s *Subscription) Kind() string {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	return s.sub.det.Kind()
}

// GraphSnapshot returns the tenant's current window-wise learned adjacency
// (live Fig. 8), serialized against scoring. It fails until the tenant's
// window is warm, and for backends that do not learn a graph.
func (s *Subscription) GraphSnapshot() (*tensor.Dense, error) {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	g, ok := s.sub.det.(core.GraphSnapshotter)
	if !ok {
		return nil, fmt.Errorf("engine: %s backend does not expose a graph snapshot", s.sub.det.Kind())
	}
	return g.GraphSnapshot()
}

// LastTime returns the tenant's newest scored timestamp and whether any
// frame has arrived — after RestoreState, the restored cursor a resuming
// feed must continue strictly after.
func (s *Subscription) LastTime() (float64, bool) {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	return s.sub.det.LastTime()
}

// Threshold returns the tenant's calibrated alarm threshold.
func (s *Subscription) Threshold() float64 {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	return s.sub.det.Threshold()
}

// tailRefitter is the optional capability adaptive alarming stages expose:
// cumulative tail-model maintenance counters (backend.DSPOTStage
// implements it, summed across variates).
type tailRefitter interface {
	RefitStats() evt.RefitStats
}

// RefitStats returns the tenant's adaptive tail-model refit counters and
// whether the backend exposes them (false for static-threshold tenants).
// The read takes the subscription mutex, so it is safe against a
// concurrently draining worker — periodic stats loops can poll it live.
func (s *Subscription) RefitStats() (evt.RefitStats, bool) {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	r, ok := s.sub.det.(tailRefitter)
	if !ok {
		return evt.RefitStats{}, false
	}
	return r.RefitStats(), true
}
