package engine

import (
	"strconv"
	"sync/atomic"
	"time"

	"aero/internal/core"
	"aero/internal/metrics"
)

// TraceConfig parameterizes the per-subscription frame-trace flight
// recorder, active whenever Config.Metrics is set.
type TraceConfig struct {
	// Depth is how many recent frame traces each tenant retains
	// (Depth × ~80 B of fixed memory per tenant). Defaults to 64.
	Depth int
	// SlowThreshold pins the slowest frame at or above this end-to-end
	// latency for /trace inspection. Defaults to 250ms; negative
	// disables slow capture.
	SlowThreshold time.Duration
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.Depth <= 0 {
		c.Depth = 64
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	if c.SlowThreshold < 0 {
		c.SlowThreshold = 0
	}
	return c
}

// stageSplitter is the optional capability of staged backends
// (backend.DSPOTStage): a clock installed at subscribe time stamps the
// boundary between the inner score and the adaptive tail step, so the
// metrics layer can split "score" from "tail" latency without the
// engine reaching into backend internals.
type stageSplitter interface {
	SetStageClock(now func() int64)
	LastSplitNanos() int64
}

// incrementalStatser is the optional capability of backends that
// maintain incremental-forward counters (core.StreamDetector, and
// backend.DSPOTStage by delegation); the frame tracer diffs the
// counters across a push to classify which score path served it.
type incrementalStatser interface {
	IncrementalStats() core.IncrementalStats
}

// engineObs is the engine-wide observability state, nil when disabled.
type engineObs struct {
	reg   *metrics.Registry
	trace TraceConfig
	drain *metrics.Histogram
}

// subObs is one tenant's observability state: its trace ring and its
// kind-labeled latency series. Written only by the draining worker (one
// worker drains a shard at a time, a tenant is pinned to one shard), so
// seq needs no atomics.
type subObs struct {
	ring  *metrics.TraceRing
	score *metrics.Histogram // primary push, hygiene excluded
	tail  *metrics.Histogram // adaptive tail share of the push, staged backends only
	seq   uint64
}

// newEngineObs registers the engine-level series: shard queue gauges,
// scrape-time counter views over stats the hot path already maintains,
// and the drain-latency histogram. Everything here reads existing
// counters — the only new hot-path work observability adds lives in
// drain/score stamps.
func (e *Engine) newEngineObs(reg *metrics.Registry, trace TraceConfig) *engineObs {
	obs := &engineObs{
		reg:   reg,
		trace: trace.withDefaults(),
		drain: reg.Histogram("aero_engine_drain_seconds", "latency of one shard drain batch"),
	}
	reg.CounterFunc("aero_engine_frames_total", "frames scored", func() float64 {
		return float64(e.Totals().Frames)
	})
	reg.CounterFunc("aero_engine_alarms_total", "alarms emitted", func() float64 {
		return float64(e.Totals().Alarms)
	})
	reg.CounterFunc("aero_engine_alarms_blocked_total", "alarm emissions that parked on a full fan-in channel", func() float64 {
		return float64(e.Totals().AlarmsBlocked)
	})
	reg.CounterFunc("aero_engine_errors_total", "frames rejected at scoring or routing time", func() float64 {
		return float64(e.Totals().Errors)
	})
	reg.CounterFunc("aero_engine_errors_dropped_total", "frame-error reports dropped from the Errors channel", func() float64 {
		return float64(e.Totals().ErrorsDropped)
	})
	for _, sh := range e.shards {
		sh := sh
		label := strconv.Itoa(sh.id)
		reg.GaugeFunc("aero_engine_queue_depth", "frames waiting in the shard queue", func() float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return float64(sh.count)
		}, "shard", label)
		reg.GaugeFunc("aero_engine_queue_headroom", "free slots in the shard queue", func() float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return float64(len(sh.queue) - sh.count)
		}, "shard", label)
		reg.CounterFunc("aero_engine_shard_frames_total", "frames scored by the shard", func() float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return float64(sh.frames)
		}, "shard", label)
		reg.GaugeFunc("aero_engine_shard_tenants", "tenants pinned to the shard", func() float64 {
			return float64(sh.subsCount())
		}, "shard", label)
	}
	for _, st := range []HealthState{HealthHealthy, HealthDegraded, HealthQuarantined, HealthProbation} {
		st := st
		reg.GaugeFunc("aero_engine_tenants", "tenants by health state", func() float64 {
			n := 0
			e.mu.RLock()
			for _, sub := range e.subs {
				if sub.state() == st {
					n++
				}
			}
			e.mu.RUnlock()
			return float64(n)
		}, "health", st.String())
	}
	sumSubs := func(read func(*subscription) uint64) func() float64 {
		return func() float64 {
			var total uint64
			e.mu.RLock()
			for _, sub := range e.subs {
				total += read(sub)
			}
			e.mu.RUnlock()
			return float64(total)
		}
	}
	reg.CounterFunc("aero_engine_faults_total", "faults charged by health supervision",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.faultsTotal) }))
	reg.CounterFunc("aero_engine_panics_total", "contained backend panics",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.panics) }))
	reg.CounterFunc("aero_engine_hygiene_dropped_total", "frames rejected by the hygiene stage",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.hygieneDropped) }))
	reg.CounterFunc("aero_engine_hygiene_repaired_total", "frames repaired in place by the hygiene stage",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.hygieneRepaired) }))
	reg.CounterFunc("aero_engine_fallback_frames_total", "frames served by warm fallback backends",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.fallbackFrames) }))
	reg.CounterFunc("aero_engine_quarantines_total", "health transitions into quarantine",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.quarantines) }))
	reg.CounterFunc("aero_engine_recoveries_total", "health transitions from probation back to healthy",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.recoveries) }))
	reg.CounterFunc("aero_engine_swaps_total", "model hot-swaps applied to tenants",
		sumSubs(func(s *subscription) uint64 { return atomic.LoadUint64(&s.swaps) }))

	// Incremental-forward and DSPOT tail counters live inside backends
	// and are only coherent behind the subscription lock; the scrape
	// takes each tenant's lock briefly, as Subscription.RefitStats does.
	incSum := func(read func(core.IncrementalStats) uint64) func() float64 {
		return func() float64 {
			var total uint64
			e.mu.RLock()
			defer e.mu.RUnlock()
			for _, sub := range e.subs {
				if sub.incStats == nil {
					continue
				}
				sub.mu.Lock()
				total += read(sub.incStats.IncrementalStats())
				sub.mu.Unlock()
			}
			return float64(total)
		}
	}
	reg.CounterFunc("aero_incremental_frames_total", "frames scored by incremental-capable backends",
		incSum(func(st core.IncrementalStats) uint64 { return st.Frames }))
	reg.CounterFunc("aero_incremental_served_total", "frames served by the incremental O(1) path",
		incSum(func(st core.IncrementalStats) uint64 { return st.Incremental }))
	for _, c := range []struct {
		cause string
		read  func(core.IncrementalStats) uint64
	}{
		{"scheduled", func(st core.IncrementalStats) uint64 { return st.ScheduledRefreshes }},
		{"drift", func(st core.IncrementalStats) uint64 { return st.DriftRefreshes }},
		{"boundary", func(st core.IncrementalStats) uint64 { return st.BoundaryRefreshes }},
		{"invalidation", func(st core.IncrementalStats) uint64 { return st.InvalidationRefreshes }},
	} {
		reg.CounterFunc("aero_incremental_refreshes_total", "full exact refreshes by cause",
			incSum(c.read), "cause", c.cause)
	}
	reg.CounterFunc("aero_dspot_exceedances_total", "scores in (t, z]", func() float64 {
		var total uint64
		e.mu.RLock()
		defer e.mu.RUnlock()
		for _, sub := range e.subs {
			sub.mu.Lock()
			if r, ok := capability[tailRefitter](sub.det); ok {
				total += r.RefitStats().Exceedances
			}
			sub.mu.Unlock()
		}
		return float64(total)
	})
	return obs
}

// attachObs wires one subscription's observability: its kind-labeled
// latency series, its trace ring, and the optional backend capabilities
// (stage split clock, incremental-path counters). Called under e.mu at
// subscribe time; sub is not yet visible to workers.
func (e *Engine) attachObs(sub *subscription) {
	if inc, ok := capability[incrementalStatser](sub.det); ok {
		sub.incStats = inc
	}
	if e.obs == nil {
		return
	}
	kind := sub.det.Kind()
	obs := &subObs{
		ring: metrics.NewTraceRing(e.obs.trace.Depth, e.obs.trace.SlowThreshold),
		score: e.obs.reg.Histogram("aero_engine_score_seconds",
			"primary backend push latency (hygiene excluded)", "kind", kind),
	}
	if sp, ok := capability[stageSplitter](sub.det); ok {
		sub.splitter = sp
		sp.SetStageClock(metrics.Now)
		obs.tail = e.obs.reg.Histogram("aero_dspot_step_seconds",
			"adaptive tail share of the push (post inner score)", "kind", kind)
	}
	sub.obs = obs
}

// classifyPath labels which score path served a push, from the
// incremental counter deltas across it.
func classifyPath(before, after core.IncrementalStats) uint8 {
	switch {
	case after.Incremental > before.Incremental:
		return metrics.PathBenign
	case after.BoundaryRefreshes > before.BoundaryRefreshes:
		return metrics.PathGuard
	case after.ScheduledRefreshes > before.ScheduledRefreshes,
		after.DriftRefreshes > before.DriftRefreshes,
		after.InvalidationRefreshes > before.InvalidationRefreshes:
		return metrics.PathRefresh
	}
	return metrics.PathFull
}

// recordFrame feeds one scored frame into the tenant's latency series
// and trace ring. It runs in the drain loop AFTER sub.mu is released
// and after alarm fan-in, so the ring's fan-in stage is real emission
// latency and the subscription's critical section is never lengthened
// by observability. Allocation-free (pinned by TestMetricsHotPathAllocs).
func (sub *subscription) recordFrame(t float64, res *scoreResult, t0 int64) {
	obs := sub.obs
	if obs == nil {
		return
	}
	end := metrics.Now()
	obs.seq++
	ft := metrics.FrameTrace{
		Seq:     obs.seq,
		Time:    t,
		StartNs: t0,
		Path:    res.path,
		Err:     res.err != nil,
	}
	if n := len(res.alarms); n > 255 {
		ft.Alarms = 255
	} else {
		ft.Alarms = uint8(n)
	}
	if res.lockNs >= t0 {
		ft.Stage[metrics.StageWait] = res.lockNs - t0
	}
	if res.pushNs >= res.lockNs {
		ft.Stage[metrics.StageHygiene] = res.pushNs - res.lockNs
	}
	if res.doneNs > res.pushNs {
		push := res.doneNs - res.pushNs
		if res.splitNs > res.pushNs && res.splitNs <= res.doneNs {
			ft.Stage[metrics.StageScore] = res.splitNs - res.pushNs
			ft.Stage[metrics.StageTail] = res.doneNs - res.splitNs
		} else {
			ft.Stage[metrics.StageScore] = push
		}
		if res.err == nil {
			obs.score.Record(push)
			if obs.tail != nil && ft.Stage[metrics.StageTail] > 0 {
				obs.tail.Record(ft.Stage[metrics.StageTail])
			}
		}
		ft.Stage[metrics.StageFanIn] = end - res.doneNs
	}
	obs.ring.Record(&ft)
}

// Trace snapshots the tenant's frame-trace ring; ok is false when the
// engine runs without observability.
func (s *Subscription) Trace() (metrics.TraceSnapshot, bool) {
	if s.sub.obs == nil {
		return metrics.TraceSnapshot{}, false
	}
	return s.sub.obs.ring.Snapshot(), true
}
