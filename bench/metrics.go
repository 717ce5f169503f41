package main

import "aero/internal/ingest"

// metricDef names one metric. BENCHMARK.json repeats name, unit and
// better (TestBenchmarkJSONMatches keeps the two in step); target says
// which end-to-end metric on which workload a per-layer metric should
// move, and count marks the ones that are pure work counts: with --blocks
// they repeat exactly from run to run, and a run where they do not has
// timing-dependent work.
type metricDef struct {
	name, unit, better string
	target             string
	count              bool
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "frames_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_us_per_frame", unit: "us", better: "lower"},
	{name: "heap_live_mb", unit: "MB", better: "lower"},
}

var perLayer = []metricDef{
	{name: "verdict_p50_ms", unit: "ms", better: "lower", target: "frames_per_s on the closed loops (in flight / throughput), cpu_us_per_frame@aero-open"},
	{name: "verdict_p99_ms", unit: "ms", better: "lower", target: "cpu_us_per_frame@aero-open (the refresh tail), frames_per_s on the closed loops"},
	{name: "ingest.send_us_p50", unit: "us", better: "lower", target: "frames_per_s@wire-cheap"},
	{name: "ingest.send_us_p99", unit: "us", better: "lower", target: "frames_per_s@wire-cheap"},
	{name: "ingest.credit_stall_share", unit: "share", better: "lower", target: "frames_per_s@wire-cheap"},
	{name: "ingest.ack_rtt_ms_p50", unit: "ms", better: "lower", target: "verdict_p50_ms@wire-cheap"},
	{name: "ingest.ack_rtt_ms_p99", unit: "ms", better: "lower", target: "verdict_p50_ms@wire-cheap"},
	{name: "ingest.acks_per_kframe", unit: "count", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "ingest.codec_ns_per_frame", unit: "ns", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "ingest.wire_bytes_per_frame", unit: "B", better: "lower", target: "cpu_us_per_frame@wire-cheap", count: true},
	{name: "ingest.cpu_us_per_frame", unit: "us", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "engine.ingest_us_p50", unit: "us", better: "lower", target: "frames_per_s@wire-cheap, frames_per_s@aero-sat"},
	{name: "engine.ingest_us_p99", unit: "us", better: "lower", target: "frames_per_s@wire-cheap, frames_per_s@aero-sat"},
	{name: "engine.queue_wait_ms_p50", unit: "ms", better: "lower", target: "verdict_p50_ms@aero-open"},
	{name: "engine.queue_wait_ms_p99", unit: "ms", better: "lower", target: "verdict_p99_ms@aero-open"},
	{name: "engine.fanin_wait_us_p50", unit: "us", better: "lower", target: "frames_per_s@aero-storm"},
	{name: "engine.alarm_blocked_share", unit: "share", better: "lower", target: "frames_per_s@aero-storm"},
	{name: "engine.guard_ns_per_frame", unit: "ns", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "engine.overhead_us_per_frame", unit: "us", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "engine.shard_skew", unit: "x", better: "lower", target: "frames_per_s@aero-sat", count: true},
	{name: "engine.scaling_x", unit: "x", better: "higher", target: "frames_per_s@aero-sat"},
	{name: "backend.push_us_p50", unit: "us", better: "lower", target: "verdict_p50_ms@aero-open"},
	{name: "backend.push_us_p99", unit: "us", better: "lower", target: "verdict_p99_ms@aero-open"},
	{name: "evt.step_us_per_frame", unit: "us", better: "lower", target: "cpu_us_per_frame@aero-storm, cpu_us_per_frame@wire-cheap"},
	{name: "evt.refits_per_kframe", unit: "count", better: "lower", target: "cpu_us_per_frame@aero-storm", count: true},
	{name: "evt.exceed_share", unit: "share", better: "lower", target: "cpu_us_per_frame@aero-storm", count: true},
	{name: "core.push_scores_us_p50", unit: "us", better: "lower", target: "frames_per_s@aero-sat"},
	{name: "core.push_scores_us_p99", unit: "us", better: "lower", target: "verdict_p99_ms@aero-open"},
	{name: "core.incremental_us_p50", unit: "us", better: "lower", target: "frames_per_s@aero-sat"},
	{name: "core.refresh_us_p50", unit: "us", better: "lower", target: "frames_per_s@aero-storm, verdict_p99_ms@aero-open"},
	{name: "core.incremental_share", unit: "share", better: "higher", target: "cpu_us_per_frame@aero-sat", count: true},
	{name: "core.boundary_refresh_share", unit: "share", better: "lower", target: "cpu_us_per_frame@aero-storm", count: true},
	{name: "core.scheduled_refresh_share", unit: "share", better: "lower", target: "cpu_us_per_frame@aero-sat", count: true},
	{name: "core.busy_share", unit: "share", better: "higher", target: "frames_per_s@aero-sat"},
	{name: "baselines.push_scores_ns_p50", unit: "ns", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "alerts.push_ns_p50", unit: "ns", better: "lower", target: "frames_per_s@aero-storm"},
	{name: "alerts.push_ns_p99", unit: "ns", better: "lower", target: "frames_per_s@aero-storm"},
	{name: "alerts.alarms_in", unit: "count", better: "lower", target: "frames_per_s@aero-storm", count: true},
	{name: "alerts.incidents_out", unit: "count", better: "lower", target: "frames_per_s@aero-storm"},
	{name: "alerts.reduction_x", unit: "x", better: "higher", target: "frames_per_s@aero-storm"},
	{name: "lifecycle.swap_us", unit: "us", better: "lower", target: "none yet: baseline for a later swap workload"},
	{name: "lifecycle.snapshot_us", unit: "us", better: "lower", target: "none yet: baseline for a later swap workload"},
	{name: "lifecycle.restore_us", unit: "us", better: "lower", target: "none yet: baseline for a later swap workload"},
	{name: "lifecycle.snapshot_bytes", unit: "B", better: "lower", target: "none yet: baseline for a later swap workload", count: true},
	{name: "metrics.overhead_share", unit: "share", better: "lower", target: "cpu_us_per_frame@aero-sat, cpu_us_per_frame@wire-cheap"},
	{name: "runtime.allocs_per_frame", unit: "count", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "runtime.alloc_bytes_per_frame", unit: "B", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", target: "cpu_us_per_frame@wire-cheap"},
	{name: "runtime.gc_pause_ms_total", unit: "ms", better: "lower", target: "verdict_p99_ms@wire-cheap"},
	{name: "gen.late_us_p50", unit: "us", better: "lower", target: "subtract from verdict_p50_ms@aero-open"},
	{name: "gen.late_us_p99", unit: "us", better: "lower", target: "subtract from verdict_p99_ms@aero-open"},
	{name: "host.ref_ms_before", unit: "ms", better: "lower", target: "none: the host, not the program"},
	{name: "host.ref_ms_after", unit: "ms", better: "lower", target: "none: the host, not the program"},
	{name: "trace.overhead_share", unit: "share", better: "lower", target: "none: how far the traced pass is from the untraced one"},
	{name: "run.frames_per_s_mean", unit: "1/s", better: "higher", target: "frames_per_s on the same workload: whole phase, slow blocks included"},
	{name: "run.verdict_samples", unit: "count", better: "higher", target: "verdict_p99_ms on the same workload: samples behind the percentiles"},
}

// tracedResult is one traced run of a workload, turned into every
// per-layer metric. A layer the workload does not exercise reports 0
// (ingest.* in process, core.* on wire-cheap, baselines.* on AERO).
func tracedResult(o options, sp spec) (result, error) {
	t, err := runTraced(o, sp)
	if err != nil {
		return result{}, err
	}
	ref, tr := t.ref, t.spans
	res := result{Attempted: ref.attempted, Failed: ref.failed, Metrics: map[string]metric{}}
	for _, p := range []*passResult{t.spans, t.single, t.observed, t.inproc} {
		if p != nil {
			ref.notes = append(ref.notes, p.notes...)
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
	}
	res.Correct = res.Failed == 0
	report(o, sp, ref, t.refBefore, t.refAfter)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Unit: d.unit}
	}
	set := func(name string, v float64) {
		m, ok := res.Metrics[name]
		if !ok {
			panic("bench: metric not declared: " + name)
		}
		res.Metrics[name] = metric{Value: v, Unit: m.Unit}
	}
	pct := func(ns []int64, q, scale float64) float64 { return float64(quantile(sortedCopy(ns), q)) / scale }

	frames, w := float64(tr.attempted), tr.work.n
	wire := sp.loop == loopWire
	// The generator's call is Client.Send on the wire and Engine.Ingest in
	// process; the wire workload times Engine.Ingest in its in-process pass.
	enter := tr
	if wire {
		enter = t.inproc
		set("ingest.send_us_p50", pct(tr.ingestNs, 0.5, 1e3))
		set("ingest.send_us_p99", pct(tr.ingestNs, 0.99, 1e3))
		set("ingest.credit_stall_share", ratio(float64(tr.client.BlockedWaits), float64(tr.client.Sent)))
		set("ingest.ack_rtt_ms_p50", tr.ackP50)
		set("ingest.ack_rtt_ms_p99", tr.ackP99)
		set("ingest.acks_per_kframe", 1e3*ratio(float64(tr.server.Acks), float64(tr.server.Frames)))
		set("ingest.cpu_us_per_frame", tr.cpuUs-t.inproc.cpuUs)
	}
	set("verdict_p50_ms", ref.p50Ms)
	set("verdict_p99_ms", ref.p99Ms)
	set("ingest.codec_ns_per_frame", t.codecNs)
	set("ingest.wire_bytes_per_frame", float64(ingest.DataWireSize(variates)))
	set("engine.ingest_us_p50", pct(enter.ingestNs, 0.5, 1e3))
	set("engine.ingest_us_p99", pct(enter.ingestNs, 0.99, 1e3))
	set("engine.queue_wait_ms_p50", pct(tr.queueNs, 0.5, 1e6))
	set("engine.queue_wait_ms_p99", pct(tr.queueNs, 0.99, 1e6))
	set("engine.fanin_wait_us_p50", pct(tr.faninNs, 0.5, 1e3))
	set("engine.alarm_blocked_share", ratio(float64(w[cBlocked]), float64(w[cAlarms])))
	set("engine.guard_ns_per_frame", t.guardNs)
	set("engine.overhead_us_per_frame", tr.cpuUsMean-float64(tr.sumPush)/1e3/frames)
	var maxShard, sumShard float64
	for _, n := range tr.work.shard {
		maxShard, sumShard = max(maxShard, float64(n)), sumShard+float64(n)
	}
	set("engine.shard_skew", ratio(maxShard*float64(len(tr.work.shard)), sumShard))
	set("engine.scaling_x", ratio(ref.fps, t.single.fps))
	set("backend.push_us_p50", pct(tr.pushNs, 0.5, 1e3))
	set("backend.push_us_p99", pct(tr.pushNs, 0.99, 1e3))
	set("evt.step_us_per_frame", float64(tr.sumPush-tr.sumInner)/1e3/frames)
	set("evt.refits_per_kframe", 1e3*ratio(float64(w[cRefits]), float64(tr.scoredFrames)))
	set("evt.exceed_share", ratio(float64(w[cExceedances]), float64(tr.scoredFrames)*variates))
	if sp.kind == "aero" {
		set("core.push_scores_us_p50", pct(tr.innerNs, 0.5, 1e3))
		set("core.push_scores_us_p99", pct(tr.innerNs, 0.99, 1e3))
		set("core.incremental_us_p50", pct(tr.incrNs, 0.5, 1e3))
		set("core.refresh_us_p50", pct(tr.refreshNs, 0.5, 1e3))
		set("core.incremental_share", ratio(float64(w[cIncremental]), float64(w[cScored])))
		set("core.boundary_refresh_share", ratio(float64(w[cBoundary]), float64(w[cScored])))
		set("core.scheduled_refresh_share", ratio(float64(w[cScheduled]), float64(w[cScored])))
		set("core.busy_share", float64(tr.sumInner)/(float64(tr.wallNs)*float64(tr.procs)))
	} else {
		set("baselines.push_scores_ns_p50", pct(tr.innerNs, 0.5, 1))
	}
	set("alerts.push_ns_p50", pct(tr.alertNs, 0.5, 1))
	set("alerts.push_ns_p99", pct(tr.alertNs, 0.99, 1))
	set("alerts.alarms_in", float64(tr.alarmsIn))
	set("alerts.incidents_out", float64(tr.incidents))
	set("alerts.reduction_x", ratio(float64(tr.alarmsIn), float64(tr.incidents)))
	set("lifecycle.swap_us", tr.life.swapUs)
	set("lifecycle.snapshot_us", tr.life.snapshotUs)
	set("lifecycle.restore_us", tr.life.restoreUs)
	set("lifecycle.snapshot_bytes", float64(tr.life.snapshotBytes))
	set("metrics.overhead_share", ratio(t.observed.cpuUs-ref.cpuUs, ref.cpuUs))
	set("runtime.allocs_per_frame", float64(ref.mallocs)/float64(ref.attempted))
	set("runtime.alloc_bytes_per_frame", float64(ref.bytes)/float64(ref.attempted))
	set("runtime.gc_cycles", float64(ref.gcCycles))
	set("runtime.gc_pause_ms_total", ref.gcPauseMs)
	set("gen.late_us_p50", tr.lateP50)
	set("gen.late_us_p99", tr.lateP99)
	set("host.ref_ms_before", t.refBefore)
	set("host.ref_ms_after", t.refAfter)
	set("trace.overhead_share", ratio(tr.cpuUs-ref.cpuUs, ref.cpuUs))
	set("run.frames_per_s_mean", ref.fpsMean)
	set("run.verdict_samples", float64(ref.samples))
	return res, nil
}
