package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"aero/internal/core"
	"aero/internal/ingest"
)

// Work counts the program keeps itself, read when no frame is in flight
// and reported as the difference across the measured phase.
const (
	cScored = iota // frames the AERO detectors scored
	cIncremental
	cBoundary
	cScheduled
	cExceedances
	cRefits
	cAlarms
	cBlocked
	nCounts
)

type counters struct {
	n     [nCounts]uint64
	shard []uint64 // frames per engine shard
}

func (g *rig) counters() counters {
	var c counters
	for _, tn := range g.tenants {
		is, rs, st := tn.stage.IncrementalStats(), tn.stage.RefitStats(), tn.sub.Stats()
		for i, v := range [nCounts]uint64{is.Frames, is.Incremental, is.BoundaryRefreshes, is.ScheduledRefreshes,
			rs.Exceedances, rs.Refits, st.Alarms, st.AlarmsBlocked} {
			c.n[i] += v
		}
	}
	for _, sh := range g.eng.Stats() {
		c.shard = append(c.shard, sh.Frames)
	}
	return c
}

// since returns c minus an earlier reading.
func (c counters) since(before counters) counters {
	for i := range c.n {
		c.n[i] -= before.n[i]
	}
	shard := make([]uint64, len(c.shard))
	for i := range shard {
		shard[i] = c.shard[i] - before.shard[i]
	}
	c.shard = shard
	return c
}

// passResult is everything one pass measured. The end-to-end metrics come
// from an untraced pass; the traced fields are filled only in a traced
// one.
type passResult struct {
	attempted, failed int64
	notes             []string

	procs            int
	wallNs, cpuNs    int64
	fps, cpuUs       float64   // median block
	blockFps         []float64 // every block's throughput, ascending
	fpsMean          float64   // whole phase, Flush included
	cpuUsMean        float64
	p50Ms, p99Ms     float64 // median of per-block percentiles
	samples          int
	heapMB           float64
	mallocs, bytes   uint64
	gcCycles         uint32
	gcPauseMs        float64
	lateP50, lateP99 float64 // µs, open loop

	work           counters // difference across the phase
	scoredFrames   uint64   // frames the streaming tenants scored in the phase
	alarmsIn       uint64   // alarms the triage pipeline received, whole run
	incidents      int64
	client         ingest.ClientStats
	server         ingest.ServerStats
	ackP50, ackP99 float64 // ms

	// Traced: per-frame durations in ns, all measured frames.
	ingestNs, queueNs, pushNs, innerNs []int64
	incrNs, refreshNs                  []int64
	faninNs, alertNs                   []int64
	sumPush, sumInner                  int64
	life                               lifecycleCost
}

// measure runs the measured phase on a fresh, warm rig, checks the
// outputs and closes the rig.
func (g *rig) measure(outDir string) (*passResult, error) {
	defer g.close()
	r := &passResult{procs: runtime.GOMAXPROCS(0)}
	before := g.counters()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start, end := g.drive()
	runtime.ReadMemStats(&m1)
	g.tapIdle()
	r.work = g.counters().since(before)

	r.wallNs, r.cpuNs = end.wall-start.wall, end.cpu-start.cpu
	for _, tn := range g.tenants {
		r.attempted += int64(tn.sent)
	}
	if r.attempted == 0 {
		return nil, errNoBlocks
	}
	r.fpsMean = float64(r.attempted) / (float64(r.wallNs) / 1e9)
	r.cpuUsMean = float64(r.cpuNs) / 1e3 / float64(r.attempted)
	// The first block is left out of the block statistics when there is
	// another: it is measured at the generators, and while the empty queues
	// fill they take frames faster than the engine scores them.
	var fps, cpu []float64
	for i := min(2, len(g.marks)-1); i < len(g.marks); i++ {
		a, b := g.marks[i-1], g.marks[i]
		if b.frames > a.frames && b.wall > a.wall {
			n := float64(b.frames - a.frames)
			fps = append(fps, n/(float64(b.wall-a.wall)/1e9))
			cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/n)
		}
	}
	if len(fps) == 0 {
		return nil, errNoBlocks
	}
	r.fps, r.cpuUs, r.blockFps = median(fps), median(cpu), sortedCopy(fps)

	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	if len(g.late) > 0 {
		s := sortedCopy(g.late)
		r.lateP50, r.lateP99 = float64(quantile(s, 0.5))/1e3, float64(quantile(s, 0.99))/1e3
	}

	for _, tn := range g.tenants {
		r.scoredFrames += uint64(tn.rec.pushed - tn.rec.warm)
		if tn.client != nil {
			st := tn.client.Stats()
			r.client.Sent += st.Sent
			r.client.Resent += st.Resent
			r.client.BlockedWaits += st.BlockedWaits
		}
	}
	if g.srv != nil {
		r.server = g.srv.Stats()
	}
	if g.ackRTT != nil {
		s := g.ackRTT.Snapshot()
		r.ackP50, r.ackP99 = float64(s.Quantile(0.5))/1e6, float64(s.Quantile(0.99))/1e6
	}

	g.verdicts(r)
	if g.pc.traced {
		g.spans(r)
		if !g.pc.inproc {
			if err := g.writeSpans(outDir); err != nil {
				return nil, err
			}
		}
	}

	// Live heap with every tenant still subscribed, after the bench has
	// let go of its own sample arrays.
	for _, tn := range g.tenants {
		tn.rec.lat, tn.rec.recs = nil, nil
	}
	g.alarmRecs = nil
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	r.heapMB = float64(m2.HeapAlloc) / (1 << 20)

	totals := g.eng.Totals()
	g.check(r)
	if g.pc.traced && !g.pc.inproc {
		var err error
		if r.life, err = g.lifecycle(3); err != nil {
			return nil, err
		}
	}
	g.close()
	ts := g.triage.Stats()
	r.alarmsIn, r.incidents = ts.Alarms, g.nIncs
	if ts.Alarms+g.warmAlarms != totals.Alarms {
		r.fail(1, "triage received %d alarms, engine emitted %d after %d in warm-up", ts.Alarms, totals.Alarms-g.warmAlarms, g.warmAlarms)
	}
	return r, nil
}

func (r *passResult) fail(n int64, format string, args ...any) {
	r.failed += n
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// verdicts turns the per-frame verdict latencies into the two latency
// metrics: p50 and p99 within each complete block, then the median block.
func (g *rig) verdicts(r *passResult) {
	bt := g.sp.blockPerTenant
	nb := math.MaxInt
	for _, tn := range g.tenants {
		if n := tn.sent / bt; n < nb {
			nb = n
		}
	}
	buf := make([]uint32, 0, bt*len(g.tenants))
	var p50s, p99s []float64
	for b := max(0, min(1, nb-1)); b < nb; b++ {
		buf = buf[:0]
		for _, tn := range g.tenants {
			for k := b * bt; k < (b+1)*bt; k++ {
				if tn.rec.recs != nil {
					d := tn.rec.recs[k].outerOut - tn.rec.recs[k].due
					buf = append(buf, uint32(min(max(d, 0), math.MaxUint32)))
				} else {
					buf = append(buf, tn.rec.lat[k])
				}
			}
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		p50s = append(p50s, float64(quantile(buf, 0.5))/1e6)
		p99s = append(p99s, float64(quantile(buf, 0.99))/1e6)
	}
	r.samples = len(p50s) * bt * len(g.tenants)
	r.p50Ms, r.p99Ms = median(p50s), median(p99s)
}

// check verifies the outputs of the pass; every violation adds to
// r.failed. Incident counts are not compared: cross-tenant correlation
// depends on the order alarms from different tenants arrive in.
func (g *rig) check(r *passResult) {
	if n := g.sendErrs.Load(); n > 0 {
		r.fail(n, "%d Ingest/Send/Flush errors", n)
	}
	if n := g.frameErr.Load(); n > 0 {
		r.fail(n, "%d FrameErrors", n)
	}
	if r.client.Resent > 0 {
		r.fail(int64(r.client.Resent), "%d client resends", r.client.Resent)
	}
	for _, tn := range g.tenants {
		want := uint64(warmCount + tn.sent)
		if got := tn.sub.Stats().Frames; got != want {
			r.fail(int64(want)-int64(got), "%s scored %d of %d frames", tn.id, got, want)
		}
	}
	for id, sub := range g.subs {
		if _, streaming := g.index[id]; !streaming && sub.Stats().Frames != warmCount {
			r.fail(1, "idle tenant %s scored %d frames", id, sub.Stats().Frames)
		}
	}
	for _, i := range g.sampled {
		g.replay(r, g.tenants[i])
	}
}

// replay pushes one tenant's exact frame sequence through a fresh, bare
// backend chain, sequentially, and requires the alarm sequence the
// engine produced for it to be identical: time, variate, score bits.
func (g *rig) replay(r *passResult, tn *tenant) {
	st, err := g.art.stage(nil)
	if err != nil {
		r.fail(1, "replay %s: %v", tn.id, err)
		return
	}
	// The stamp decorator saw every alarm Push returned, the warm-up's
	// included; the traced run's tap saw the engine's fan-in, which
	// starts after warm-up.
	got, from := tn.rec.alarms, 0
	if tn.tapAlarms != nil {
		got, from = tn.tapAlarms, warmCount
	}
	var total, compared, bad int
	for n := 0; n < warmCount+tn.sent; n++ {
		alarms, err := st.Push(g.art.frame(tn.feed, n))
		if err != nil {
			r.fail(1, "replay %s frame %d: %v", tn.id, n, err)
			return
		}
		total += len(alarms)
		if n < from {
			continue
		}
		for _, a := range alarms {
			if compared < len(got) && !sameAlarm(a, got[compared]) {
				bad++
			}
			compared++
		}
	}
	if bad > 0 {
		r.fail(int64(bad), "%s: %d alarms differ from sequential replay", tn.id, bad)
	}
	// The capture is bounded; past it the engine's own count still has
	// to match.
	if n := tn.sub.Stats().Alarms; n != uint64(total) || (len(got) != compared && len(got) != cap(got)) {
		r.fail(1, "%s: engine raised %d alarms (%d captured), replay %d (%d compared)", tn.id, n, len(got), total, compared)
	}
}

func sameAlarm(a, b core.Alarm) bool {
	return a.Variate == b.Variate && a.Time == b.Time && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}
