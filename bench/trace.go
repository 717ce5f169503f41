package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"aero/internal/engine"
	"aero/internal/ingest"
)

const traceDumpFrames = 256 // frames per tenant written out as spans

// spans turns the traced pass's stamps into per-layer durations. Each
// stamp pair is one span of a frame; a layer's self time is its span
// minus its child's (backend.push minus the inner PushScores is the DSPOT
// step).
func (g *rig) spans(r *passResult) {
	n := int(r.attempted)
	r.ingestNs, r.queueNs = make([]int64, 0, n), make([]int64, 0, n)
	r.pushNs, r.innerNs = make([]int64, 0, n), make([]int64, 0, n)
	for _, tn := range g.tenants {
		scored := min(tn.sent, tn.rec.pushed-tn.rec.warm)
		for k := 0; k < scored; k++ {
			rec := &tn.rec.recs[k]
			push, inner := rec.outerOut-rec.outerIn, rec.innerOut-rec.innerIn
			r.ingestNs = append(r.ingestNs, rec.genOut-rec.genIn)
			// A worker can enter Push before Ingest has returned to the
			// generator; that frame waited for nothing.
			r.queueNs = append(r.queueNs, max(rec.outerIn-rec.genOut, 0))
			r.pushNs = append(r.pushNs, push)
			r.innerNs = append(r.innerNs, inner)
			r.sumPush += push
			r.sumInner += inner
			switch rec.path {
			case pathIncremental:
				r.incrNs = append(r.incrNs, inner)
			case pathRefresh:
				r.refreshNs = append(r.refreshNs, inner)
			}
		}
	}
	for _, a := range g.alarmRecs {
		tn := g.tenants[a.tenant]
		if a.k < 0 || int(a.k) >= len(tn.rec.recs) {
			continue // an alarm of the warm-up
		}
		r.faninNs = append(r.faninNs, a.seen-tn.rec.recs[a.k].outerOut)
		r.alertNs = append(r.alertNs, a.done-a.seen)
	}
}

// writeSpans dumps the first frames of every streaming tenant as one span
// per line.
func (g *rig) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+g.sp.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enter := "engine.ingest"
	if g.tenants[0].client != nil {
		enter = "ingest.send"
	}
	inner := "baselines.push_scores"
	if g.sp.kind == "aero" {
		inner = "core.push_scores"
	}
	span := func(i, k int, layer, parent string, start, end int64) {
		fmt.Fprintf(w, `{"frame":[%d,%d],"layer":%q,"parent":%q,"start":%d,"end":%d}`+"\n", i, k, layer, parent, start, end)
	}
	for i, tn := range g.tenants {
		for k := 0; k < min(traceDumpFrames, tn.sent, tn.rec.pushed-tn.rec.warm); k++ {
			rec := &tn.rec.recs[k]
			span(i, k, "verdict", "", rec.due, rec.outerOut)
			if rec.genIn > rec.due {
				span(i, k, "gen.late", "verdict", rec.due, rec.genIn)
			}
			span(i, k, enter, "verdict", rec.genIn, rec.genOut)
			span(i, k, "engine.queue", "verdict", rec.genOut, rec.outerIn)
			span(i, k, "backend.push", "verdict", rec.outerIn, rec.outerOut)
			span(i, k, inner, "backend.push", rec.innerIn, rec.innerOut)
		}
	}
	for _, a := range g.alarmRecs {
		if a.k >= 0 && a.k < traceDumpFrames {
			out := g.tenants[a.tenant].rec.recs[a.k].outerOut
			span(int(a.tenant), int(a.k), "engine.fanin", "backend.push", out, a.seen)
			span(int(a.tenant), int(a.k), "alerts.push", "engine.fanin", a.seen, a.done)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// codecNanos times the wire codec alone: encode and decode one data
// frame of the workload's width, per frame.
func codecNanos(iters int) (float64, error) {
	mags := make([]float64, variates)
	var buf []byte
	var out ingest.Msg
	t0 := now()
	for i := 0; i < iters; i++ {
		var err error
		m := ingest.Msg{Type: ingest.MsgData, Seq: uint64(i + 1), Time: float64(i), Mags: mags}
		if buf, err = ingest.AppendMsg(buf[:0], &m); err != nil {
			return 0, err
		}
		if _, err = ingest.DecodeMsg(buf, &out); err != nil {
			return 0, err
		}
	}
	return float64(now()-t0) / float64(iters), nil
}

// guardNanos is the cost of the engine's panic guard around one push:
// GuardPush(det, f) minus det.Push(f), on two identical warm cheap
// backends fed the same frames in alternating chunks.
func guardNanos(cheap *artifacts, iters int) (float64, error) {
	a, err := cheap.stage(nil)
	if err != nil {
		return 0, err
	}
	b, err := cheap.stage(nil)
	if err != nil {
		return 0, err
	}
	const chunk = 1000
	fd := &feed{}
	var guarded, bare int64
	for n := 0; n < iters; n += chunk {
		t0 := now()
		for i := n; i < n+chunk; i++ {
			if _, err := engine.GuardPush(a, cheap.frame(fd, i)); err != nil {
				return 0, err
			}
		}
		t1 := now()
		for i := n; i < n+chunk; i++ {
			if _, err := b.Push(cheap.frame(fd, i)); err != nil {
				return 0, err
			}
		}
		guarded, bare = guarded+t1-t0, bare+now()-t1
	}
	return float64(guarded-bare) / float64(iters), nil
}

// lifecycle times the three per-tenant lifecycle operations on one warm
// tenant of a finished pass, each the median of reps calls.
type lifecycleCost struct {
	swapUs, snapshotUs, restoreUs float64
	snapshotBytes                 int
}

func (g *rig) lifecycle(reps int) (lifecycleCost, error) {
	var lc lifecycleCost
	sub := g.tenants[0].sub
	var snap, rest, swap []float64
	for i := 0; i < reps; i++ {
		t0 := now()
		blob, err := sub.SnapshotState()
		t1 := now()
		if err != nil {
			return lc, fmt.Errorf("snapshot: %w", err)
		}
		if err := sub.RestoreState(blob); err != nil {
			return lc, fmt.Errorf("restore: %w", err)
		}
		t2 := now()
		if err := sub.SwapArtifact(g.art.artifact); err != nil {
			return lc, fmt.Errorf("swap: %w", err)
		}
		t3 := now()
		snap, rest, swap = append(snap, float64(t1-t0)/1e3), append(rest, float64(t2-t1)/1e3), append(swap, float64(t3-t2)/1e3)
		lc.snapshotBytes = len(blob)
	}
	lc.snapshotUs, lc.restoreUs, lc.swapUs = median(snap), median(rest), median(swap)
	return lc, nil
}

// traced is the result of a traced run: the passes it made and the
// standalone measurements beside them.
type traced struct {
	ref, spans, single, observed, inproc *passResult
	codecNs, guardNs                     float64
	refBefore, refAfter                  float64
}

// runTraced makes the traced run's passes over one workload. Each pass is
// a fresh engine on the same artifacts and differs from the untraced
// reference in one thing:
//
//	ref       nothing: the untraced cost the others are compared with
//	spans     decorators stamp entry and exit, the bench owns the tap
//	single    GOMAXPROCS=1, the single-threaded baseline of scaling_x
//	observed  EngineConfig.Metrics set (the flight recorder comes with it)
//	inproc    wire workload only: spans again, fed through Engine.Ingest
//
// --seconds is shared among them, so a traced run takes as long as an
// untraced one.
func runTraced(o options, sp spec) (*traced, error) {
	t := &traced{refBefore: refKernel(o.refDur())}
	art, err := buildArtifacts(sp, o.smoke)
	if err != nil {
		return nil, err
	}
	share := []float64{0.3, 0.3, 0.2, 0.2, 0}
	if sp.loop == loopWire {
		share = []float64{0.25, 0.25, 0.15, 0.15, 0.2}
	}
	pass := func(i int, pc passConfig) (*passResult, error) {
		pc.seconds, pc.blocks = o.seconds*share[i], o.blocks
		if pc.procs > 0 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pc.procs))
		}
		g, err := instantiate(art, pc, o.seed)
		if err != nil {
			return nil, err
		}
		return g.measure(o.outDir)
	}
	if t.ref, err = pass(0, passConfig{}); err != nil {
		return nil, err
	}
	if t.spans, err = pass(1, passConfig{traced: true}); err != nil {
		return nil, err
	}
	if t.single, err = pass(2, passConfig{procs: 1}); err != nil {
		return nil, err
	}
	if t.observed, err = pass(3, passConfig{observed: true}); err != nil {
		return nil, err
	}
	if sp.loop == loopWire {
		if t.inproc, err = pass(4, passConfig{traced: true, inproc: true}); err != nil {
			return nil, err
		}
	}

	cheapSpec, _ := findWorkload("wire-cheap")
	cheapSpec.trainLen = 260
	cheap, err := buildArtifacts(cheapSpec, o.smoke)
	if err != nil {
		return nil, err
	}
	iters := 200000
	if o.smoke {
		iters = 2000
	}
	if t.codecNs, err = codecNanos(iters); err != nil {
		return nil, err
	}
	if t.guardNs, err = guardNanos(cheap, iters); err != nil {
		return nil, err
	}
	t.refAfter = refKernel(o.refDur())
	return t, nil
}
