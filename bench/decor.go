package main

import (
	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
)

// Decorators the bench wraps around each streaming tenant's backend
// chain. They embed the concrete type they wrap, so every optional
// capability the engine and DSPOTStage probe for (cache invalidation,
// incremental and refit counters, in-memory model swap, graph snapshot,
// the stage clock) is promoted unchanged: the wrapped tenant is the same
// program as the bare one. The assertions below pin that, and
// TestDecoratorsKeepAlarms pins the alarm stream.
var (
	_ core.StreamBackend          = (*verdictStamp)(nil)
	_ core.IncrementalInvalidator = (*verdictStamp)(nil)
	_ core.GraphSnapshotter       = (*verdictStamp)(nil)
	_ interface {
		IncrementalStats() core.IncrementalStats
		Swap(*core.Model) error
		SetStageClock(func() int64)
		LastSplitNanos() int64
	} = (*verdictStamp)(nil)

	_ core.StreamBackend          = (*aeroScoreSpan)(nil)
	_ core.IncrementalInvalidator = (*aeroScoreSpan)(nil)
	_ core.GraphSnapshotter       = (*aeroScoreSpan)(nil)
	_ interface {
		IncrementalStats() core.IncrementalStats
		Swap(*core.Model) error
	} = (*aeroScoreSpan)(nil)

	_ core.StreamBackend = (*cheapScoreSpan)(nil)
)

const sentRing = 4096 // send-stamp ring; above any in-flight window (queue 256 + batch 32, client window 256)

// Scoring paths the inner decorator observed, from which
// IncrementalStats counter advanced across the call.
const (
	pathOther uint8 = iota
	pathIncremental
	pathRefresh
)

// frameRec is the traced run's stamps for one measured frame. The
// generator writes genIn/genOut, the shard worker the rest; the fields
// are disjoint, so the two never write the same word.
type frameRec struct {
	due               int64 // the instant latency counts from: genIn, or the tick's due instant
	genIn, genOut     int64 // generator entered / left Ingest or Send
	outerIn, outerOut int64 // DSPOTStage.Push
	innerIn, innerOut int64 // inner backend PushScores
	path              uint8
}

// recorder is one streaming tenant's preallocated sample storage. Nothing
// here is allocated, locked or printed during a measured phase.
type recorder struct {
	warm int // frames pushed before the measured phase; never recorded

	// Untraced: the generator stores each frame's start instant (send, or
	// the tick's due instant in the open loop) in sent, and the verdict
	// stamp turns it into a latency sample on Push return.
	sent [sentRing]int64
	lat  []uint32 // verdict latency in ns per measured frame, saturating

	recs []frameRec // traced runs only (then lat is nil)

	pushed, scored int // Push / PushScores calls seen, warm included

	// alarms keeps what Push returned, on the two tenants the output
	// check replays; nil elsewhere.
	alarms []core.Alarm
}

// start records the instant frame k's latency counts from and the
// instant the generator entered Ingest or Send with it.
func (r *recorder) start(k int, due, entered int64) {
	if r.recs != nil {
		r.recs[k].due, r.recs[k].genIn = due, entered
		return
	}
	r.sent[k%sentRing] = due
}

// verdictStamp is the outermost backend of every streaming tenant: one
// clock read when Push returns, which is the verdict instant all latency
// metrics end at. Traced runs also stamp the entry.
type verdictStamp struct {
	*backend.DSPOTStage
	rec *recorder
}

func (s *verdictStamp) Push(f core.Frame) ([]core.Alarm, error) {
	r := s.rec
	k := r.pushed - r.warm
	r.pushed++
	traced := k >= 0 && k < len(r.recs)
	if traced {
		r.recs[k].outerIn = now()
	}
	alarms, err := s.DSPOTStage.Push(f)
	t := now()
	switch {
	case traced:
		r.recs[k].outerOut = t
	case k >= 0 && k < len(r.lat):
		d := t - r.sent[k%sentRing]
		if d > int64(^uint32(0)) {
			d = int64(^uint32(0))
		}
		r.lat[k] = uint32(d)
	}
	if r.alarms != nil {
		// Bounded, and always a prefix of the tenant's alarm sequence.
		r.alarms = append(r.alarms, alarms[:min(len(alarms), cap(r.alarms)-len(r.alarms))]...)
	}
	return alarms, err
}

// scoreSpan stamps the inner backend's PushScores in traced runs.
func (r *recorder) scoreSpan() (k int, ok bool) {
	k = r.scored - r.warm
	r.scored++
	return k, k >= 0 && k < len(r.recs)
}

// aeroScoreSpan sits between DSPOTStage and the AERO detector in traced
// runs and classifies each call by the counter that advanced.
type aeroScoreSpan struct {
	*core.StreamDetector
	rec *recorder
}

func (d *aeroScoreSpan) PushScores(f core.Frame) ([]float64, error) {
	k, ok := d.rec.scoreSpan()
	if !ok {
		return d.StreamDetector.PushScores(f)
	}
	rec := &d.rec.recs[k]
	before := d.StreamDetector.IncrementalStats()
	rec.innerIn = now()
	scores, err := d.StreamDetector.PushScores(f)
	rec.innerOut = now()
	after := d.StreamDetector.IncrementalStats()
	switch {
	case after.Incremental > before.Incremental:
		rec.path = pathIncremental
	case after.Frames > before.Frames:
		rec.path = pathRefresh
	}
	return scores, err
}

// cheapScoreSpan is the same span around the FluxEV adapter.
type cheapScoreSpan struct {
	*baselines.StreamFluxEV
	rec *recorder
}

func (d *cheapScoreSpan) PushScores(f core.Frame) ([]float64, error) {
	k, ok := d.rec.scoreSpan()
	if !ok {
		return d.StreamFluxEV.PushScores(f)
	}
	rec := &d.rec.recs[k]
	rec.innerIn = now()
	scores, err := d.StreamFluxEV.PushScores(f)
	rec.innerOut = now()
	return scores, err
}
