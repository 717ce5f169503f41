package alerts

import (
	"aero/internal/engine"
	"aero/internal/metrics"
)

// Stream is a triage pipeline attached to a live engine: the engine's
// alarm tap pushes every alarm through the pipeline, and finalized
// incidents flow out on the Incidents channel. Create one with Attach.
type Stream struct {
	p         *Pipeline
	incidents chan Incident
}

// Attach installs a triage pipeline as the engine's alarm consumer (via
// Engine.Tap — the stream owns the Alarms channel from here on) and
// returns its incident feed. buffer sizes the Incidents channel
// (defaulting to 256); a slow incident consumer backpressures the alarm
// tap and, transitively, the engine, so nothing is dropped.
//
// The Incidents channel closes once Engine.Close has drained every
// alarm. Episodes still in flight at that point are deliberately NOT
// auto-finalized: a checkpointing deployment snapshots them
// (SnapshotState) so a restart resumes mid-episode, and an end-of-feed
// report calls Finalize explicitly.
func Attach(e *engine.Engine, cfg Config, buffer int) (*Stream, error) {
	return AttachObserved(e, cfg, buffer, nil)
}

// AttachObserved is Attach with an optional metrics registry: when reg is
// non-nil, each alarm's triage push (dedup, episode assembly, ranking) is
// timed into aero_triage_push_seconds, and the pipeline's funnel — alarms
// in, deduped, episodes, incidents, open episodes — is exposed as
// scrape-time reads of its own counters, so the series count every
// incident Push or Finalize emits and resume with a restored snapshot.
// The stamp pair lives in the tap callback, outside the pipeline's own
// locks, so an unobserved stream pays nothing.
func AttachObserved(e *engine.Engine, cfg Config, buffer int, reg *metrics.Registry) (*Stream, error) {
	if buffer <= 0 {
		buffer = 256
	}
	s := &Stream{p: NewPipeline(cfg), incidents: make(chan Incident, buffer)}
	push := reg.Histogram("aero_triage_push_seconds", "Triage pipeline push: dedup, episode assembly, ranking for one alarm.")
	stat := func(read func(Stats) uint64) func() float64 {
		return func() float64 { return float64(read(s.p.Stats())) }
	}
	reg.CounterFunc("aero_triage_alarms_total", "Alarms pushed into the triage pipeline.",
		stat(func(st Stats) uint64 { return st.Alarms }))
	reg.CounterFunc("aero_triage_deduped_total", "Alarms dropped as same-bucket duplicates.",
		stat(func(st Stats) uint64 { return st.Deduped }))
	reg.CounterFunc("aero_triage_episodes_total", "Episodes closed by the triage pipeline.",
		stat(func(st Stats) uint64 { return st.Episodes }))
	reg.CounterFunc("aero_triage_incidents_total", "Incidents finalized by the triage pipeline.",
		stat(func(st Stats) uint64 { return st.Incidents }))
	reg.GaugeFunc("aero_triage_open_episodes", "Episodes currently mid-flight.",
		stat(func(st Stats) uint64 { return uint64(st.OpenEpisodes) }))
	err := e.Tap(func(a engine.Alarm) {
		var t0 int64
		if push != nil {
			t0 = metrics.Now()
		}
		incs := s.p.Push(a)
		if push != nil {
			push.Record(metrics.Now() - t0)
		}
		for _, inc := range incs {
			s.incidents <- inc
		}
	}, func() { close(s.incidents) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Incidents returns the ranked incident feed. Consume it continuously;
// it closes after Engine.Close drains the alarm stream.
func (s *Stream) Incidents() <-chan Incident { return s.incidents }

// Pipeline returns the underlying pipeline for stats, snapshot/restore
// and the end-of-feed Finalize. All pipeline methods are safe to call
// while alarms flow.
func (s *Stream) Pipeline() *Pipeline { return s.p }
