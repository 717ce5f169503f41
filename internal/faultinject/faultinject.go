// Package faultinject is the deterministic chaos harness: a wrapper
// StreamBackend that injects panics, errors, NaN-scored alarms, and
// latency spikes into an otherwise healthy backend on a seeded,
// frame-indexed schedule. It exists to *prove* the engine's
// fault-containment claims rather than assert them: golden tests drive a
// chaotic tenant next to clean ones and check the clean tenants' alarm
// sequences are bit-identical to a fault-free replay, and aeroserve's
// -chaos flag runs the same schedule against a live soak.
//
// Determinism is the load-bearing property. Every injection decision is a
// pure function of (Plan.Seed, frame index) — a splitmix64-style hash,
// no time, no math/rand global state — so a chaos run can be replayed
// bit-for-bit: same seed, same frames, same faults, same recovery
// timeline. That is what lets a golden test pin "the faulty tenant
// transitions healthy → quarantined → probation → healthy at exactly
// these frames" instead of "eventually".
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"aero/internal/core"
	"aero/internal/metrics"
)

// ErrInjected is the error the harness returns on an error-injection
// frame; errors.Is distinguishes injected failures from real ones in
// assertions on the engine's error stream.
var ErrInjected = errors.New("faultinject: injected error")

// PanicValue is what injected panics carry, so a recover site (or a test
// asserting on engine.PanicError.Value) can tell harness panics from
// genuine backend bugs.
type PanicValue struct {
	// Frame is the 0-based frame index the panic was injected at.
	Frame uint64
}

func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at frame %d", p.Frame)
}

// Plan is a deterministic fault schedule over a tenant's frame stream.
// Frames are indexed from 0 in arrival order at the wrapper; a fault
// fires at frame i when i is inside [From, Until) and the seeded hash of
// (Seed, i) selects that fault class at its configured rate. Rates are
// "one in N on average" — 0 disables the class. When several classes
// select the same frame, exactly one fires: panic > error > NaN > delay.
type Plan struct {
	// Seed keys the per-frame hash; two plans with equal rates but
	// different seeds fault different frames.
	Seed uint64
	// From and Until bound the chaotic window in frame indices
	// ([From, Until); Until 0 means "no upper bound").
	From, Until uint64
	// PanicEvery injects a panic roughly every N frames. The inner
	// backend never sees the frame — the panic fires at the call
	// boundary, as a corrupting backend's would.
	PanicEvery uint64
	// ErrEvery injects ErrInjected roughly every N frames (inner backend
	// skipped).
	ErrEvery uint64
	// NaNEvery corrupts the output roughly every N frames: the frame is
	// scored normally, then a NaN-scored alarm is appended to the result
	// (PushScores poisons score 0 instead) — corruption leaking out of a
	// backend, the signal the engine's score scrubber must catch.
	NaNEvery uint64
	// DelayEvery stalls the push for Delay roughly every N frames — the
	// latency-spike signal for supervisors with a latency threshold. The
	// frame is scored normally after the stall.
	DelayEvery uint64
	// Delay is the injected stall length.
	Delay time.Duration
}

// fault classes, in priority order.
const (
	faultNone = iota
	faultPanic
	faultErr
	faultNaN
	faultDelay
)

// splitmix64 is the 64-bit finalizer from Vigna's splitmix64 generator —
// a full-avalanche hash, so consecutive frame indices map to effectively
// independent decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide returns the fault class for frame i under the plan.
func (p Plan) decide(i uint64) int {
	if i < p.From || (p.Until > 0 && i >= p.Until) {
		return faultNone
	}
	// One hash per class, each keyed by the class index, so the classes
	// fault on independent frame sets; priority resolves collisions.
	if p.PanicEvery > 0 && splitmix64(p.Seed^i^0xa1)%p.PanicEvery == 0 {
		return faultPanic
	}
	if p.ErrEvery > 0 && splitmix64(p.Seed^i^0xb2)%p.ErrEvery == 0 {
		return faultErr
	}
	if p.NaNEvery > 0 && splitmix64(p.Seed^i^0xc3)%p.NaNEvery == 0 {
		return faultNaN
	}
	if p.DelayEvery > 0 && splitmix64(p.Seed^i^0xd4)%p.DelayEvery == 0 {
		return faultDelay
	}
	return faultNone
}

// Stats are the harness's cumulative injection counters, safe to read
// concurrently with pushes.
type Stats struct {
	Frames uint64 // frames seen (injected-fault frames included)
	Panics uint64
	Errors uint64
	NaNs   uint64
	Delays uint64
}

// Backend wraps any StreamBackend with the plan's fault schedule. Like
// every StreamBackend it is not concurrency-safe; the engine serializes
// pushes per subscription.
type Backend struct {
	inner core.StreamBackend
	plan  Plan

	frame  uint64 // next frame index (atomic: stats may read concurrently)
	panics uint64 // atomic
	errs   uint64 // atomic
	nans   uint64 // atomic
	delays uint64 // atomic
}

// New wraps inner under the plan.
func New(inner core.StreamBackend, plan Plan) *Backend {
	return &Backend{inner: inner, plan: plan}
}

// Kind tags the composition, e.g. "fluxev+chaos".
func (b *Backend) Kind() string { return b.inner.Kind() + "+chaos" }

// Inner returns the wrapped backend.
func (b *Backend) Inner() core.StreamBackend { return b.inner }

// Stats returns the cumulative injection counters.
func (b *Backend) Stats() Stats {
	return Stats{
		Frames: atomic.LoadUint64(&b.frame),
		Panics: atomic.LoadUint64(&b.panics),
		Errors: atomic.LoadUint64(&b.errs),
		NaNs:   atomic.LoadUint64(&b.nans),
		Delays: atomic.LoadUint64(&b.delays),
	}
}

// Observe registers the harness's injections on reg: one scrape-time
// series per fault kind, summed over bs.
func Observe(reg *metrics.Registry, bs []*Backend) {
	sum := func(read func(Stats) uint64) func() float64 {
		return func() float64 {
			var n uint64
			for _, b := range bs {
				n += read(b.Stats())
			}
			return float64(n)
		}
	}
	const help = "Faults injected by the chaos harness."
	reg.CounterFunc("aero_chaos_injections_total", help, sum(func(s Stats) uint64 { return s.Panics }), "fault", "panic")
	reg.CounterFunc("aero_chaos_injections_total", help, sum(func(s Stats) uint64 { return s.Errors }), "fault", "error")
	reg.CounterFunc("aero_chaos_injections_total", help, sum(func(s Stats) uint64 { return s.NaNs }), "fault", "nan")
	reg.CounterFunc("aero_chaos_injections_total", help, sum(func(s Stats) uint64 { return s.Delays }), "fault", "delay")
}

// begin claims the next frame index and resolves its fault class,
// handling the classes that preempt the inner push (panic, error, delay
// runs before it). It reports the class and the frame index.
func (b *Backend) begin() (int, uint64) {
	i := atomic.AddUint64(&b.frame, 1) - 1
	class := b.plan.decide(i)
	switch class {
	case faultPanic:
		atomic.AddUint64(&b.panics, 1)
		panic(PanicValue{Frame: i})
	case faultErr:
		atomic.AddUint64(&b.errs, 1)
	case faultDelay:
		atomic.AddUint64(&b.delays, 1)
		time.Sleep(b.plan.Delay)
	}
	return class, i
}

// Push implements core.StreamBackend under the fault schedule. On panic
// and error frames the inner backend never sees the frame — its time
// cursor simply does not advance, exactly as if the push had died
// mid-flight — so a later clean frame still scores.
func (b *Backend) Push(f core.Frame) ([]core.Alarm, error) {
	class, _ := b.begin()
	if class == faultErr {
		return nil, ErrInjected
	}
	alarms, err := b.inner.Push(f)
	if err != nil {
		return alarms, err
	}
	if class == faultNaN {
		atomic.AddUint64(&b.nans, 1)
		alarms = append(alarms, core.Alarm{Variate: 0, Time: f.Time, Score: math.NaN()})
	}
	return alarms, nil
}

// PushScores implements core.StreamBackend under the fault schedule; NaN
// frames poison score 0 instead of appending an alarm.
func (b *Backend) PushScores(f core.Frame) ([]float64, error) {
	class, _ := b.begin()
	if class == faultErr {
		return nil, ErrInjected
	}
	scores, err := b.inner.PushScores(f)
	if err != nil || scores == nil {
		return scores, err
	}
	if class == faultNaN {
		atomic.AddUint64(&b.nans, 1)
		scores[0] = math.NaN()
	}
	return scores, nil
}

// Variates implements core.StreamBackend.
func (b *Backend) Variates() int { return b.inner.Variates() }

// Ready implements core.StreamBackend.
func (b *Backend) Ready() bool { return b.inner.Ready() }

// LastTime implements core.StreamBackend.
func (b *Backend) LastTime() (float64, bool) { return b.inner.LastTime() }

// Threshold implements core.StreamBackend.
func (b *Backend) Threshold() float64 { return b.inner.Threshold() }

// SwapArtifact implements core.StreamBackend.
func (b *Backend) SwapArtifact(artifact []byte) error { return b.inner.SwapArtifact(artifact) }

// SnapshotState delegates to the inner backend. The frame counter is
// deliberately not persisted: a restored chaos tenant replays its plan
// from frame 0, which keeps snapshot blobs interchangeable with the
// unwrapped backend's and the schedule a pure function of the run.
func (b *Backend) SnapshotState() ([]byte, error) { return b.inner.SnapshotState() }

// RestoreState delegates to the inner backend (see SnapshotState).
func (b *Backend) RestoreState(blob []byte) error { return b.inner.RestoreState(blob) }

var _ core.StreamBackend = (*Backend)(nil)
