// Package engine provides a sharded, multi-tenant streaming detection
// front end over the core.StreamBackend contract — the production shape
// of the paper's §III-F online mode. A survey telescope like GWAC emits
// one frame across thousands of stars every ~15 s; one backend (an AERO
// StreamDetector, a streaming baseline adapter, or a DSPOT-wrapped
// composition) handles one field (tenant). The engine owns many such
// tenants at once:
//
//   - each subscription (tenant) is pinned to one of N shards, so its
//     frames are always scored in arrival order;
//   - a worker pool sized to GOMAXPROCS drains shards in batches, so
//     scoring work from many tenants keeps every core busy without
//     oversubscribing (per-backend scoring stays allocation-free on the
//     backend's own scratch);
//   - ingest is backpressure-aware: per-shard queues are bounded, and both
//     the Ingest call and the Samples channel block — rather than drop —
//     when a shard is saturated;
//   - Alarms is a single fan-in channel; a slow consumer backpressures the
//     workers and, transitively, the producers. A frame accepted by Ingest
//     is never silently lost; the asynchronous Samples path is best-effort
//     only across shutdown (see Samples).
//
// Per-shard statistics (frames/s, alarm and error counts, queue depth) and
// per-tenant graph snapshots are available at any time for monitoring.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aero/internal/core"
	"aero/internal/metrics"
)

// Config parameterizes an Engine. The zero value is usable: every field
// defaults to a sensible production setting.
type Config struct {
	// Shards is the number of independent frame queues; subscriptions are
	// balanced across them. Defaults to 2×GOMAXPROCS so the worker pool
	// rarely idles on an unlucky tenant distribution.
	Shards int
	// Workers is the scoring worker-pool size. Defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds each shard's pending-frame queue; a full queue
	// blocks producers (backpressure). Defaults to 256.
	QueueDepth int
	// BatchSize caps how many frames a worker drains from one shard per
	// visit, bounding tenant-to-tenant latency skew. Defaults to 32.
	BatchSize int
	// AlarmBuffer is the capacity of the fan-in Alarms channel.
	// Defaults to 1024.
	AlarmBuffer int
	// ErrorBuffer is the capacity of the Errors channel. Frame errors
	// beyond it are dropped from the channel but always counted: scoring
	// errors in their shard's stats, routing errors in Totals, and the
	// drops themselves in ErrorsDropped. Defaults to 64.
	ErrorBuffer int
	// Hygiene configures the frame-validation stage ahead of every
	// backend push. The zero value is off (frames reach backends
	// verbatim).
	Hygiene HygieneConfig
	// Health configures per-subscription fault supervision (panic
	// counting, quarantine, fallback, probation). The zero value enables
	// supervision with defaults; set Health.Disable to turn the state
	// machine off.
	Health HealthConfig
	// Metrics, when non-nil, receives the engine's observability series:
	// frame/alarm/error counters, per-shard queue gauges, per-kind score
	// and tail latency histograms, incremental-path and DSPOT exceedance
	// counters — and enables the per-tenant frame-trace ring (see Trace).
	// Nil (the default) disables observability entirely; the hot path then
	// pays only nil-checks.
	Metrics *metrics.Registry
	// Trace configures the per-tenant flight recorder; effective only
	// when Metrics is set.
	Trace TraceConfig
}

// ingestBuffer is the capacity of the Samples channel.
const ingestBuffer = 1024

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.BatchSize > c.QueueDepth {
		c.BatchSize = c.QueueDepth
	}
	if c.AlarmBuffer <= 0 {
		c.AlarmBuffer = 1024
	}
	if c.ErrorBuffer <= 0 {
		c.ErrorBuffer = 64
	}
	c.Health = c.Health.withDefaults()
	return c
}

// Sample is one frame addressed to a subscription, the unit of the
// channel-based ingest path.
type Sample struct {
	Sub   string
	Frame core.Frame
}

// Alarm is a threshold crossing attributed to its subscription.
type Alarm struct {
	Sub string
	core.Alarm
}

// FrameError reports a frame the engine could not score (unknown tenant,
// wrong width, non-monotonic time).
type FrameError struct {
	Sub  string
	Time float64
	Err  error
}

// Sentinel errors returned by SubscribeBackend and Ingest.
var (
	ErrClosed                = errors.New("engine: closed")
	ErrUnknownSubscription   = errors.New("engine: unknown subscription")
	ErrDuplicateSubscription = errors.New("engine: duplicate subscription")
)

// item is one queued frame; Magnitudes live in a shard-owned buffer that
// is recycled after scoring.
type item struct {
	sub  *subscription
	time float64
	mags []float64
}

// subscription is the engine-internal state of one tenant. mu serializes
// backend access between the draining worker and snapshot readers; the
// fault-containment fields (health position, backoff ladder, hygiene
// cursors, fallback) are written only under mu by the draining worker —
// at most one worker drains a shard at a time, so there is exactly one
// writer.
type subscription struct {
	id    string
	shard *shard
	n     int

	mu       sync.Mutex
	det      core.StreamBackend
	fallback core.StreamBackend // warm standby; serves while det is quarantined

	hygiene HygieneConfig
	health  HealthConfig

	healthState  int32 // atomic HealthState: written under mu, read lock-free by stats
	faultsConsec int
	backoff      int     // frames left in the current quarantine
	backoffBase  int     // doubling backoff ladder position, in frames
	probeClean   int     // consecutive clean probes this probation
	jitter       float64 // deterministic per-tenant fraction in [0,1)

	lastTime float64 // hygiene time cursor (newest scored frame time)
	seenTime bool
	lastGood []float64 // per-variate last finite magnitude (NaN = never)
	repaired []bool    // per-frame scratch: variates rewritten by hygiene

	// Observability (nil / zero when Config.Metrics is unset): the trace
	// ring and kind-labeled latency series, plus cached backend
	// capability views. obs is written only at subscribe time; its seq
	// and the splitter stamp are touched only by the draining worker.
	obs      *subObs
	splitter stageSplitter
	incStats incrementalStatser

	frames  uint64 // atomic
	alarms  uint64 // atomic
	blocked uint64 // atomic: alarm emissions that found the fan-in channel full
	swaps   uint64 // atomic

	faultsTotal     uint64 // atomic: all faults (panics, errors, bad scores, latency)
	panics          uint64 // atomic: faults that were recovered panics
	degradations    uint64 // atomic: healthy → degraded transitions
	quarantines     uint64 // atomic: → quarantined transitions
	probations      uint64 // atomic: quarantined → probation transitions
	recoveries      uint64 // atomic: probation → healthy transitions
	hygieneDropped  uint64 // atomic: frames rejected by the hygiene stage
	hygieneRepaired uint64 // atomic: frames with variates repaired in place
	fallbackFrames  uint64 // atomic: frames served by the fallback backend
	fallbackAlarms  uint64 // atomic: alarms emitted by the fallback backend
	fallbackErrs    uint64 // atomic: fallback pushes that errored or panicked
}

// shard is one bounded FIFO of pending frames plus the tenants pinned to
// it. At most one worker drains a shard at a time (the scheduled flag),
// which is what guarantees per-tenant ordering.
type shard struct {
	id   int
	mu   sync.Mutex
	cond *sync.Cond // signalled when queue space frees up or the shard closes

	queue       []item // fixed-capacity ring
	head, count int
	scheduled   bool
	closed      bool

	free  [][]float64 // recycled magnitude buffers
	batch []item      // drain staging, owned by the active drainer

	subsN    int
	frames   uint64
	alarmsN  uint64
	blockedN uint64 // alarm emissions that found the fan-in channel full
	errsN    uint64
	droppedN uint64 // frame errors that found the Errors channel full
}

func (sh *shard) getBuf(n int) []float64 {
	if len(sh.free) > 0 {
		b := sh.free[len(sh.free)-1]
		sh.free = sh.free[:len(sh.free)-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float64, n)
}

func (sh *shard) putBuf(b []float64) { sh.free = append(sh.free, b) }

// Engine routes frames from many tenants to shard queues and scores them
// on a fixed worker pool. Create one with New, register tenants with
// SubscribeBackend, feed frames via Ingest or the Samples channel, and
// consume the Alarms channel continuously.
type Engine struct {
	cfg    Config
	shards []*shard
	ready  chan *shard
	alarms chan Alarm
	errs   chan FrameError
	in     chan Sample

	mu   sync.RWMutex // guards subs
	subs map[string]*subscription

	closed atomic.Bool
	done   chan struct{} // closed first on shutdown: stops the router
	stop   chan struct{} // closed after drain: stops idle workers

	pendMu   sync.Mutex // held only to park in Flush and to wake it
	pendCond *sync.Cond
	pending  atomic.Int64 // frames accepted and not yet scored

	// routerErrs counts frames that failed routing (no shard saw them). It is
	// its own allocation so the receiver Close leaves on the Samples channel
	// can keep counting late samples without keeping the engine reachable.
	routerErrs    *atomic.Uint64
	routerDropped atomic.Uint64 // routing errors dropped from the Errors channel

	tapped   atomic.Bool // an alarm tap owns the Alarms channel
	tapWG    sync.WaitGroup
	workerWG sync.WaitGroup
	routerWG sync.WaitGroup
	start    time.Time

	obs *engineObs // nil when Config.Metrics is unset
}

// New starts an engine with cfg's worker pool and shard layout.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:    cfg,
		ready:  make(chan *shard, cfg.Shards),
		alarms: make(chan Alarm, cfg.AlarmBuffer),
		errs:   make(chan FrameError, cfg.ErrorBuffer),
		in:     make(chan Sample, ingestBuffer),
		subs:   make(map[string]*subscription),
		done:   make(chan struct{}),
		stop:   make(chan struct{}),
		start:  time.Now(),

		routerErrs: new(atomic.Uint64),
	}
	e.pendCond = sync.NewCond(&e.pendMu)
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			id:    i,
			queue: make([]item, cfg.QueueDepth),
			batch: make([]item, 0, cfg.BatchSize),
		}
		sh.cond = sync.NewCond(&sh.mu)
		e.shards = append(e.shards, sh)
	}
	if cfg.Metrics != nil {
		e.obs = e.newEngineObs(cfg.Metrics, cfg.Trace)
	}
	for i := 0; i < cfg.Workers; i++ {
		e.workerWG.Add(1)
		go e.worker()
	}
	e.routerWG.Add(1)
	go e.router()
	return e
}

// SubscribeBackend registers a tenant served by any StreamBackend — an
// AERO detector, a streaming baseline adapter, or a DSPOT-wrapped
// composition — and pins it to the least-loaded shard. The engine takes
// ownership of the backend's mutable state: every later access goes
// through the subscription lock.
func (e *Engine) SubscribeBackend(id string, det core.StreamBackend) (*Subscription, error) {
	if det == nil {
		return nil, fmt.Errorf("engine: nil backend for %q", id)
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Re-check under the lock: Close flips the flag while holding e.mu,
	// so a subscription can no longer slip onto a closed engine.
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := e.subs[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateSubscription, id)
	}
	sh := e.shards[0]
	for _, cand := range e.shards[1:] {
		if cand.subsCount() < sh.subsCount() {
			sh = cand
		}
	}
	sub := &subscription{
		id: id, shard: sh, n: det.Variates(), det: det,
		hygiene:     e.cfg.Hygiene,
		health:      e.cfg.Health,
		backoffBase: e.cfg.Health.BackoffFrames,
		jitter:      jitterFrac(id),
		lastGood:    make([]float64, det.Variates()),
		repaired:    make([]bool, det.Variates()),
	}
	for v := range sub.lastGood {
		sub.lastGood[v] = nan
	}
	e.attachObs(sub)
	e.subs[id] = sub
	sh.mu.Lock()
	sh.subsN++
	sh.mu.Unlock()
	return &Subscription{ID: id, e: e, sub: sub}, nil
}

func (sh *shard) subsCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.subsN
}

// Ingest routes one frame to its tenant's shard, blocking while the shard
// queue is full (backpressure). The magnitudes are copied, so the caller
// may reuse the slice immediately.
func (e *Engine) Ingest(id string, f core.Frame) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.mu.RLock()
	sub := e.subs[id]
	e.mu.RUnlock()
	if sub == nil {
		return fmt.Errorf("%w: %q", ErrUnknownSubscription, id)
	}
	_, _, err := e.enqueue(sub, []core.Frame{f})
	return err
}

// Ingest is Engine.Ingest for a caller that already holds the tenant's
// handle — a connection serving one tenant — and so skips the lookup by
// id under the engine's lock.
func (s *Subscription) Ingest(f core.Frame) error {
	_, _, err := s.IngestBatch([]core.Frame{f})
	return err
}

// IngestBatch enqueues frames in order under one acquisition of the
// tenant's shard lock, parking frame by frame while the queue is full
// (lossless, ordered backpressure). It returns how many frames entered the
// engine — a prefix of frames, all of them unless err is set — and the
// shard queue's headroom read under the same lock, the figure a network
// front end sizes its next credit grant from. The magnitudes are copied,
// so the caller may reuse every slice as soon as it returns.
func (s *Subscription) IngestBatch(frames []core.Frame) (n, headroom int, err error) {
	if s.e.closed.Load() {
		return 0, 0, ErrClosed
	}
	return s.e.enqueue(s.sub, frames)
}

// enqueue is the one ingest implementation: every path into the engine,
// one frame or a burst, copies its frames into the shard ring here.
func (e *Engine) enqueue(sub *subscription, frames []core.Frame) (n, headroom int, err error) {
	sh := sub.shard
	sh.mu.Lock()
	staged := 0 // entered frames not yet published
	for ; n < len(frames); n++ {
		f := &frames[n]
		if len(f.Magnitudes) != sub.n {
			err = fmt.Errorf("engine: frame for %q has %d stars, detector expects %d", sub.id, len(f.Magnitudes), sub.n)
			break
		}
		if sh.count == len(sh.queue) && !sh.closed {
			// Publish before parking: Wait releases the lock, and the
			// worker that frees a slot must have been handed the shard.
			e.publish(sh, staged)
			staged = 0
			for sh.count == len(sh.queue) && !sh.closed {
				sh.cond.Wait()
			}
		}
		if sh.closed {
			err = ErrClosed
			break
		}
		buf := sh.getBuf(len(f.Magnitudes))
		copy(buf, f.Magnitudes)
		slot := (sh.head + sh.count) % len(sh.queue)
		sh.queue[slot] = item{sub: sub, time: f.Time, mags: buf}
		sh.count++
		staged++
	}
	e.publish(sh, staged)
	headroom = len(sh.queue) - sh.count
	sh.mu.Unlock()
	return n, headroom, err
}

// publish counts k frames entered under sh.mu as pending and schedules the
// shard. Caller holds sh.mu, so the frames are still invisible to workers:
// Flush and Close can never observe an empty engine with them in flight.
func (e *Engine) publish(sh *shard, k int) {
	if k == 0 {
		return
	}
	e.addPending(k)
	if !sh.scheduled {
		sh.scheduled = true
		e.ready <- sh // buffered to Shards; the scheduled flag caps it at one entry per shard
	}
}

// Samples returns the channel-based ingest path: a bounded channel whose
// sends park when the engine is saturated. Routing errors surface on
// Errors. Prefer closing the channel when the feed ends; samples still
// buffered when Close runs are reported on Errors as ErrClosed rather
// than scored, and sends after Close are not serviced.
func (e *Engine) Samples() chan<- Sample { return e.in }

// Alarms returns the fan-in alarm channel. It must be consumed
// continuously; it is closed by Close after all pending frames drain.
func (e *Engine) Alarms() <-chan Alarm { return e.alarms }

// ErrTapped is returned by Tap when an alarm tap is already installed.
var ErrTapped = errors.New("engine: alarm tap already installed")

// Tap installs fn as the engine's alarm consumer: a dedicated goroutine
// drains the fan-in Alarms channel and invokes fn once per alarm, in
// channel order. The tap takes ownership of the channel — do not also
// range over Alarms — and inherits its backpressure contract: a slow fn
// stalls the workers and, transitively, ingest. Alert-triage pipelines
// attach here (see internal/alerts.Attach).
//
// final, if non-nil, runs after the last alarm is delivered — i.e. once
// Close has drained the engine — so downstream stages can flush and
// close their own feeds. Close does not return until final has. At most
// one tap may be installed, before or while alarms flow.
func (e *Engine) Tap(fn func(Alarm), final func()) error {
	// Registration happens under e.mu — the lock Close holds while
	// flipping the closed flag — so a Tap racing Close either completes
	// its tapWG.Add before Close reaches tapWG.Wait, or observes closed
	// and is rejected; the WaitGroup never sees Add concurrent with Wait.
	e.mu.Lock()
	if e.closed.Load() {
		e.mu.Unlock()
		return ErrClosed
	}
	if !e.tapped.CompareAndSwap(false, true) {
		e.mu.Unlock()
		return ErrTapped
	}
	e.tapWG.Add(1)
	e.mu.Unlock()
	go func() {
		defer e.tapWG.Done()
		for a := range e.alarms {
			fn(a)
		}
		if final != nil {
			final()
		}
	}()
	return nil
}

// Errors returns the frame-error channel. Errors beyond its buffer are
// dropped from the channel (never from the counters: see Stats and
// Totals). Closed by Close.
func (e *Engine) Errors() <-chan FrameError { return e.errs }

// router services the Samples channel.
func (e *Engine) router() {
	defer e.routerWG.Done()
	for {
		select {
		case s, ok := <-e.in:
			if !ok {
				return
			}
			if err := e.Ingest(s.Sub, s.Frame); err != nil {
				e.routerErrs.Add(1)
				if !e.reportError(FrameError{Sub: s.Sub, Time: s.Frame.Time, Err: err}) {
					e.routerDropped.Add(1)
				}
			}
		case <-e.done:
			// Shutdown: samples still buffered in the channel can no
			// longer be scored; report them instead of dropping them
			// silently. Close keeps a counting receiver on the channel
			// afterwards, so late senders cannot deadlock.
			for {
				select {
				case s, ok := <-e.in:
					if !ok {
						return
					}
					e.routerErrs.Add(1)
					if !e.reportError(FrameError{Sub: s.Sub, Time: s.Frame.Time, Err: ErrClosed}) {
						e.routerDropped.Add(1)
					}
				default:
					return
				}
			}
		}
	}
}

// reportError offers fe to the Errors channel without blocking and
// reports whether it was delivered: scoring must never stall on a slow
// error consumer, but a dropped report is still counted (shard
// ErrorsDropped for scoring errors, the router's counter for routing
// errors) so saturation is visible instead of silent.
func (e *Engine) reportError(fe FrameError) bool {
	select {
	case e.errs <- fe:
		return true
	default: // never let a slow error consumer stall scoring
		return false
	}
}

// worker pulls scheduled shards and drains them until shutdown.
func (e *Engine) worker() {
	defer e.workerWG.Done()
	for {
		select {
		case sh := <-e.ready:
			e.drain(sh)
		case <-e.stop:
			return
		}
	}
}

// drain claims one batch from the shard, scores it outside the shard lock,
// emits alarms (blocking — alarm backpressure), then either reschedules
// the shard or parks it.
func (e *Engine) drain(sh *shard) {
	obsOn := e.obs != nil
	var drainStart int64
	if obsOn {
		drainStart = metrics.Now()
	}
	sh.mu.Lock()
	nb := sh.count
	if nb > cap(sh.batch) {
		nb = cap(sh.batch)
	}
	batch := sh.batch[:0]
	for i := 0; i < nb; i++ {
		batch = append(batch, sh.queue[sh.head])
		sh.queue[sh.head] = item{}
		sh.head = (sh.head + 1) % len(sh.queue)
	}
	sh.count -= nb
	sh.cond.Broadcast()
	sh.mu.Unlock()

	var alarmsN, blockedN, errsN, droppedN uint64
	for i := range batch {
		it := &batch[i]
		sub := it.sub
		// The frame's start stamp is taken BEFORE the subscription lock so
		// lock-wait contention shows up in the trace as its own stage
		// instead of silently inflating the score stage. t0 == 0 means the
		// frame is untimed (observability off and no latency watch).
		var t0 int64
		if obsOn || sub.health.LatencyThreshold > 0 {
			t0 = metrics.Now()
		}
		sub.mu.Lock()
		res := sub.score(it.time, it.mags, t0)
		sub.mu.Unlock()
		if res.err != nil {
			errsN++
			if !e.reportError(FrameError{Sub: sub.id, Time: it.time, Err: res.err}) {
				droppedN++
			}
		} else {
			atomic.AddUint64(&sub.frames, 1)
			for _, a := range res.alarms {
				atomic.AddUint64(&sub.alarms, 1)
				alarmsN++
				out := Alarm{Sub: sub.id, Alarm: a}
				select {
				case e.alarms <- out:
				default:
					// The fan-in channel is full: count the stall (the
					// consumer is the bottleneck, not scoring), then park on
					// the blocking send — backpressure, never loss.
					atomic.AddUint64(&sub.blocked, 1)
					blockedN++
					e.alarms <- out
				}
			}
		}
		if obsOn {
			// Histograms and the trace ring are fed after sub.mu is
			// released and after fan-in, outside every lock scoring holds.
			sub.recordFrame(it.time, &res, t0)
		}
	}
	if obsOn && len(batch) > 0 {
		e.obs.drain.Record(metrics.Now() - drainStart)
	}

	sh.mu.Lock()
	for i := range batch {
		sh.putBuf(batch[i].mags)
	}
	sh.frames += uint64(len(batch))
	sh.alarmsN += alarmsN
	sh.blockedN += blockedN
	sh.errsN += errsN
	sh.droppedN += droppedN
	if sh.count > 0 {
		e.ready <- sh
	} else {
		sh.scheduled = false
	}
	sh.mu.Unlock()
	e.addPending(-len(batch))
}

// addPending moves the in-flight count and wakes Flush when it reaches
// zero. Flush reads the count and parks under pendMu, so taking pendMu
// for the broadcast is what keeps a wake-up from slipping between its
// check and its park; every other move is one atomic add.
func (e *Engine) addPending(d int) {
	if e.pending.Add(int64(d)) == 0 {
		e.pendMu.Lock()
		e.pendCond.Broadcast()
		e.pendMu.Unlock()
	}
}

// Flush blocks until every frame accepted so far by Ingest has been
// scored. Samples still in flight inside the Samples channel are not
// covered: they count only once the router hands them to a shard. The
// Alarms channel must be drained concurrently or Flush may never return.
func (e *Engine) Flush() {
	e.pendMu.Lock()
	for e.pending.Load() > 0 {
		e.pendCond.Wait()
	}
	e.pendMu.Unlock()
}

// Close shuts the engine down: new frames are rejected, queued frames are
// scored, then the worker pool stops and the Alarms/Errors channels close.
// Like Flush, it requires the Alarms consumer to keep draining until the
// channel closes. Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	swapped := e.closed.CompareAndSwap(false, true)
	e.mu.Unlock()
	if !swapped {
		return
	}
	close(e.done)
	// Closing shards under their locks serializes against in-flight
	// enqueues: every accepted frame is already pending, every later one
	// is rejected. The broadcast also frees producers (the router
	// included) parked on a full queue, so it must precede the router
	// wait below.
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	e.routerWG.Wait()
	// The router is gone; keep a receiver on the Samples channel so a
	// producer racing Close can never park forever on a send. Late
	// samples are counted as routing errors (the Errors channel is about
	// to close, so they cannot be reported there). The goroutine exits
	// when the producer closes the channel; until then it holds only the
	// channel and the counter, so a closed engine whose producer never
	// closes Samples is still collectable — tenants, caches and all.
	go func(in <-chan Sample, late *atomic.Uint64) {
		for range in {
			late.Add(1)
		}
	}(e.in, e.routerErrs)
	e.Flush()
	close(e.stop)
	e.workerWG.Wait()
	close(e.alarms)
	close(e.errs)
	// With a tap installed, Close returning means the tap has consumed
	// every alarm and run its final hook — callers can read triage
	// results immediately.
	e.tapWG.Wait()
}
