package lifecycle

import (
	"fmt"
	"sync"
	"time"

	"aero/internal/dataset"
	"aero/internal/metrics"
)

// RetrainerConfig wires a Retrainer to its data, its registry and its
// consumer.
type RetrainerConfig struct {
	// Registry receives every successfully trained model. Required.
	Registry *Registry
	// Source fetches the training series for a tenant — typically the
	// latest archived frames of its field. Required; called from the
	// worker goroutine.
	Source func(tenant string) (*dataset.Series, error)
	// Train fits a tenant's round-th retrain (rounds count from 1) on the
	// fetched series and returns the (kind, artifact) pair to publish —
	// typically a closure over a backend.Spec's Train. Deriving the
	// training seed from the round makes every retrain reproducible:
	// core training is bit-deterministic for a fixed seed at any worker
	// count. Required; called from the worker goroutine.
	Train func(tenant string, round int, train *dataset.Series) (kind string, artifact []byte, err error)
	// Interval, when positive, retrains every registered tenant on this
	// period. Zero means on-demand only (Trigger/TriggerAll).
	Interval time.Duration
	// OnResult, when non-nil, observes every finished retrain — failures
	// included — from the worker goroutine. This is where a deployment
	// hot-swaps the published model into its serving tenants.
	OnResult func(Result)
	// Logf, when non-nil, receives progress lines (version, duration).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, times each retrain round (fetch + fit +
	// publish) into aero_lifecycle_retrain_seconds and counts completions,
	// failures and published versions. Retraining is a background path, so
	// this costs one histogram record per round, not per frame.
	Metrics *metrics.Registry
}

// Result reports one finished retrain.
type Result struct {
	// Tenant is the retrained tenant id.
	Tenant string
	// Round is the per-tenant retrain counter (1 for the first retrain).
	Round int
	// Version is the registry version the artifact was published as.
	Version Version
	// Kind is the backend kind tag the artifact was published under.
	Kind string
	// Artifact is the published artifact bytes, ready for
	// Subscription.SwapArtifact on any backend kind. Nil when Err is
	// non-nil.
	Artifact []byte
	// Duration is the wall time of fetch + fit + publish.
	Duration time.Duration
	// Err is non-nil when the retrain failed; no version was published.
	Err error
}

// Retrainer refits tenant models one at a time on a background worker
// goroutine, on a schedule or on demand, publishing each result to the
// registry: background retraining should sip the cores live scoring is
// using. Create with NewRetrainer, call Start, and Close when done.
type Retrainer struct {
	cfg RetrainerConfig

	mu      sync.Mutex
	cond    *sync.Cond
	tenants []string        // scheduled set, in registration order
	queue   []job           // FIFO of pending retrains
	pending map[string]bool // dedupe: tenant already queued (not yet running)
	rounds  map[string]int
	closed  bool
	started bool

	wg       sync.WaitGroup
	stopTick chan struct{}

	obs *retrainObs
}

// retrainObs holds the retrainer's instruments; nil when unobserved.
type retrainObs struct {
	rounds    *metrics.Histogram // wall time of one fetch + fit + publish
	retrains  *metrics.Counter
	errors    *metrics.Counter
	publishes *metrics.Counter
}

func newRetrainObs(reg *metrics.Registry) *retrainObs {
	return &retrainObs{
		rounds:    reg.Histogram("aero_lifecycle_retrain_seconds", "Wall time of one retrain round: fetch, fit, publish."),
		retrains:  reg.Counter("aero_lifecycle_retrains_total", "Retrain rounds finished (failures included)."),
		errors:    reg.Counter("aero_lifecycle_retrain_errors_total", "Retrain rounds that failed."),
		publishes: reg.Counter("aero_lifecycle_publishes_total", "Model versions published to the registry."),
	}
}

// job is one queued retrain; the round is fixed at trigger time.
type job struct {
	tenant string
	round  int
}

// NewRetrainer validates cfg and returns an idle retrainer; no goroutines
// run until Start.
func NewRetrainer(cfg RetrainerConfig) (*Retrainer, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("lifecycle: retrainer needs a registry")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("lifecycle: retrainer needs a training-data source")
	}
	if cfg.Train == nil {
		return nil, fmt.Errorf("lifecycle: retrainer needs a trainer")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rt := &Retrainer{
		cfg:      cfg,
		pending:  map[string]bool{},
		rounds:   map[string]int{},
		stopTick: make(chan struct{}),
	}
	rt.cond = sync.NewCond(&rt.mu)
	if cfg.Metrics != nil {
		rt.obs = newRetrainObs(cfg.Metrics)
	}
	return rt, nil
}

// Register adds a tenant to the scheduled set (the tenants TriggerAll and
// the interval timer retrain). Registering an already-registered tenant is
// a no-op.
func (rt *Retrainer) Register(tenant string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, have := range rt.tenants {
		if have == tenant {
			return
		}
	}
	rt.tenants = append(rt.tenants, tenant)
}

// Start launches the worker and, when Interval is set, the schedule.
func (rt *Retrainer) Start() {
	rt.mu.Lock()
	if rt.started || rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.started = true
	rt.mu.Unlock()
	rt.wg.Add(1)
	go rt.worker()
	if rt.cfg.Interval > 0 {
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			tick := time.NewTicker(rt.cfg.Interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					rt.TriggerAll()
				case <-rt.stopTick:
					return
				}
			}
		}()
	}
}

// Trigger enqueues an on-demand retrain for the tenant. It reports false
// when the tenant is already queued or the retrainer is closed; a retrain
// currently *running* does not suppress a new trigger (the fresh data it
// would see justifies a back-to-back round).
func (rt *Retrainer) Trigger(tenant string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed || rt.pending[tenant] {
		return false
	}
	rt.pending[tenant] = true
	rt.rounds[tenant]++
	rt.queue = append(rt.queue, job{tenant: tenant, round: rt.rounds[tenant]})
	rt.cond.Signal()
	return true
}

// TriggerAll triggers every registered tenant, returning how many were
// newly enqueued.
func (rt *Retrainer) TriggerAll() int {
	rt.mu.Lock()
	tenants := append([]string(nil), rt.tenants...)
	rt.mu.Unlock()
	n := 0
	for _, tenant := range tenants {
		if rt.Trigger(tenant) {
			n++
		}
	}
	return n
}

// Close stops the schedule, abandons retrains still queued, waits for
// in-flight ones to finish (their results are still delivered), and
// returns. Close is idempotent.
func (rt *Retrainer) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		rt.wg.Wait()
		return
	}
	rt.closed = true
	rt.queue = nil
	rt.pending = map[string]bool{}
	rt.cond.Broadcast()
	rt.mu.Unlock()
	close(rt.stopTick)
	rt.wg.Wait()
}

// worker pops jobs until Close.
func (rt *Retrainer) worker() {
	defer rt.wg.Done()
	for {
		rt.mu.Lock()
		for len(rt.queue) == 0 && !rt.closed {
			rt.cond.Wait()
		}
		if rt.closed {
			rt.mu.Unlock()
			return
		}
		j := rt.queue[0]
		rt.queue = rt.queue[1:]
		delete(rt.pending, j.tenant)
		rt.mu.Unlock()

		res := rt.retrain(j)
		if rt.obs != nil {
			rt.obs.rounds.Record(int64(res.Duration))
			rt.obs.retrains.Inc()
			if res.Err != nil {
				rt.obs.errors.Inc()
			} else {
				rt.obs.publishes.Inc()
			}
		}
		if res.Err != nil {
			rt.cfg.Logf("lifecycle: retrain %s round %d failed: %v", j.tenant, j.round, res.Err)
		} else {
			rt.cfg.Logf("lifecycle: retrained %s round %d → %s (%s, %s)",
				j.tenant, j.round, res.Version, res.Kind, res.Duration.Round(time.Millisecond))
		}
		if rt.cfg.OnResult != nil {
			rt.cfg.OnResult(res)
		}
	}
}

// retrain runs one fetch + fit + publish.
func (rt *Retrainer) retrain(j job) (res Result) {
	start := time.Now()
	res = Result{Tenant: j.tenant, Round: j.round}
	defer func() { res.Duration = time.Since(start) }()
	series, err := rt.cfg.Source(j.tenant)
	if err != nil {
		res.Err = fmt.Errorf("lifecycle: training data for %q: %w", j.tenant, err)
		return res
	}
	kind, artifact, err := rt.cfg.Train(j.tenant, j.round, series)
	if err != nil {
		res.Err = fmt.Errorf("lifecycle: retrain %q: %w", j.tenant, err)
		return res
	}
	if res.Version, res.Err = rt.cfg.Registry.PublishArtifact(j.tenant, kind, artifact); res.Err == nil {
		res.Kind, res.Artifact = kind, artifact
	}
	return res
}
