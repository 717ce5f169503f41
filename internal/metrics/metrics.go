package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone cumulative counter. All methods are nil-safe and
// allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer instantaneous value. Nil-safe, allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind discriminates registry entries for exposition.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// metric is one registered series: a base name, a rendered label suffix
// (`{k="v",...}` or empty) and exactly one live instrument.
type metric struct {
	name   string // base name, aero_* snake_case
	labels string // rendered label block, "" when unlabeled
	help   string
	kind   metricKind
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() float64
}

func (m *metric) key() string { return m.name + m.labels }

// Registry holds all registered series in one map under one lock.
// Registration is the slow path (startup/subscribe time) and scrapes come
// seconds apart; the hot path only touches the returned instrument
// pointers and never takes the lock.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*metric)}
}

// ValidName reports whether name is a valid metric name for this stack:
// `aero_`-prefixed snake_case — lowercase letters, digits and single
// underscores, no leading/trailing/doubled underscore after the prefix.
func ValidName(name string) bool {
	const prefix = "aero_"
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return false
	}
	prev := byte('_') // prefix ends with '_': next rune must not be '_'
	for i := len(prefix); i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			prev = c
		case c == '_':
			if prev == '_' {
				return false
			}
			prev = c
		default:
			return false
		}
	}
	return prev != '_'
}

// renderLabels turns k,v pairs into a deterministic `{k="v",...}` block.
// Pairs are sorted by key so the same label set always produces the same
// series key regardless of call-site ordering.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("metrics: odd label key/value list")
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	out := "{"
	for i, p := range ps {
		if i > 0 {
			out += ","
		}
		out += p.k + `="` + escapeLabel(p.v) + `"`
	}
	return out + "}"
}

func escapeLabel(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}

// register installs a series or returns the existing one. It panics on
// an invalid name or when the key is already registered with a different
// kind — both are programmer errors caught at wiring time, never during
// steady-state serving.
func (r *Registry) register(name, help string, kind metricKind, labels []string) *metric {
	if !ValidName(name) {
		panic("metrics: invalid metric name " + name)
	}
	m := &metric{name: name, labels: renderLabels(labels), help: help, kind: kind}
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.m[m.key()]; ok {
		if prev.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as a different kind", m.key()))
		}
		return prev
	}
	switch kind {
	case kindCounter:
		m.ctr = &Counter{}
	case kindGauge:
		m.gauge = &Gauge{}
	case kindHistogram:
		m.hist = &Histogram{}
	}
	r.m[m.key()] = m
	return m
}

// Counter registers (or fetches) a counter series. labels are k,v pairs.
// Nil-safe: a nil registry returns a nil instrument, which is itself
// nil-safe, so disabled stacks wire through without branches.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindCounter, labels).ctr
}

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindGauge, labels).gauge
}

// Histogram registers (or fetches) a latency histogram series.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, kindHistogram, labels).hist
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — used to surface counters the hot path already maintains
// (shard stats, refit totals) without double-counting writes.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, kindCounterFunc, labels).fn = fn
}

// GaugeFunc registers a gauge series computed at scrape time (queue
// depth, headroom, tenant health states).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	r.register(name, help, kindGaugeFunc, labels).fn = fn
}

// FindHistogram returns a previously registered histogram series, or nil
// when absent. Callers like aeroserve use it to read quantiles for
// series the engine registered internally.
func (r *Registry) FindHistogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if m, ok := r.m[name+renderLabels(labels)]; ok && m.kind == kindHistogram {
		return m.hist
	}
	return nil
}

// Value reads a counter or gauge series — a plain instrument or a
// scrape-time func — as Prometheus would scrape it. With labels it reads
// the one series of that label set; without, it sums every label set of
// the name. ok is false when no such series is registered (histograms
// are not values: read them through FindHistogram).
func (r *Registry) Value(name string, labels ...string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	var ms []*metric
	r.mu.RLock()
	if len(labels) > 0 {
		if m, found := r.m[name+renderLabels(labels)]; found {
			ms = append(ms, m)
		}
	} else {
		for _, m := range r.m {
			if m.name == name {
				ms = append(ms, m)
			}
		}
	}
	r.mu.RUnlock()
	// Funcs run outside the lock: they take the locks of what they read.
	for _, m := range ms {
		switch m.kind {
		case kindCounter:
			v += float64(m.ctr.Value())
		case kindGauge:
			v += float64(m.gauge.Value())
		case kindCounterFunc, kindGaugeFunc:
			v += m.fn()
		default:
			continue
		}
		ok = true
	}
	return v, ok
}

// SeriesNames returns every registered series key (name plus rendered
// labels), sorted. The metric-name lint test walks this.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]string, 0, len(r.m))
	for k := range r.m {
		out = append(out, k)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// snapshotMetrics returns all series sorted by key for exposition.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.RLock()
	out := make([]*metric, 0, len(r.m))
	for _, m := range r.m {
		out = append(out, m)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}
