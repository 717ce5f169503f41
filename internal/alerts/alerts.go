// Package alerts is the streaming alert-triage subsystem: it consumes
// the engine's raw fan-in alarm stream across all tenants and reduces it
// to a short, ranked incident feed. At survey scale one atmospheric
// event or instrument artifact fires hundreds of near-duplicate
// threshold alarms; the scientific unit of interest is the *grouped*
// event — which fields brightened, when each onset was, how wide the
// event reached. The pipeline runs four stages in order:
//
//  1. Dedup: an alarm whose (tenant, variate) has an open episode that
//     last extended in the alarm's time bucket is a repeat and drops. The
//     episode stage already holds each source's last surviving alarm, so
//     the check needs no state of its own.
//  2. Episodes: surviving alarms for one (tenant, variate) coalesce into
//     an episode — onset, end, peak score, frame count — which closes
//     when the stream goes quiet for EpisodeGap or the episode exceeds
//     its duration cap.
//  3. Correlation: closed episodes whose onsets fall within Window of
//     each other form one candidate incident — the astronomical
//     cross-match: a real transient hits many fields at once, an
//     artifact hits one. Nothing outlives the incident: the paper's
//     concurrent noise hits a field's stars at the same moment, so
//     triage uses coincidence, not which field's onset came first.
//  4. Ranking: incident severity is peak score boosted by cluster
//     breadth, with single-tenant incidents demoted as probable
//     artifacts; each Push returns its finalized incidents most-severe
//     first.
//
// The pipeline honors the codebase's streaming contracts: output is a
// pure function of the pushed alarm sequence (no wall clock, no map
// iteration order, no randomness — the golden tests replay a recorded
// sequence and compare incidents exactly), the benign path (duplicate
// drop or episode extension) is allocation-free in steady state, and
// the whole warm state snapshots/restores through the versioned binary
// format so a -checkpoint restart resumes episodes mid-flight.
//
// A Pipeline is safe for concurrent use; every method takes an internal
// lock. Feed it from the engine with Attach, or push alarms directly.
package alerts

import (
	"math"
	"slices"
	"sync"

	"aero/internal/engine"
)

// Config parameterizes the triage pipeline. The zero value is usable:
// every field defaults to a sensible production setting. Time-valued
// fields are in the feed's time units (for GWAC, seconds; one frame
// every ~15 s).
type Config struct {
	// BucketWidth is the dedup time-bucket: repeat alarms for one
	// (tenant, variate) inside one bucket collapse to the first, as long
	// as that source's episode is still open (see Pipeline.Push).
	// Defaults to 5.
	BucketWidth float64
	// EpisodeGap closes an episode after this much silence. It must
	// exceed BucketWidth (dedup thins an ongoing episode to one
	// surviving alarm per bucket, so a smaller gap would fragment every
	// episode); values not exceeding BucketWidth fall back to the
	// default. Defaults to 3×BucketWidth.
	EpisodeGap float64
	// MaxEpisodeLen caps episode duration; a longer event continues as a
	// fresh episode. The cap bounds how long a candidate incident must
	// stay open, so it is what makes incident emission prompt.
	// Defaults to 40×BucketWidth.
	MaxEpisodeLen float64
	// Window is the cross-tenant correlation span: episodes whose onsets
	// fall within Window of a candidate's first onset join that
	// candidate. Defaults to 2×BucketWidth.
	Window float64
}

// Fixed triage knobs. An incident reaching fewer than minTenants tenants
// is demoted as a probable single-field artifact, its severity scaled by
// demotion.
const (
	minTenants = 2
	demotion   = 0.25
)

// DefaultConfig returns the production defaults described on Config.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.BucketWidth <= 0 {
		c.BucketWidth = 5
	}
	if c.EpisodeGap <= c.BucketWidth {
		c.EpisodeGap = 3 * c.BucketWidth
	}
	if c.MaxEpisodeLen <= 0 {
		c.MaxEpisodeLen = 40 * c.BucketWidth
	}
	if c.Window <= 0 {
		c.Window = 2 * c.BucketWidth
	}
	return c
}

// Episode is one coalesced run of alarms from a single (tenant, variate)
// source: the paper's per-star threshold crossings reduced to onset,
// extent and peak.
type Episode struct {
	Tenant   string
	Variate  int
	Onset    float64 // time of the first alarm
	End      float64 // time of the last alarm
	Peak     float64 // highest surviving alarm score
	PeakTime float64 // when the peak fired
	Frames   int     // surviving (post-dedup) alarms coalesced
}

// Incident is one ranked triage output: a cluster of episodes whose
// onsets coincide across tenants, with severity derived from cluster
// breadth × peak score. Incidents returned by one Push are ordered
// most-severe first; IDs increase in emission order.
type Incident struct {
	ID      uint64
	Onset   float64 // earliest member onset
	End     float64 // latest member end
	Peak    float64 // highest member peak score
	Tenants int     // distinct tenants reached
	Frames  int     // surviving alarms across all members
	// Severity is Peak × (1 + log2(Tenants)), scaled down by demotion
	// when breadth is below minTenants.
	Severity float64
	// Demoted marks a probable artifact: breadth below minTenants.
	Demoted bool
	// Episodes are the members, sorted by (Onset, Tenant, Variate).
	Episodes []Episode
}

// Stats is a point-in-time snapshot of the pipeline's counters.
type Stats struct {
	// Alarms counts raw alarms pushed in.
	Alarms uint64
	// Deduped counts alarms dropped as same-bucket duplicates.
	Deduped uint64
	// Episodes counts closed episodes.
	Episodes uint64
	// Incidents counts emitted incidents.
	Incidents uint64
	// OpenEpisodes is the number of episodes currently mid-flight.
	OpenEpisodes int
	// PendingIncidents is the number of candidate incidents not yet
	// finalized.
	PendingIncidents int
	// Reduction is the alarm→incident reduction ratio, 1 −
	// Incidents/Alarms (0 until any alarm has arrived).
	Reduction float64
}

// epKey addresses one alarm source.
type epKey struct {
	tenant  string
	variate int
}

// candidate is one incident being assembled: episodes joined by onset
// proximity to the anchor (the first member's onset). It finalizes when
// the watermark passes deadline — the latest time any episode eligible
// to join could still close.
type candidate struct {
	anchor   float64
	deadline float64
	eps      []Episode
}

// Pipeline is the four-stage triage state machine. Create one with
// NewPipeline, feed it alarms in stream order with Push, and read the
// returned incidents; Finalize flushes everything still in flight.
type Pipeline struct {
	mu  sync.Mutex
	cfg Config

	open     map[epKey]*Episode
	openList []*Episode // insertion-ordered view of open; scan order is part of determinism
	epFree   []*Episode

	closed []*Episode // episodes closed by the current Push, pre-correlation

	cands    []*candidate // creation-ordered
	candFree []*candidate

	watermark    float64 // max alarm time seen
	nextExpiry   float64 // earliest possible episode close; +Inf when none
	nextDeadline float64 // earliest candidate finalize deadline; +Inf when none
	seq          uint64  // next incident ID

	nAlarms    uint64
	nDeduped   uint64
	nEpisodes  uint64
	nIncidents uint64

	out     []Incident // Push/Finalize result buffer, reused
	tenants []string   // emit scratch: distinct member tenants
	seenWM  bool       // whether any alarm has arrived (watermark valid)
}

// NewPipeline returns an empty triage pipeline.
func NewPipeline(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	return &Pipeline{
		cfg:          cfg,
		open:         make(map[epKey]*Episode),
		nextExpiry:   math.Inf(1),
		nextDeadline: math.Inf(1),
	}
}

// Config returns the pipeline's resolved configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Push feeds one alarm through dedup → episodes → correlation → ranking
// and returns the incidents finalized by it, most-severe first (usually
// none). The returned slice is reused by the next Push/Finalize; copy
// the incidents to retain them. The benign path — a duplicate drop or an
// in-flight episode extension — allocates nothing in steady state.
//
// Alarms must arrive in per-tenant time order (the engine guarantees
// this); tenants may interleave freely. The pipeline's clock is the
// watermark — the newest alarm time seen across all tenants — so a
// tenant lagging far behind the rest may have a quiet episode closed by
// the others' progress, and its next alarm then opens a fresh episode
// even inside the closed one's last bucket. An alarm that arrives within
// EpisodeGap − BucketWidth of the watermark always finds its source's
// episode open, so dedup keeps exactly the first alarm per (tenant,
// variate, bucket).
func (p *Pipeline) Push(a engine.Alarm) []Incident {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out = p.out[:0]
	p.nAlarms++
	if !p.seenWM || a.Time > p.watermark {
		p.watermark = a.Time
		p.seenWM = true
	}

	// Stage 1: dedup against the source's open episode, after closing
	// the episodes the watermark has left behind.
	p.expire()
	ep := p.open[epKey{a.Sub, a.Variate}]
	if ep != nil && math.Floor(ep.End/p.cfg.BucketWidth) == math.Floor(a.Time/p.cfg.BucketWidth) {
		p.nDeduped++
	} else {
		p.admit(a, ep)
	}
	// Benign fast path: closing and finalizing both require the
	// watermark strictly past the deadline, so equality stays here.
	if p.watermark <= p.nextExpiry && p.watermark <= p.nextDeadline && len(p.closed) == 0 {
		return p.out
	}

	// Stages 2–4 on whatever the watermark advanced past.
	p.expire()
	p.correlate()
	p.finalizeDue(false)
	p.rank()
	return p.out
}

// admit opens or extends ep, the open episode for the alarm's (tenant,
// variate), or nil when there is none.
func (p *Pipeline) admit(a engine.Alarm, ep *Episode) {
	if ep != nil && (a.Time-ep.End > p.cfg.EpisodeGap || a.Time-ep.Onset >= p.cfg.MaxEpisodeLen) {
		// Gap-stale (possible when this tenant itself drives the
		// watermark) or over the duration cap: close and start fresh.
		p.closeEpisode(ep)
		ep = nil
	}
	if ep == nil {
		ep = p.getEpisode()
		*ep = Episode{Tenant: a.Sub, Variate: a.Variate, Onset: a.Time, End: a.Time, Peak: a.Score, PeakTime: a.Time, Frames: 1}
		p.open[epKey{a.Sub, a.Variate}] = ep
		p.openList = append(p.openList, ep)
	} else {
		if a.Time > ep.End {
			ep.End = a.Time
		}
		ep.Frames++
		if a.Score > ep.Peak {
			ep.Peak = a.Score
			ep.PeakTime = a.Time
		}
	}
	if d := ep.End + p.cfg.EpisodeGap; d < p.nextExpiry {
		p.nextExpiry = d
	}
}

// expire closes every open episode the watermark has left behind by more
// than EpisodeGap, preserving openList order (part of the determinism
// contract).
func (p *Pipeline) expire() {
	if p.watermark <= p.nextExpiry { // closing needs watermark strictly past End+Gap
		return
	}
	keep := p.openList[:0]
	next := math.Inf(1)
	for _, ep := range p.openList {
		if p.watermark-ep.End > p.cfg.EpisodeGap {
			delete(p.open, epKey{ep.Tenant, ep.Variate})
			p.closed = append(p.closed, ep)
			continue
		}
		keep = append(keep, ep)
		if d := ep.End + p.cfg.EpisodeGap; d < next {
			next = d
		}
	}
	p.openList = keep
	p.nextExpiry = next
}

// closeEpisode retires one open episode immediately (cap or gap closure
// discovered by admit), keeping openList compact.
func (p *Pipeline) closeEpisode(ep *Episode) {
	delete(p.open, epKey{ep.Tenant, ep.Variate})
	for i, e := range p.openList {
		if e == ep {
			p.openList = append(p.openList[:i], p.openList[i+1:]...)
			break
		}
	}
	p.closed = append(p.closed, ep)
}

// correlate assigns the Push's closed episodes — in canonical (onset,
// tenant, variate) order — to candidate incidents by onset proximity.
func (p *Pipeline) correlate() {
	if len(p.closed) == 0 {
		return
	}
	sortEpisodes(p.closed)
	for _, ep := range p.closed {
		p.nEpisodes++
		var c *candidate
		for _, cand := range p.cands {
			if math.Abs(ep.Onset-cand.anchor) <= p.cfg.Window {
				c = cand
				break
			}
		}
		if c == nil {
			c = p.getCandidate()
			c.anchor = ep.Onset
			// No episode with a joinable onset can still be open once the
			// watermark passes this: a joiner starts by anchor+Window, runs
			// at most MaxEpisodeLen, then needs EpisodeGap of silence to
			// close (plus one gap of slack for the closing scan itself).
			c.deadline = ep.Onset + p.cfg.Window + p.cfg.MaxEpisodeLen + 2*p.cfg.EpisodeGap
			if c.deadline < p.nextDeadline {
				p.nextDeadline = c.deadline
			}
			p.cands = append(p.cands, c)
		}
		c.eps = append(c.eps, *ep)
		p.putEpisode(ep)
	}
	p.closed = p.closed[:0]
}

// finalizeDue emits every candidate whose deadline the watermark has
// passed (or all of them, when flush is set), in creation order.
func (p *Pipeline) finalizeDue(flush bool) {
	keep := p.cands[:0]
	next := math.Inf(1)
	for _, c := range p.cands {
		if flush || p.watermark > c.deadline {
			p.emit(c)
			continue
		}
		keep = append(keep, c)
		if c.deadline < next {
			next = c.deadline
		}
	}
	p.cands = keep
	p.nextDeadline = next
}

// emit turns one candidate into an Incident and recycles the candidate.
func (p *Pipeline) emit(c *candidate) {
	sortEpisodes2(c.eps)
	inc := Incident{
		Onset:    math.Inf(1),
		Episodes: append([]Episode(nil), c.eps...),
	}
	p.tenants = p.tenants[:0]
	for i := range c.eps {
		ep := &c.eps[i]
		if ep.Onset < inc.Onset {
			inc.Onset = ep.Onset
		}
		if ep.End > inc.End {
			inc.End = ep.End
		}
		if ep.Peak > inc.Peak {
			inc.Peak = ep.Peak
		}
		inc.Frames += ep.Frames
		if !slices.Contains(p.tenants, ep.Tenant) {
			p.tenants = append(p.tenants, ep.Tenant)
		}
	}
	inc.Tenants = len(p.tenants)
	inc.Severity = inc.Peak * (1 + math.Log2(float64(inc.Tenants)))
	if inc.Tenants < minTenants {
		inc.Severity *= demotion
		inc.Demoted = true
	}
	p.out = append(p.out, inc)
	c.eps = c.eps[:0]
	p.candFree = append(p.candFree, c)
}

// rank orders the Push's emitted incidents most-severe first (severity
// desc, then onset asc, then lead episode) and assigns their IDs in that
// order.
func (p *Pipeline) rank() {
	out := p.out
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && incidentLess(&out[j], &out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for i := range out {
		out[i].ID = p.seq
		p.seq++
	}
	p.nIncidents += uint64(len(out))
}

// incidentLess ranks a before b: higher severity first, then earlier
// onset, then the lexicographically first lead episode.
func incidentLess(a, b *Incident) bool {
	if a.Severity != b.Severity {
		return a.Severity > b.Severity
	}
	if a.Onset != b.Onset {
		return a.Onset < b.Onset
	}
	if len(a.Episodes) > 0 && len(b.Episodes) > 0 {
		return a.Episodes[0].Tenant < b.Episodes[0].Tenant
	}
	return false
}

// Finalize closes every in-flight episode and candidate and returns the
// resulting incidents, most-severe first — the end-of-feed flush. The
// watermark and counters survive, so the pipeline remains usable; with every episode closed, a later alarm opens a fresh
// one even in a bucket a closed episode ended in. The returned slice is
// reused by the next Push/Finalize.
//
// Checkpointing deployments snapshot instead of finalizing: a snapshot
// keeps episodes mid-flight so a restart resumes them.
func (p *Pipeline) Finalize() []Incident {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out = p.out[:0]
	for _, ep := range p.openList {
		delete(p.open, epKey{ep.Tenant, ep.Variate})
		p.closed = append(p.closed, ep)
	}
	p.openList = p.openList[:0]
	p.nextExpiry = math.Inf(1)
	p.correlate()
	p.finalizeDue(true)
	p.rank()
	return p.out
}

// Stats snapshots the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Alarms:           p.nAlarms,
		Deduped:          p.nDeduped,
		Episodes:         p.nEpisodes,
		Incidents:        p.nIncidents,
		OpenEpisodes:     len(p.openList),
		PendingIncidents: len(p.cands),
	}
	if s.Alarms > 0 {
		s.Reduction = 1 - float64(s.Incidents)/float64(s.Alarms)
	}
	return s
}

func (p *Pipeline) getEpisode() *Episode {
	if n := len(p.epFree); n > 0 {
		ep := p.epFree[n-1]
		p.epFree = p.epFree[:n-1]
		return ep
	}
	return new(Episode)
}

func (p *Pipeline) putEpisode(ep *Episode) { p.epFree = append(p.epFree, ep) }

func (p *Pipeline) getCandidate() *candidate {
	if n := len(p.candFree); n > 0 {
		c := p.candFree[n-1]
		p.candFree = p.candFree[:n-1]
		return c
	}
	return new(candidate)
}

// sortEpisodes insertion-sorts a batch of closed episodes into canonical
// (Onset, Tenant, Variate) order. Batches are small; an explicit sort
// keeps the hot path free of sort.Slice's interface allocation.
func sortEpisodes(eps []*Episode) {
	for i := 1; i < len(eps); i++ {
		for j := i; j > 0 && episodeLess(eps[j], eps[j-1]); j-- {
			eps[j], eps[j-1] = eps[j-1], eps[j]
		}
	}
}

// sortEpisodes2 is sortEpisodes over values (candidate members).
func sortEpisodes2(eps []Episode) {
	for i := 1; i < len(eps); i++ {
		for j := i; j > 0 && episodeLess(&eps[j], &eps[j-1]); j-- {
			eps[j], eps[j-1] = eps[j-1], eps[j]
		}
	}
}

func episodeLess(a, b *Episode) bool {
	if a.Onset != b.Onset {
		return a.Onset < b.Onset
	}
	if a.Tenant != b.Tenant {
		return a.Tenant < b.Tenant
	}
	return a.Variate < b.Variate
}
