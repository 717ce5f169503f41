package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aero"
	"aero/internal/backend"
	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/ingest"
)

// passConfig is how one measured pass over a workload is run. An untraced
// run is one plain pass; a traced run adds short passes that each change
// one thing (see perLayer).
type passConfig struct {
	seconds  float64 // measure whole blocks until this much time has passed
	blocks   int     // > 0: measure exactly this many blocks instead (fixed work)
	traced   bool    // decorators stamp entry and exit, the bench owns the alarm tap
	procs    int     // GOMAXPROCS for the pass; 0 leaves it at nproc
	observed bool    // EngineConfig.Metrics set (the flight recorder comes with it)
	inproc   bool    // wire workload driven through Engine.Ingest instead
}

type tenant struct {
	id     string
	feed   *feed
	sub    *aero.Subscription
	stage  *backend.DSPOTStage
	rec    *recorder
	client *ingest.Client
	sent   int // measured frames handed to Ingest or Send

	tapAlarms []core.Alarm // traced, sampled tenants: alarms as the tap saw them
}

// mark is the generator's reading at a block boundary.
type mark struct{ wall, cpu, frames int64 }

// alarmRec is one alarm's trip through the bench-owned tap (traced).
type alarmRec struct {
	tenant, k  int32
	seen, done int64
}

// rig is one instantiated workload: engine, tenants, triage, and for the
// wire loop the server and its clients.
type rig struct {
	art *artifacts
	sp  spec
	pc  passConfig

	eng        *aero.Engine
	tenants    []*tenant
	lanes      [][]*tenant    // closed loop: the tenants each generator feeds
	index      map[string]int // streaming tenant id → position
	subs       map[string]*aero.Subscription
	sampled    [2]int
	capK       int // per-tenant sample capacity, in measured frames
	triage     *aero.TriagePipeline
	incDone    chan struct{}
	nIncs      int64
	warmAlarms uint64 // alarms of the warm-up, discarded before triage attaches
	errDone    chan struct{}
	frameErr   atomic.Int64

	srv      *ingest.Server
	ln       net.Listener
	serveErr chan error
	ackRTT   *aero.MetricsHistogram

	marks     []mark
	late      []int64 // open loop: wake-up lateness per tick, ns
	alarmRecs []alarmRec
	tapSeen   atomic.Uint64 // alarms the bench-owned tap has finished with
	sendErrs  atomic.Int64
	sentTotal atomic.Int64
	stop      atomic.Bool
	deadline  int64
	closeOnce sync.Once
}

func (pc passConfig) maxBlocks(sp spec) int {
	if pc.blocks > 0 {
		return pc.blocks
	}
	return int(pc.seconds*float64(sp.capRate))/sp.blockPerTenant + 1
}

// instantiate builds the serving system for a pass: engine with default
// config, every tenant subscribed behind its decorators, triage attached,
// windows warm. For the wire loop it also starts the server and dials one
// client per streaming tenant.
func instantiate(art *artifacts, pc passConfig, seed int64) (*rig, error) {
	sp := art.sp
	g := &rig{art: art, sp: sp, pc: pc,
		index: make(map[string]int), subs: make(map[string]*aero.Subscription)}
	g.capK = pc.maxBlocks(sp) * sp.blockPerTenant
	g.marks = make([]mark, 0, pc.maxBlocks(sp)+2)
	if sp.loop == loopOpen {
		g.late = make([]int64, 0, g.capK)
	}

	var cfg aero.EngineConfig
	if pc.observed {
		cfg.Metrics = aero.NewMetricsRegistry()
	}
	g.eng = aero.NewEngine(cfg)
	ok := false
	defer func() {
		if !ok {
			g.close()
		}
	}()

	g.errDone = make(chan struct{})
	go func() {
		defer close(g.errDone)
		for range g.eng.Errors() {
			g.frameErr.Add(1)
		}
	}()

	g.sampled = [2]int{int(seed % int64(sp.tenants)), int((seed + int64(sp.tenants)/2) % int64(sp.tenants))}
	for i := 0; i < sp.tenants; i++ {
		tn := &tenant{id: fmt.Sprintf("field-%04d", i), feed: newFeed(seed, i, len(art.rows)), rec: &recorder{warm: warmCount}}
		if pc.traced {
			tn.rec.recs = make([]frameRec, g.capK)
		} else {
			tn.rec.lat = make([]uint32, g.capK)
		}
		if i == g.sampled[0] || i == g.sampled[1] {
			tn.rec.alarms = make([]core.Alarm, 0, 1<<16)
			if pc.traced {
				tn.tapAlarms = make([]core.Alarm, 0, 1<<16)
			}
		}
		var spanRec *recorder
		if pc.traced {
			spanRec = tn.rec
		}
		var err error
		if tn.stage, err = art.stage(spanRec); err != nil {
			return nil, err
		}
		if tn.sub, err = g.eng.SubscribeBackend(tn.id, &verdictStamp{DSPOTStage: tn.stage, rec: tn.rec}); err != nil {
			return nil, err
		}
		g.index[tn.id] = i
		g.subs[tn.id] = tn.sub
		g.tenants = append(g.tenants, tn)
	}
	for i := 0; i < sp.idle; i++ {
		st, err := art.stage(nil)
		if err != nil {
			return nil, err
		}
		id := fmt.Sprintf("idle-%04d", i)
		sub, err := g.eng.SubscribeBackend(id, st)
		if err != nil {
			return nil, err
		}
		g.subs[id] = sub
	}

	if err := g.warmUp(); err != nil {
		return nil, err
	}

	tcfg := aero.DefaultTriageConfig()
	if pc.traced {
		g.triage = aero.NewTriagePipeline(tcfg)
		g.alarmRecs = make([]alarmRec, 0, 1<<18)
		if err := g.eng.Tap(g.tap, nil); err != nil {
			return nil, err
		}
	} else {
		ts, err := aero.AttachTriage(g.eng, tcfg, 0)
		if err != nil {
			return nil, err
		}
		g.triage = ts.Pipeline()
		g.incDone = make(chan struct{})
		go func() {
			defer close(g.incDone)
			for range ts.Incidents() {
				g.nIncs++
			}
		}()
	}

	if sp.loop == loopWire && !pc.inproc {
		if err := g.startWire(); err != nil {
			return nil, err
		}
		for _, tn := range g.tenants {
			g.lanes = append(g.lanes, []*tenant{tn})
		}
	} else {
		byShard := map[int]int{}
		for _, tn := range g.tenants {
			shard := tn.sub.Stats().Shard
			i, seen := byShard[shard]
			if !seen {
				i, byShard[shard] = len(g.lanes), len(g.lanes)
				g.lanes = append(g.lanes, nil)
			}
			g.lanes[i] = append(g.lanes[i], tn)
		}
	}
	runtime.GC()
	ok = true
	return g, nil
}

// warmUp fills every window through the engine, idle tenants included.
// What the cold windows alarm on is thrown away before triage attaches:
// thousands of tenants alarming on the same first frames is one giant
// correlated episode that triage would spend the first seconds of the
// measured phase digesting.
func (g *rig) warmUp() error {
	alarms := g.eng.Alarms()
	warmed, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(drained)
		for {
			select {
			case <-alarms:
				g.warmAlarms++
			case <-warmed:
				return
			}
		}
	}()
	defer func() {
		close(warmed)
		<-drained
		for len(alarms) > 0 {
			<-alarms
			g.warmAlarms++
		}
	}()
	idle := &feed{}
	for n := 0; n < warmCount; n++ {
		for _, tn := range g.tenants {
			if err := g.eng.Ingest(tn.id, g.art.frame(tn.feed, n)); err != nil {
				return err
			}
		}
		for i := 0; i < g.sp.idle; i++ {
			if err := g.eng.Ingest(fmt.Sprintf("idle-%04d", i), g.art.frame(idle, n)); err != nil {
				return err
			}
		}
	}
	g.eng.Flush()
	return nil
}

func (g *rig) startWire() error {
	var err error
	g.srv, err = ingest.NewServer(ingest.ServerConfig{
		Engine: g.eng,
		Lookup: func(id string) (*engine.Subscription, error) {
			if sub := g.subs[id]; sub != nil {
				return sub, nil
			}
			return nil, fmt.Errorf("unknown tenant %q", id)
		},
	})
	if err != nil {
		return err
	}
	if g.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	g.serveErr = make(chan error, 1)
	go func() { g.serveErr <- g.srv.Serve(g.ln) }()
	if g.pc.traced {
		g.ackRTT = aero.NewMetricsHistogram()
	}
	for _, tn := range g.tenants {
		tn.client, err = ingest.Dial(ingest.ClientConfig{
			Addr: g.ln.Addr().String(), Tenant: tn.id, Variates: variates, Latency: g.ackRTT,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// tap is the traced run's alarm consumer: it does what alerts.Attach
// does, between two stamps.
func (g *rig) tap(a engine.Alarm) {
	defer g.tapSeen.Add(1)
	t0 := now()
	incs := g.triage.Push(a)
	t1 := now()
	g.nIncs += int64(len(incs))
	i, ok := g.index[a.Sub]
	if !ok {
		return
	}
	if len(g.alarmRecs) < cap(g.alarmRecs) {
		g.alarmRecs = append(g.alarmRecs, alarmRec{tenant: int32(i), k: int32(int(a.Time) - warmCount), seen: t0, done: t1})
	}
	if tn := g.tenants[i]; tn.tapAlarms != nil && len(tn.tapAlarms) < cap(tn.tapAlarms) {
		tn.tapAlarms = append(tn.tapAlarms, a.Alarm)
	}
}

// tapIdle waits, after a Flush, until the bench-owned tap has consumed
// every alarm the engine emitted, so its records can be read.
func (g *rig) tapIdle() {
	for g.pc.traced && g.tapSeen.Load()+g.warmAlarms < g.eng.Totals().Alarms {
		time.Sleep(100 * time.Microsecond)
	}
}

// close stops everything a rig started and waits for it.
func (g *rig) close() { g.closeOnce.Do(g.shutdown) }

func (g *rig) shutdown() {
	for _, tn := range g.tenants {
		if tn.client != nil {
			tn.client.Close()
		}
	}
	if g.srv != nil {
		g.srv.Close()
	}
	if g.ln != nil {
		g.ln.Close()
		<-g.serveErr
	}
	if g.triage == nil {
		// Nothing consumes alarms yet (set-up failed early); Close needs
		// a consumer to drain what is queued.
		go func() {
			for range g.eng.Alarms() {
			}
		}()
	}
	g.eng.Close()
	// A closed engine keeps one goroutine reading Samples until the
	// producer closes it; until then the whole engine, tenants and all,
	// stays reachable and the next rig's heap_live_mb would count it.
	close(g.eng.Samples())
	<-g.errDone
	if g.incDone != nil {
		<-g.incDone
	}
}

// drive runs the measured phase: offer frames block by block until the
// time or block limit, then wait until every frame has a verdict. It
// returns the wall and CPU readings around the whole phase.
func (g *rig) drive() (start, end mark) {
	start = mark{wall: now(), cpu: cpuNanos()}
	if g.pc.blocks == 0 {
		g.deadline = start.wall + int64(g.pc.seconds*float64(time.Second))
	}
	g.marks = append(g.marks, start)
	if g.sp.loop == loopOpen {
		g.driveOpen(start.wall)
	} else {
		g.driveLanes()
	}
	for _, tn := range g.tenants {
		if tn.client != nil {
			if err := tn.client.Flush(); err != nil {
				g.sendErrs.Add(1)
			}
		}
	}
	g.eng.Flush()
	return start, mark{wall: now(), cpu: cpuNanos(), frames: g.sentTotal.Load()}
}

func (g *rig) blockDone(frames int64) (stop bool) {
	t := now()
	g.marks = append(g.marks, mark{wall: t, cpu: cpuNanos(), frames: frames})
	return g.deadline != 0 && t >= g.deadline
}

// send offers tenant tn its k-th measured frame, over its connection when
// it has one and through Engine.Ingest otherwise. The frame's latency
// counts from due, or from this instant when due is 0.
func (g *rig) send(tn *tenant, k int, due int64) {
	f := g.art.frame(tn.feed, warmCount+k)
	entered := now()
	if due == 0 {
		due = entered
	}
	tn.rec.start(k, due, entered)
	var err error
	if tn.client != nil {
		err = tn.client.Send(f)
	} else {
		err = g.eng.Ingest(tn.id, f)
	}
	if tn.rec.recs != nil {
		tn.rec.recs[k].genOut = now()
	}
	if err != nil {
		g.sendErrs.Add(1)
	}
	tn.sent = k + 1
}

// driveOpen: every tick all tenants emit one frame. Latency counts from
// the tick's due instant; the generator sleeps to it and its lateness is
// kept, so a late wake-up is charged to the frames it delayed.
func (g *rig) driveOpen(start int64) {
	bt := g.sp.blockPerTenant
	for k := 0; k < cap(g.late); k++ {
		due := start + int64(k+1)*int64(g.sp.tick)
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		g.late = append(g.late, now()-due)
		for _, tn := range g.tenants {
			g.send(tn, k, due)
		}
		if (k+1)%bt == 0 {
			g.sentTotal.Store(int64((k + 1) * len(g.tenants)))
			if g.blockDone(g.sentTotal.Load()) {
				return
			}
		}
	}
}

// driveLanes is the closed loop: one generator goroutine per lane, each
// round-robining over its lane's tenants and offering the next frame as
// soon as the last was taken. A lane is one loopback connection on the
// wire and one shard's tenants in process, so what holds a generator back
// is the system's own backpressure — the credit window, or Ingest parking
// on its shard's full queue — and every queue stays full: the frames in
// flight, and with them verdict latency, are set by the engine's queue
// geometry and not by the order generators happen to wake in. (A single
// generator parks on whichever shard fills first and leaves the others at
// whatever level they had; latency then wanders by a factor of two.)
//
// Generators publish progress in steps of about 16 frames; whoever
// crosses a block boundary takes the block's reading.
func (g *rig) driveLanes() {
	blockFrames := int64(g.sp.blockPerTenant * len(g.tenants))
	perTenant := g.pc.maxBlocks(g.sp) * g.sp.blockPerTenant
	var wg sync.WaitGroup
	var mu sync.Mutex // taken once per block, by the generator that closed it
	for _, lane := range g.lanes {
		wg.Add(1)
		go func(lane []*tenant) {
			defer wg.Done()
			var unpublished int64
			for k := 0; k < perTenant && !g.stop.Load(); k++ {
				for _, tn := range lane {
					g.send(tn, k, 0)
				}
				if unpublished += int64(len(lane)); unpublished < 16 && k+1 < perTenant {
					continue
				}
				n := g.sentTotal.Add(unpublished)
				if n/blockFrames != (n-unpublished)/blockFrames {
					mu.Lock()
					if g.blockDone(n) {
						g.stop.Store(true)
					}
					mu.Unlock()
				}
				unpublished = 0
			}
		}(lane)
	}
	wg.Wait()
	var total int64
	for _, tn := range g.tenants {
		total += int64(tn.sent)
	}
	g.sentTotal.Store(total)
}

// errNoBlocks is returned when a phase ended before one block completed.
var errNoBlocks = errors.New("measured phase completed no block")
