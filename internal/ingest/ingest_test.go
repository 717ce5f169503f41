package ingest_test

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"aero/internal/backend"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
	"aero/internal/ingest"
)

// fixture shares one cheap fluxev artifact and dataset across the
// network tests: training is deterministic, so every backend opened
// from the artifact is an exact clone — the precondition for the
// bit-identity contracts below.
var (
	fixOnce sync.Once
	fixD    *dataset.Dataset
	fixArt  []byte
	fixErr  error
)

func fixture(t *testing.T) (*dataset.Dataset, []byte) {
	t.Helper()
	fixOnce.Do(func() {
		fixD = dataset.SyntheticConfig{
			Name: "ingest", N: 5, TrainLen: 300, TestLen: 240,
			NoiseVariates: 3, AnomalySegments: 1, NoisePct: 3,
			VariableFrac: 0.5, Seed: 17,
		}.Generate()
		fixArt, fixErr = backend.Train("fluxev", fixD.Train, backend.SmallOptions())
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixD, fixArt
}

func openFixtureBackend(t *testing.T) core.StreamBackend {
	t.Helper()
	_, art := fixture(t)
	b, err := backend.Open("fluxev", art)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func collectAlarms(e *engine.Engine) (map[string][]core.Alarm, *sync.WaitGroup) {
	got := map[string][]core.Alarm{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := range e.Alarms() {
			got[a.Sub] = append(got[a.Sub], a.Alarm)
		}
	}()
	return got, &wg
}

// newTestEngine subscribes one fixture-backend tenant per id.
func newTestEngine(t *testing.T, ids ...string) (*engine.Engine, map[string]*engine.Subscription) {
	t.Helper()
	e := engine.New(engine.Config{Shards: 2, Workers: 2, QueueDepth: 16, BatchSize: 4})
	subs := make(map[string]*engine.Subscription, len(ids))
	for _, id := range ids {
		sub, err := e.SubscribeBackend(id, openFixtureBackend(t))
		if err != nil {
			t.Fatal(err)
		}
		subs[id] = sub
	}
	return e, subs
}

func newTestServer(t *testing.T, e *engine.Engine, subs map[string]*engine.Subscription, cfg ingest.ServerConfig) *ingest.Server {
	t.Helper()
	cfg.Engine = e
	cfg.Lookup = func(tenant string) (*engine.Subscription, error) {
		return subs[tenant], nil
	}
	srv, err := ingest.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// replayDirect feeds the fixture's test split into a sequential twin
// backend and returns the reference alarm sequence.
func replayDirect(t *testing.T, nFrames int) []core.Alarm {
	t.Helper()
	d, _ := fixture(t)
	ref := openFixtureBackend(t)
	var want []core.Alarm
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < nFrames; ti++ {
		frame.Time = d.Test.Time[ti]
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		alarms, err := ref.Push(frame)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, alarms...)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no alarms; identity tests are vacuous")
	}
	return want
}

func compareAlarms(t *testing.T, got, want []core.Alarm, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d alarms, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: alarm %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestSocketBitIdentity is the golden contract of the network front
// door: frames streamed over a real TCP socket — through the handshake,
// CRC framing, credit flow control and batched acks — must produce an
// alarm sequence bit-identical to pushing the same frames into a twin
// backend directly.
func TestSocketBitIdentity(t *testing.T) {
	d, _ := fixture(t)
	nFrames := d.Test.Len()
	want := replayDirect(t, nFrames)

	e, subs := newTestEngine(t, "field-000")
	got, wg := collectAlarms(e)
	srv := newTestServer(t, e, subs, ingest.ServerConfig{CreditWindow: 8})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	c, err := ingest.Dial(ingest.ClientConfig{
		Addr: l.Addr().String(), Tenant: "field-000", Variates: d.Test.N(), Window: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := ingest.FrameSource{Time: d.Test.Time, Data: d.Test.Data}
	if n, ferr := src.Feed(c.Send); ferr != nil || n != nFrames {
		t.Fatalf("feed: %d frames, err %v", n, ferr)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := c.Stats()
	if st.Sent != uint64(nFrames) || st.Acked != uint64(nFrames) || st.Resent != 0 {
		t.Fatalf("client stats %+v, want %d sent and acked, 0 resent", st, nFrames)
	}

	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Frames; got != uint64(nFrames) {
		t.Fatalf("server ingested %d frames, want %d", got, nFrames)
	}
	e.Close()
	wg.Wait()
	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
	compareAlarms(t, got["field-000"], want, "socket path")
}

// TestDrainRestartBitIdentity is the zero-downtime restart contract: a
// drain mid-stream (flush, checkpoint through the snapshot blobs, drain
// notice, listener handoff to a successor server) must be invisible in
// the alarm sequence — the client reconnects, resends exactly its
// unacknowledged suffix, and the union of both servers' alarms is
// bit-identical to an uninterrupted replay, with zero dropped or
// reordered frames.
func TestDrainRestartBitIdentity(t *testing.T) {
	d, _ := fixture(t)
	nFrames := d.Test.Len()
	want := replayDirect(t, nFrames)

	// Shared listener: the in-process stand-in for the inherited fd.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// checkpoint blobs play the registry's role across the "restart".
	blobs := map[string][]byte{}
	var blobMu sync.Mutex

	e1, subs1 := newTestEngine(t, "field-000")
	got1, wg1 := collectAlarms(e1)
	srv1 := newTestServer(t, e1, subs1, ingest.ServerConfig{
		CreditWindow: 8,
		Checkpoint: func() error {
			blobMu.Lock()
			defer blobMu.Unlock()
			for id, sub := range subs1 {
				blob, serr := sub.SnapshotState()
				if serr != nil {
					return serr
				}
				blobs[id] = blob
			}
			return nil
		},
	})
	serve1 := make(chan error, 1)
	go func() { serve1 <- srv1.Serve(l) }()

	c, err := ingest.Dial(ingest.ClientConfig{
		Addr: l.Addr().String(), Tenant: "field-000", Variates: d.Test.N(),
		Window: 8, RedialDelay: 5 * time.Millisecond, RedialAttempts: 200,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	send := func(ti int) {
		t.Helper()
		frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
		frame.Time = d.Test.Time[ti]
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		if serr := c.Send(frame); serr != nil {
			t.Fatalf("send frame %d: %v", ti, serr)
		}
	}

	// First half, then drain with the tail possibly still in flight
	// (sent but unread server-side): those frames are cut, set aside and
	// resent to the successor — the exactly-once boundary under test.
	half := nFrames / 2
	for ti := 0; ti < half; ti++ {
		send(ti)
	}
	if err := srv1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serve1; err != nil {
		t.Fatalf("serve1: %v", err)
	}
	e1.Close()
	wg1.Wait()

	// Successor: fresh engine, warm states restored from the checkpoint
	// blobs, same listener — the client's redial loop finds it.
	e2, subs2 := newTestEngine(t, "field-000")
	blobMu.Lock()
	for id, blob := range blobs {
		if rerr := subs2[id].RestoreState(blob); rerr != nil {
			t.Fatalf("restore %s: %v", id, rerr)
		}
	}
	blobMu.Unlock()
	got2, wg2 := collectAlarms(e2)
	srv2 := newTestServer(t, e2, subs2, ingest.ServerConfig{CreditWindow: 8})
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve(l) }()

	// Second half: the first Send parks until the client's redial loop
	// reaches the successor and retransmits the unacknowledged suffix.
	for ti := half; ti < nFrames; ti++ {
		send(ti)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := c.Stats()
	if st.Drains < 1 || st.Reconnects < 1 {
		t.Fatalf("client stats %+v, want at least one drain notice and reconnect", st)
	}
	if st.Sent != uint64(nFrames) || st.Acked != uint64(nFrames) {
		t.Fatalf("client stats %+v, want %d sent and acked", st, nFrames)
	}

	if err := srv2.Drain(); err != nil {
		t.Fatal(err)
	}
	e2.Close()
	wg2.Wait()
	if err := <-serve2; err != nil {
		t.Fatalf("serve2: %v", err)
	}

	// Exactly-once across the boundary: the two servers' frame counts
	// partition the feed, and the concatenated alarms match the
	// uninterrupted reference bit for bit.
	f1, f2 := srv1.Stats().Frames, srv2.Stats().Frames
	if f1+f2 != uint64(nFrames) {
		t.Fatalf("servers scored %d + %d frames, want exactly %d", f1, f2, nFrames)
	}
	if f1 == 0 || f2 == 0 {
		t.Fatalf("drain split %d/%d: boundary not exercised", f1, f2)
	}
	all := append(append([]core.Alarm(nil), got1["field-000"]...), got2["field-000"]...)
	compareAlarms(t, all, want, "drain/restart path")
}

// gateBackend is a minimal StreamBackend whose pushes park until its
// gate opens — the controllable stall behind the backpressure test. A
// nil gate never blocks (benchmark mode).
type gateBackend struct {
	n      int
	gate   chan struct{}
	mu     sync.Mutex
	times  []float64
	frames int
}

func (g *gateBackend) Kind() string       { return "gate" }
func (g *gateBackend) Variates() int      { return g.n }
func (g *gateBackend) Ready() bool        { return true }
func (g *gateBackend) Threshold() float64 { return math.Inf(1) }
func (g *gateBackend) LastTime() (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.times) == 0 {
		return 0, false
	}
	return g.times[len(g.times)-1], true
}
func (g *gateBackend) PushScores(f core.Frame) ([]float64, error) {
	if g.gate != nil {
		<-g.gate
	}
	g.mu.Lock()
	g.times = append(g.times, f.Time)
	g.frames++
	g.mu.Unlock()
	return nil, nil
}
func (g *gateBackend) Push(f core.Frame) ([]core.Alarm, error) {
	_, err := g.PushScores(f)
	return nil, err
}
func (g *gateBackend) SwapArtifact([]byte) error      { return nil }
func (g *gateBackend) SnapshotState() ([]byte, error) { return []byte{1}, nil }
func (g *gateBackend) RestoreState([]byte) error      { return nil }

// TestBackpressureCreditExhaustion pins the flow-control contract: a
// stalled shard exhausts the connection's credits, the client's Send
// observably parks (BlockedWaits), the server's memory stays bounded
// (pending ≤ client window, shard queue at its configured depth), and
// once the stall clears every frame is scored exactly once, in order.
func TestBackpressureCreditExhaustion(t *testing.T) {
	const nFrames = 60
	gate := make(chan struct{})
	gb := &gateBackend{n: 2, gate: gate}
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 2, BatchSize: 1})
	sub, err := e.SubscribeBackend("gate", gb)
	if err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	subs := map[string]*engine.Subscription{"gate": sub}
	srv := newTestServer(t, e, subs, ingest.ServerConfig{CreditWindow: 4})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	c, err := ingest.Dial(ingest.ClientConfig{
		Addr: l.Addr().String(), Tenant: "gate", Variates: 2, Window: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	feedDone := make(chan error, 1)
	go func() {
		frame := core.Frame{Magnitudes: make([]float64, 2)}
		for i := 0; i < nFrames; i++ {
			frame.Time = float64(i)
			if serr := c.Send(frame); serr != nil {
				feedDone <- serr
				return
			}
		}
		feedDone <- nil
	}()

	// With the gate shut the pipeline wedges: worker parked in Push,
	// shard queue full, the conn goroutine parked in Ingest, credits
	// exhausted, and finally the client parked in Send. Wait for that
	// fixed point to be observable end to end.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Stats()
		qd := e.Totals().QueueDepth
		if st.BlockedWaits >= 1 && qd >= 2 && st.Sent < nFrames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stall never propagated to the client: stats %+v, queue depth %d", st, qd)
		}
		time.Sleep(time.Millisecond)
	}
	// Bounded memory: the client holds at most its window of frames and
	// everything else is still application-side, not buffered in the
	// server.
	if p := c.Pending(); p > 6 {
		t.Fatalf("client pending %d frames, want ≤ window 6", p)
	}

	// Open the gate: the stall clears and every frame must land, in
	// order, exactly once.
	close(gate)
	if ferr := <-feedDone; ferr != nil {
		t.Fatalf("send: %v", ferr)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	e.Flush()
	gb.mu.Lock()
	frames, times := gb.frames, append([]float64(nil), gb.times...)
	gb.mu.Unlock()
	if frames != nFrames {
		t.Fatalf("backend scored %d frames, want %d (lossless backpressure)", frames, nFrames)
	}
	for i := range times {
		if times[i] != float64(i) {
			t.Fatalf("frame %d scored at time %v: reordered", i, times[i])
		}
	}
	if st := c.Stats(); st.BlockedWaits == 0 {
		t.Fatalf("client never blocked: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	e.Close()
	wg.Wait()
	l.Close()
	<-serveDone
}

// TestServerRefusesUnknownTenant covers the handshake's error path end to
// end: an unknown tenant is refused, and the server's stats count the
// violation. Data-frame violations are TestBurstProtocolViolations's.
func TestServerRefusesUnknownTenant(t *testing.T) {
	d, _ := fixture(t)
	e, subs := newTestEngine(t, "field-000")
	_, wg := collectAlarms(e)
	srv := newTestServer(t, e, subs, ingest.ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	if _, derr := ingest.Dial(ingest.ClientConfig{
		Addr: l.Addr().String(), Tenant: "nobody", Variates: d.Test.N(),
	}); derr == nil {
		t.Fatal("handshake for unknown tenant succeeded")
	}
	if st := srv.Stats(); st.ProtoErrors == 0 {
		t.Fatalf("protocol violation not counted: %+v", st)
	}
	srv.Close()
	e.Close()
	wg.Wait()
	l.Close()
	<-serveDone
}

// TestFrameSourceUnpaceableRate feeds at rates whose period rounds to zero
// nanoseconds: no ticker can pace them, so the feed runs unpaced and emits
// every frame instead of panicking.
func TestFrameSourceUnpaceableRate(t *testing.T) {
	src := ingest.FrameSource{Time: []float64{1, 2, 3, 4}, Data: [][]float64{{5, 6, 7, 8}}}
	for _, rate := range []float64{2e9, math.Inf(1)} {
		src.Rate = rate
		var got []float64
		n, err := src.Feed(func(f core.Frame) error {
			got = append(got, f.Time)
			return nil
		})
		if err != nil || n != len(src.Time) || len(got) != len(src.Time) {
			t.Fatalf("rate %v: fed %d frames (%d emitted), err %v; want all %d", rate, n, len(got), err, len(src.Time))
		}
	}
}
