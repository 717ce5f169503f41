package ingest_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/ingest"
	"aero/internal/metrics"
)

// wireRig is a no-op-backend engine behind a live server on loopback: the
// write path with nothing but transport and engine cost in it.
type wireRig struct {
	gb   *gateBackend
	e    *engine.Engine
	srv  *ingest.Server
	l    net.Listener
	done chan error
}

// startWireRig serves one tenant, "wire", with default server settings
// (credit window 64, one ack per read burst). wrap, when non-nil, decorates the
// listener before the server sees it.
func startWireRig(t testing.TB, variates, capFrames int, wrap func(net.Listener) net.Listener) *wireRig {
	t.Helper()
	r := &wireRig{gb: &gateBackend{n: variates, times: make([]float64, 0, capFrames)}, done: make(chan error, 1)}
	r.e = engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 256, BatchSize: 32})
	sub, err := r.e.SubscribeBackend("wire", r.gb)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range r.e.Alarms() {
		}
	}()
	r.srv, err = ingest.NewServer(ingest.ServerConfig{
		Engine: r.e,
		Lookup: func(string) (*engine.Subscription, error) { return sub, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	served := r.l
	if wrap != nil {
		served = wrap(r.l)
	}
	go func() { r.done <- r.srv.Serve(served) }()
	return r
}

func (r *wireRig) dial(t testing.TB, cfg ingest.ClientConfig) *ingest.Client {
	t.Helper()
	cfg.Addr, cfg.Tenant, cfg.Variates = r.l.Addr().String(), "wire", r.gb.n
	c, err := ingest.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (r *wireRig) stop() {
	r.srv.Close()
	r.e.Close()
	r.l.Close()
	<-r.done
}

func (r *wireRig) scored() int {
	r.gb.mu.Lock()
	defer r.gb.mu.Unlock()
	return r.gb.frames
}

// TestLoneFrameIsNotStranded is the first property a group commit without
// a timer must keep: one Send with nothing behind it — no second frame,
// no Flush — still reaches the wire, is scored and is acknowledged,
// whether the window holds one frame or many.
func TestLoneFrameIsNotStranded(t *testing.T) {
	for _, window := range []int{1, 256} {
		r := startWireRig(t, 3, 1, nil)
		c := r.dial(t, ingest.ClientConfig{Window: window})
		if err := c.Send(core.Frame{Time: 1, Magnitudes: make([]float64, 3)}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Second)
		for c.Pending() > 0 || r.scored() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("window %d: lone frame stranded: %d pending, %d scored, stats %+v",
					window, c.Pending(), r.scored(), c.Stats())
			}
			time.Sleep(100 * time.Microsecond)
		}
		if st := c.Stats(); st.Acked != 1 || st.Writes != 1 {
			t.Fatalf("window %d: stats %+v, want 1 acked in 1 write", window, st)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		r.stop()
	}
}

// countingListener counts the Write calls the server makes on the
// connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, writes: l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestSendCoalesces is the second property: a sender that never pauses
// pays one write for many frames and the server one ack for many frames,
// and batching loses, repeats and reorders nothing.
func TestSendCoalesces(t *testing.T) {
	const nFrames = 20000
	var serverWrites atomic.Int64
	r := startWireRig(t, 3, nFrames, func(l net.Listener) net.Listener {
		return countingListener{Listener: l, writes: &serverWrites}
	})
	defer r.stop()
	rtt := metrics.NewHistogram()
	c := r.dial(t, ingest.ClientConfig{Latency: rtt})
	frame := core.Frame{Magnitudes: make([]float64, 3)}
	for i := 0; i < nFrames; i++ {
		frame.Time = float64(i)
		if err := c.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Sent != nFrames || st.Acked != nFrames || st.Resent != 0 {
		t.Fatalf("client stats %+v, want %d sent and acked, 0 resent", st, nFrames)
	}
	// Every frame released by exactly one ack: the latency histogram takes
	// one sample per release.
	if n := rtt.Snapshot().Count; n != nFrames {
		t.Fatalf("%d frames released by acks, want %d", n, nFrames)
	}
	t.Logf("%d frames: %d client writes, %d acks, %d server writes", nFrames, st.Writes, r.srv.Stats().Acks, serverWrites.Load())
	if st.Writes > nFrames/8 {
		t.Fatalf("client made %d writes for %d frames, want ≤ %d", st.Writes, nFrames, nFrames/8)
	}
	if acks := r.srv.Stats().Acks; acks > nFrames/8 {
		t.Fatalf("server sent %d acks for %d frames, want ≤ %d", acks, nFrames, nFrames/8)
	}
	// HelloAck and ByeAck ride on top of the acks.
	if w := serverWrites.Load(); w > nFrames/8+2 {
		t.Fatalf("server made %d writes for %d frames, want ≤ %d", w, nFrames, nFrames/8+2)
	}
	r.e.Flush()
	r.gb.mu.Lock()
	defer r.gb.mu.Unlock()
	if r.gb.frames != nFrames {
		t.Fatalf("backend scored %d frames, want %d", r.gb.frames, nFrames)
	}
	for i, ts := range r.gb.times {
		if ts != float64(i) {
			t.Fatalf("frame %d scored at time %v: reordered", i, ts)
		}
	}
}

// TestIngestSteadyStateAllocs pins the warm wire path — client encode,
// writer, server decode, engine ingest, worker push, ack, client release,
// all in this process — at zero allocations per frame.
func TestIngestSteadyStateAllocs(t *testing.T) {
	const burst, runs = 1000, 10
	r := startWireRig(t, 5, burst*(runs+2), nil)
	defer r.stop()
	c := r.dial(t, ingest.ClientConfig{})
	frame := core.Frame{Magnitudes: make([]float64, 5)}
	next := 0
	sendBurst := func() {
		for i := 0; i < burst; i++ {
			frame.Time = float64(next)
			next++
			if err := c.Send(frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	sendBurst() // every ring slot, queue buffer and scratch slice reaches its size
	// AllocsPerRun counts every goroutine's mallocs and divides by runs as
	// integers: 0 means fewer than 10 allocations in 10⁴ frames.
	if avg := testing.AllocsPerRun(runs, sendBurst); avg != 0 {
		t.Fatalf("%v allocations per %d-frame burst, want 0", avg, burst)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
