package ingest_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/ingest"
)

// rawConn is a hand-driven protocol client: it writes whatever bytes a
// test composes, credits or not, and reads the server's replies.
type rawConn struct {
	net.Conn
	br      *bufio.Reader
	m       ingest.Msg
	scratch []byte
}

// dialRaw connects and completes the tenant handshake.
func dialRaw(t *testing.T, addr, tenant string, variates int) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{Conn: c, br: bufio.NewReader(c)}
	hello, err := ingest.AppendMsg(nil, &ingest.Msg{Type: ingest.MsgHello, Tenant: tenant, Variates: variates})
	if err != nil {
		t.Fatal(err)
	}
	rc.write(t, hello)
	if m := rc.next(t); m.Type != ingest.MsgHelloAck {
		t.Fatalf("handshake reply %+v, want HelloAck", *m)
	}
	return rc
}

func (rc *rawConn) write(t *testing.T, b []byte) {
	t.Helper()
	if _, err := rc.Write(b); err != nil {
		t.Fatal(err)
	}
}

// next reads the server's next message.
func (rc *rawConn) next(t *testing.T) *ingest.Msg {
	t.Helper()
	rc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := ingest.ReadMsg(rc.br, &rc.m, &rc.scratch); err != nil {
		t.Fatalf("read server message: %v", err)
	}
	return &rc.m
}

// until reads past acks to the first message of type typ.
func (rc *rawConn) until(t *testing.T, typ byte) *ingest.Msg {
	t.Helper()
	for {
		m := rc.next(t)
		if m.Type == typ {
			return m
		}
		if m.Type != ingest.MsgAck {
			t.Fatalf("server sent %+v while the test waited for type 0x%02x", *m, typ)
		}
	}
}

// ackedTo reads acks until one covers upTo.
func (rc *rawConn) ackedTo(t *testing.T, upTo uint64) {
	t.Helper()
	for rc.until(t, ingest.MsgAck).UpTo < upTo {
	}
}

// dataFrames appends n encoded Data messages to dst: seqs from seq0, times
// from t0, width magnitudes each. edit, when non-nil, may alter message i
// before it is encoded.
func dataFrames(tb testing.TB, dst []byte, seq0 uint64, t0 float64, n, width int, edit func(i int, m *ingest.Msg)) []byte {
	tb.Helper()
	for i := 0; i < n; i++ {
		m := ingest.Msg{Type: ingest.MsgData, Seq: seq0 + uint64(i), Time: t0 + float64(i), Mags: make([]float64, width)}
		for v := range m.Mags {
			m.Mags[v] = float64(i*width + v)
		}
		if edit != nil {
			edit(i, &m)
		}
		var err error
		if dst, err = ingest.AppendMsg(dst, &m); err != nil {
			tb.Fatal(err)
		}
	}
	return dst
}

// checkTimes fails unless gb scored exactly the frames timed t0, t0+1, …,
// t0+n−1, in that order.
func checkTimes(t *testing.T, gb *gateBackend, t0, n int) {
	t.Helper()
	gb.mu.Lock()
	defer gb.mu.Unlock()
	if len(gb.times) != n {
		t.Fatalf("backend scored %d frames (%v), want %d", len(gb.times), gb.times, n)
	}
	for i, ts := range gb.times {
		if ts != float64(t0+i) {
			t.Fatalf("frame %d scored at time %v, want %d: reordered or duplicated", i, ts, t0+i)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBurstProtocolViolations pins what a violation inside one read burst
// costs. A raw client primes the connection with one acknowledged frame
// (so the server expects seq 2), then writes N frames in one Write with
// frame k broken: exactly the frames before k are scored, in order, the
// peer gets the violation's code, and the server counts one protocol
// error. Frames beyond the credit grant are not a violation: the server
// tops a grant up the moment it runs out and sends the top-up in that
// ack, so a client that outruns its acks is throttled by the blocking
// ingest, never refused — the last case pins that.
func TestBurstProtocolViolations(t *testing.T) {
	const n, width = 40, 3
	kinds := []struct {
		name string
		code uint16
		edit func(m *ingest.Msg)
	}{
		{"seq-gap", ingest.CodeOutOfOrder, func(m *ingest.Msg) { m.Seq++ }},
		{"width", ingest.CodeWidthMismatch, func(m *ingest.Msg) { m.Mags = append(m.Mags, 0) }},
	}
	for _, kind := range kinds {
		for _, k := range []int{0, 1, n / 2, n - 1} {
			t.Run(fmt.Sprintf("%s/k=%d", kind.name, k), func(t *testing.T) {
				r := startWireRig(t, width, n+1, nil)
				defer r.stop()
				rc := dialRaw(t, r.l.Addr().String(), "wire", width)
				defer rc.Close()
				rc.write(t, dataFrames(t, nil, 1, 0, 1, width, nil))
				rc.ackedTo(t, 1)
				rc.write(t, dataFrames(t, nil, 2, 1, n, width, func(i int, m *ingest.Msg) {
					if i == k {
						kind.edit(m)
					}
				}))
				if m := rc.until(t, ingest.MsgError); m.Code != kind.code {
					t.Fatalf("server error %+v, want code %d", *m, kind.code)
				}
				if pe := r.srv.Stats().ProtoErrors; pe != 1 {
					t.Fatalf("%d protocol errors counted, want 1", pe)
				}
				r.e.Flush()
				checkTimes(t, r.gb, 0, 1+k)
			})
		}
	}
	t.Run("beyond-grant", func(t *testing.T) {
		const beyond = 100 // past the default 64-frame window
		r := startWireRig(t, width, beyond+1, nil)
		defer r.stop()
		rc := dialRaw(t, r.l.Addr().String(), "wire", width)
		defer rc.Close()
		rc.write(t, dataFrames(t, nil, 1, 0, 1, width, nil))
		rc.ackedTo(t, 1)
		rc.write(t, dataFrames(t, nil, 2, 1, beyond, width, nil))
		rc.ackedTo(t, beyond+1)
		if pe := r.srv.Stats().ProtoErrors; pe != 0 {
			t.Fatalf("%d protocol errors counted, want 0", pe)
		}
		r.e.Flush()
		checkTimes(t, r.gb, 0, beyond+1)
	})
}

// TestBurstAcksOnce pins the read side's group commit: 40 frames that
// arrive in one Write are one burst — one engine hand-off — answered by
// one cumulative ack (two if the kernel splits the write across reads).
func TestBurstAcksOnce(t *testing.T) {
	const n, width = 40, 3
	r := startWireRig(t, width, n, nil)
	defer r.stop()
	rc := dialRaw(t, r.l.Addr().String(), "wire", width)
	defer rc.Close()
	rc.write(t, dataFrames(t, nil, 1, 0, n, width, nil))
	rc.ackedTo(t, n)
	if acks := r.srv.Stats().Acks; acks > 2 {
		t.Fatalf("server sent %d acks for one %d-frame write, want ≤ 2", acks, n)
	}
	r.e.Flush()
	checkTimes(t, r.gb, 0, n)
}

// TestDrainCutWaitsForParkedBurst lands a drain cut while a burst is
// parked on a full shard queue. The cut must wait for the whole burst, the
// drain notice's cutoff must be the last seq that entered the engine, and
// the suffix past it, resent to a successor, must be scored exactly once.
func TestDrainCutWaitsForParkedBurst(t *testing.T) {
	const n, width = 64, 2
	gate := make(chan struct{})
	a1, b := &gateBackend{n: width, gate: gate}, &gateBackend{n: width, gate: gate}
	e1 := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 2, BatchSize: 1})
	subA, err := e1.SubscribeBackend("a", a1)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := e1.SubscribeBackend("b", b)
	if err != nil {
		t.Fatal(err)
	}
	_, wg1 := collectAlarms(e1)
	srv1 := newTestServer(t, e1, map[string]*engine.Subscription{"a": subA, "b": subB}, ingest.ServerConfig{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serve1 := make(chan error, 1)
	go func() { serve1 <- srv1.Serve(l) }()
	rc := dialRaw(t, l.Addr().String(), "a", width) // granted 2: the empty queue's headroom

	// Wedge the shared shard: the worker parks inside b's first push and
	// b's second frame takes one of the two queue slots.
	frame := core.Frame{Magnitudes: make([]float64, width)}
	if err := subB.Ingest(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the worker to take b's first frame", func() bool { return e1.Totals().QueueDepth == 0 })
	frame.Time = 1
	if err := subB.Ingest(frame); err != nil {
		t.Fatal(err)
	}

	// One write of n frames: the first burst spends a's two credits, its
	// first frame takes the last slot and its second parks the burst.
	rc.write(t, dataFrames(t, nil, 1, 0, n, width, nil))
	waitFor(t, "a's first frame to fill the queue", func() bool { return e1.Totals().QueueDepth == 2 })
	drained := make(chan error, 1)
	go func() { drained <- srv1.Drain() }()
	waitFor(t, "the drain to start", srv1.Draining)
	time.Sleep(20 * time.Millisecond) // the cut queues up behind the parked burst
	close(gate)

	cutoff := rc.until(t, ingest.MsgDrain).UpTo
	rc.Close()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if err := <-serve1; err != nil {
		t.Fatal(err)
	}
	if cutoff < 2 || cutoff > n {
		t.Fatalf("cutoff %d: the cut split the parked two-frame burst", cutoff)
	}
	checkTimes(t, a1, 0, int(cutoff))
	e1.Close()
	wg1.Wait()

	// Successor on the same listener: the suffix is resent and scored once.
	a2 := &gateBackend{n: width}
	e2 := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 16, BatchSize: 4})
	subA2, err := e2.SubscribeBackend("a", a2)
	if err != nil {
		t.Fatal(err)
	}
	_, wg2 := collectAlarms(e2)
	srv2 := newTestServer(t, e2, map[string]*engine.Subscription{"a": subA2}, ingest.ServerConfig{})
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve(l) }()
	rc2 := dialRaw(t, l.Addr().String(), "a", width)
	if cutoff < n {
		rc2.write(t, dataFrames(t, nil, cutoff+1, float64(cutoff), n-int(cutoff), width, nil))
		rc2.ackedTo(t, n)
	}
	rc2.Close()
	e2.Flush()
	checkTimes(t, a2, int(cutoff), n-int(cutoff))
	srv2.Close()
	<-serve2
	e2.Close()
	wg2.Wait()
}

// recBackend records every scored frame's time and magnitude bits.
type recBackend struct {
	gateBackend
	bits []uint64
}

func (r *recBackend) PushScores(f core.Frame) ([]float64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bits = append(r.bits, math.Float64bits(f.Time))
	for _, x := range f.Magnitudes {
		r.bits = append(r.bits, math.Float64bits(x))
	}
	return nil, nil
}

func (r *recBackend) Push(f core.Frame) ([]core.Alarm, error) {
	_, err := r.PushScores(f)
	return nil, err
}

// scriptConn is the server's side of a scripted connection: reads return
// the script in the given chunk sizes (byte b is a b+1-byte read; none
// means one read), then io.EOF; writes are kept for inspection.
type scriptConn struct {
	in     []byte
	chunks []byte
	next   int

	mu     sync.Mutex
	out    []byte
	once   sync.Once
	closed chan struct{}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := len(c.in)
	if len(c.chunks) > 0 {
		n = min(n, int(c.chunks[c.next%len(c.chunks)])+1)
		c.next++
	}
	n = copy(p, c.in[:n])
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.out = append(c.out, p...)
	return len(p), nil
}

func (c *scriptConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *scriptConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// oneConnListener accepts one connection, then blocks until closed.
type oneConnListener struct {
	conns chan net.Conn
	once  sync.Once
	done  chan struct{}
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return &net.TCPAddr{} }

// burstEnd is how a connection ended: the terminal message the server
// sent (MsgError with its code, MsgByeAck with its watermark), or type 0
// when it closed without one.
type burstEnd struct {
	typ  byte
	code uint16
	upTo uint64
}

const fuzzWidth = 2

// referenceBurst replays the data-frame rules one ReadMsg at a time: the
// frames that enter the engine (time and magnitude bits), their seqs, and
// how the connection ends. Credit never ends it: the server tops a grant
// up the moment it runs out.
func referenceBurst(stream []byte) (bits, seqs []uint64, end burstEnd) {
	br := bufio.NewReader(bytes.NewReader(stream))
	var m ingest.Msg
	var scratch []byte
	var expected, ingested uint64
	for {
		if err := ingest.ReadMsg(br, &m, &scratch); err != nil {
			return bits, seqs, burstEnd{}
		}
		switch m.Type {
		case ingest.MsgData:
			if expected != 0 && m.Seq != expected {
				return bits, seqs, burstEnd{typ: ingest.MsgError, code: ingest.CodeOutOfOrder}
			}
			if len(m.Mags) != fuzzWidth {
				return bits, seqs, burstEnd{typ: ingest.MsgError, code: ingest.CodeWidthMismatch}
			}
			bits = append(bits, math.Float64bits(m.Time))
			for _, x := range m.Mags {
				bits = append(bits, math.Float64bits(x))
			}
			seqs = append(seqs, m.Seq)
			expected, ingested = m.Seq+1, m.Seq
		case ingest.MsgBye:
			return bits, seqs, burstEnd{typ: ingest.MsgByeAck, upTo: ingested}
		default:
			return bits, seqs, burstEnd{typ: ingest.MsgError, code: ingest.CodeBadHandshake}
		}
	}
}

// serveScript runs one server connection over the handshake plus stream,
// read in the given chunks, and returns what the engine scored, what the
// server wrote and its final counters.
func serveScript(t *testing.T, stream, chunks []byte, window int) ([]uint64, []byte, ingest.ServerStats) {
	t.Helper()
	rb := &recBackend{gateBackend: gateBackend{n: fuzzWidth}}
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 4, BatchSize: 2})
	defer func() {
		close(e.Samples()) // ends the engine's last goroutine: one per exec adds up
		e.Close()
	}()
	sub, err := e.SubscribeBackend("fuzz", rb)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ingest.NewServer(ingest.ServerConfig{
		Engine:       e,
		Lookup:       func(string) (*engine.Subscription, error) { return sub, nil },
		CreditWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	hello, err := ingest.AppendMsg(nil, &ingest.Msg{Type: ingest.MsgHello, Tenant: "fuzz", Variates: fuzzWidth})
	if err != nil {
		t.Fatal(err)
	}
	conn := &scriptConn{in: append(hello, stream...), chunks: chunks, closed: make(chan struct{})}
	l := &oneConnListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	l.conns <- conn
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	select {
	case <-conn.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("connection never finished its script")
	}
	st := srv.Stats()
	srv.Close()
	l.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	e.Flush()
	rb.mu.Lock()
	defer rb.mu.Unlock()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return rb.bits, conn.out, st
}

// FuzzServerBurst holds the burst reader to the frame-at-a-time protocol:
// any byte stream after a handshake, read in any chunks under any credit
// window, must put the same frames into the engine, in order, and end the
// connection the same way as decoding it with ReadMsg one message at a
// time; every ack must be cumulative and name an ingested frame.
func FuzzServerBurst(f *testing.F) {
	frames := func(n int, edit func(i int, m *ingest.Msg)) []byte {
		return dataFrames(f, nil, 1, 0, n, fuzzWidth, edit)
	}
	bye, err := ingest.AppendMsg(nil, &ingest.Msg{Type: ingest.MsgBye, UpTo: 6})
	if err != nil {
		f.Fatal(err)
	}
	hello, err := ingest.AppendMsg(nil, &ingest.Msg{Type: ingest.MsgHello, Tenant: "x", Variates: fuzzWidth})
	if err != nil {
		f.Fatal(err)
	}
	corrupt := frames(1, nil)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(frames(10, nil), []byte(nil), uint8(0))
	f.Add(frames(10, nil), []byte{0, 5, 60, 3}, uint8(3))
	f.Add(frames(10, func(i int, m *ingest.Msg) {
		if i == 5 {
			m.Seq += 2
		}
	}), []byte{200}, uint8(63))
	f.Add(frames(10, func(i int, m *ingest.Msg) {
		if i == 7 {
			m.Mags = m.Mags[:1]
		}
	}), []byte{255}, uint8(1))
	f.Add(append(frames(6, nil), bye...), []byte{90, 7}, uint8(4))
	f.Add(append(append(frames(4, nil), corrupt...), frames(2, nil)...), []byte{255}, uint8(8))
	f.Add(frames(5, nil)[:140], []byte{30}, uint8(2))
	f.Add(append(append(frames(3, nil), hello...), frames(3, nil)...), []byte{255}, uint8(5))
	f.Add(frames(3, func(i int, m *ingest.Msg) { m.Seq = math.MaxUint64 + uint64(i)*6 }), []byte(nil), uint8(0))
	f.Fuzz(func(t *testing.T, stream, chunks []byte, window uint8) {
		if len(stream) > 1<<16 {
			return
		}
		wantBits, seqs, wantEnd := referenceBurst(stream)
		gotBits, out, st := serveScript(t, stream, chunks, int(window%16)+1)
		if !slices.Equal(gotBits, wantBits) {
			t.Fatalf("engine scored %d words %v, frame-at-a-time reference %d words %v", len(gotBits), gotBits, len(wantBits), wantBits)
		}
		if st.Frames != uint64(len(seqs)) {
			t.Fatalf("server counted %d frames, reference ingests %d", st.Frames, len(seqs))
		}
		wantPE := uint64(1)
		if wantEnd.typ == ingest.MsgByeAck {
			wantPE = 0
		}
		if st.ProtoErrors != wantPE {
			t.Fatalf("%d protocol errors for end %+v, want %d", st.ProtoErrors, wantEnd, wantPE)
		}
		br := bufio.NewReader(bytes.NewReader(out))
		var m ingest.Msg
		var scratch []byte
		if err := ingest.ReadMsg(br, &m, &scratch); err != nil || m.Type != ingest.MsgHelloAck {
			t.Fatalf("handshake reply %+v, err %v", m, err)
		}
		var gotEnd burstEnd
		acked := 0 // seqs[:acked] are below the latest ack
		for ingest.ReadMsg(br, &m, &scratch) == nil {
			if gotEnd.typ != 0 {
				t.Fatalf("server wrote %+v after its terminal message %+v", m, gotEnd)
			}
			switch m.Type {
			case ingest.MsgAck:
				// Cumulative in ingest order (seqs may wrap): the ack names
				// the ingested frame it releases up to, at or after the last.
				for acked < len(seqs) && seqs[acked] != m.UpTo {
					acked++
				}
				if acked == len(seqs) {
					t.Fatalf("ack up to %d names no ingested frame at or after the previous ack; ingested seqs %v", m.UpTo, seqs)
				}
			case ingest.MsgError:
				gotEnd = burstEnd{typ: m.Type, code: m.Code}
			case ingest.MsgByeAck:
				gotEnd = burstEnd{typ: m.Type, upTo: m.UpTo}
			default:
				t.Fatalf("unexpected server message %+v", m)
			}
		}
		if gotEnd != wantEnd {
			t.Fatalf("connection ended %+v, frame-at-a-time reference %+v", gotEnd, wantEnd)
		}
	})
}
