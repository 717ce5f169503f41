package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/metrics"
)

// Protocol error codes carried by MsgError.
const (
	CodeUnknownTenant  uint16 = 1
	CodeBadHandshake   uint16 = 2
	CodeWidthMismatch  uint16 = 3
	CodeOutOfOrder     uint16 = 4
	CodeCreditExceeded uint16 = 5
	CodeDraining       uint16 = 6
	CodeIngest         uint16 = 7
)

// ErrDraining is returned to work arriving while the server drains.
var ErrDraining = errors.New("ingest: server draining")

// ServerConfig wires a Server to its engine and drain hooks.
type ServerConfig struct {
	// Engine scores every accepted frame; its Flush is the drain barrier.
	Engine *engine.Engine
	// Lookup resolves a handshake tenant id to its subscription. Required.
	Lookup func(tenant string) (*engine.Subscription, error)
	// CreditWindow caps one connection's outstanding (granted but
	// unacknowledged) frames; it also bounds the client's resend buffer
	// and the connection's read-burst staging. Defaults to 64.
	CreditWindow int
	// Checkpoint runs during Drain after every in-flight frame has been
	// scored and before clients are told which prefix is safe to drop —
	// the hook that persists warm detector + triage state. Optional.
	Checkpoint func() error
	// Metrics, when non-nil, registers the front end's counters and
	// conn-loop stage histograms (read wait, engine wait, frame
	// round-trip) and enables GET /metrics (Prometheus text) and
	// GET /trace/{tenant} (flight-recorder JSON) on Handler(). Optional;
	// nil disables all of it at the cost of one nil-check per frame.
	Metrics *metrics.Registry
	// EnablePprof mounts net/http/pprof's profiling endpoints under
	// /debug/pprof/ on the HTTP mux, so a serving process can be profiled
	// in place (CPU, heap, goroutines) without a restart. Off by default:
	// the endpoints expose internals and belong behind the operator's
	// network boundary, not on a public ingest port.
	EnablePprof bool
	// Logf receives serve-loop diagnostics. Optional.
	Logf func(format string, args ...any)
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.CreditWindow <= 0 {
		c.CreditWindow = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ServerStats is a point-in-time snapshot of the ingest front end.
type ServerStats struct {
	// Conns is the number of live protocol connections.
	Conns int `json:"conns"`
	// Accepted counts connections accepted over the server's lifetime.
	Accepted uint64 `json:"accepted"`
	// Frames counts data frames ingested into the engine.
	Frames uint64 `json:"frames"`
	// HTTPFrames counts frames accepted through the JSON-lines endpoint.
	HTTPFrames uint64 `json:"http_frames"`
	// Acks counts cumulative-ack messages sent.
	Acks uint64 `json:"acks"`
	// Discarded counts in-flight frames set aside during a drain; the
	// drain notice makes their clients resend them after reconnecting.
	Discarded uint64 `json:"discarded"`
	// ProtoErrors counts connections terminated for protocol violations.
	ProtoErrors uint64 `json:"proto_errors"`
	// Draining reports whether a drain is in progress or complete.
	Draining bool `json:"draining"`
}

// Server terminates the binary frame protocol in front of an engine.
// Run it with Serve, stop it losslessly with Drain (checkpoint + client
// handoff) or abruptly with Close.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	conns    map[*serverConn]struct{}
	listener net.Listener
	serving  bool

	draining atomic.Bool
	closed   atomic.Bool
	connWG   sync.WaitGroup
	// httpMu is held shared by each /ingest line from its drain check to
	// its engine hand-off; Drain takes it exclusively once the flag is up,
	// so no line accepted after that can miss the flush and checkpoint.
	httpMu sync.RWMutex

	accepted    atomic.Uint64
	frames      atomic.Uint64
	httpFrames  atomic.Uint64
	acks        atomic.Uint64
	discarded   atomic.Uint64
	protoErrors atomic.Uint64

	obs *serverObs
}

// serverObs holds the ingest hot-path instruments. A nil *serverObs is
// inert; when non-nil, every field is non-nil too, so the conn loop pays
// one nil-check per read burst when metrics are off.
type serverObs struct {
	// readWait: time parked in ReadMsg before a burst's first data frame —
	// how starved the server is for input (large = client or network is
	// the bottleneck).
	readWait *metrics.Histogram
	// engineWait: time parked in the burst's blocking IngestBatch —
	// protocol backpressure (large = a shard queue is full and credits are
	// choked).
	engineWait *metrics.Histogram
	// frame: first frame decoded → burst ingested + ack decided, the
	// server-side round-trip for one read burst.
	frame *metrics.Histogram
}

// newServerObs registers the ingest series. Scrape-time counters read the
// atomics the hot path already maintains, so exposition adds no per-frame
// cost.
func (s *Server) newServerObs(reg *metrics.Registry) *serverObs {
	uf := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	reg.CounterFunc("aero_ingest_accepted_total", "Protocol connections accepted.", uf(&s.accepted))
	reg.CounterFunc("aero_ingest_frames_total", "Data frames ingested over the binary protocol.", uf(&s.frames))
	reg.CounterFunc("aero_ingest_http_frames_total", "Frames accepted through the JSON-lines endpoint.", uf(&s.httpFrames))
	reg.CounterFunc("aero_ingest_acks_total", "Cumulative-ack messages sent.", uf(&s.acks))
	reg.CounterFunc("aero_ingest_discarded_total", "In-flight frames set aside during a drain.", uf(&s.discarded))
	reg.CounterFunc("aero_ingest_proto_errors_total", "Connections terminated for protocol violations.", uf(&s.protoErrors))
	reg.GaugeFunc("aero_ingest_conns", "Live protocol connections.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.conns))
	})
	return &serverObs{
		readWait:   reg.Histogram("aero_ingest_read_wait_seconds", "Time parked waiting for the next read burst on a connection."),
		engineWait: reg.Histogram("aero_ingest_engine_wait_seconds", "Time parked in the blocking engine ingest of one read burst (backpressure); observed once per burst."),
		frame:      reg.Histogram("aero_ingest_frame_seconds", "Server-side round-trip for one read burst of data frames: first decode to ack; observed once per burst."),
	}
}

// NewServer validates cfg and returns an idle server; call Serve with a
// listener to start accepting.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("ingest: ServerConfig.Engine is required")
	}
	if cfg.Lookup == nil {
		return nil, errors.New("ingest: ServerConfig.Lookup is required")
	}
	s := &Server{cfg: cfg.withDefaults(), conns: make(map[*serverConn]struct{})}
	if cfg.Metrics != nil {
		s.obs = s.newServerObs(cfg.Metrics)
	}
	return s, nil
}

// Serve accepts protocol connections on l until Drain or Close. It
// returns nil after a drain stops the accept loop; the listener itself
// is left open so it can be handed to a successor process (close it —
// or pass it to Relaunch — when no successor will take over).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.serving = true
	s.mu.Unlock()
	// A predecessor's Drain wakes its accept loop by moving the listener
	// deadline into the past; clear it so a successor adopting the same
	// listener doesn't spin on instant timeouts.
	if dl, ok := l.(interface{ SetDeadline(time.Time) error }); ok {
		dl.SetDeadline(time.Time{})
	}
	defer func() {
		s.mu.Lock()
		s.serving = false
		s.mu.Unlock()
	}()
	for {
		c, err := l.Accept()
		if err != nil {
			if s.draining.Load() || s.closed.Load() {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		// Registration re-checks the drain flag under s.mu — the same lock
		// Drain holds while collecting the connection set — so a conn
		// either lands in the set (and is cut and drained) or is refused;
		// none can slip past the drain barrier.
		sc := &serverConn{s: s, c: c, br: bufio.NewReaderSize(c, 64<<10)}
		s.mu.Lock()
		if s.draining.Load() || s.closed.Load() {
			s.mu.Unlock()
			// Late arrival during shutdown: refuse politely so the peer
			// redials the successor instead of waiting on a dead server.
			go refuse(c, CodeDraining, "server draining")
			continue
		}
		s.conns[sc] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.accepted.Add(1)
		go sc.run()
	}
}

// refuse greets a connection arriving mid-drain with a terminal error.
func refuse(c net.Conn, code uint16, text string) {
	defer c.Close()
	buf, err := AppendMsg(nil, &Msg{Type: MsgError, Code: code, Text: text})
	if err == nil {
		c.SetWriteDeadline(time.Now().Add(time.Second))
		c.Write(buf)
	}
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	return ServerStats{
		Conns:       conns,
		Accepted:    s.accepted.Load(),
		Frames:      s.frames.Load(),
		HTTPFrames:  s.httpFrames.Load(),
		Acks:        s.acks.Load(),
		Discarded:   s.discarded.Load(),
		ProtoErrors: s.protoErrors.Load(),
		Draining:    s.draining.Load(),
	}
}

// Draining reports whether the server has begun (or finished) a drain.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops the server losslessly: stop accepting, quiesce every
// connection (frames already read keep flowing into the engine; frames
// read after the cut are set aside for the client to resend), flush the
// engine so every accepted frame is scored, run the Checkpoint hook, and
// only then tell each client the exact sequence number up to which state
// is durable — everything later is the client's to resend after it
// reconnects to the successor. Drain is idempotent; concurrent calls
// wait for the first to finish.
func (s *Server) Drain() error {
	if !s.draining.CompareAndSwap(false, true) {
		s.connWG.Wait()
		return nil
	}
	// Wake the accept loop without closing the listening socket: the
	// descriptor must survive to be inherited by the successor process.
	s.mu.Lock()
	l := s.listener
	s.mu.Unlock()
	if dl, ok := l.(interface{ SetDeadline(time.Time) error }); ok && l != nil {
		dl.SetDeadline(time.Now())
	}

	// Cut every connection over to discard mode and collect the cutoffs.
	// The set is collected under s.mu after the drain flag is up, so a
	// racing accept either registered before this (and is cut below) or
	// observes the flag and refuses the connection.
	s.mu.Lock()
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	for _, sc := range conns {
		sc.cut()
	}
	// HTTP lines in flight finish their hand-off; later ones see the flag.
	s.httpMu.Lock()
	s.httpMu.Unlock()

	// Barrier: every frame accepted before the cut is scored...
	s.cfg.Engine.Flush()
	// ...and checkpointed, before any client is told to release it.
	if s.cfg.Checkpoint != nil {
		if err := s.cfg.Checkpoint(); err != nil {
			s.cfg.Logf("ingest: drain checkpoint: %v", err)
			// The cut connections still need their drain notice; a failed
			// checkpoint must not strand them. Acks already sent remain
			// valid (those frames were scored), so the safe cutoff to
			// advertise is the acked watermark, not the ingest watermark.
			for _, sc := range conns {
				sc.finishDrain(sc.ackedCut())
			}
			s.connWG.Wait()
			return fmt.Errorf("ingest: drain checkpoint: %w", err)
		}
	}
	for _, sc := range conns {
		sc.finishDrain(sc.cutoff)
	}
	s.connWG.Wait()
	return nil
}

// Close shuts the server down abruptly: the listener wakes, every
// connection is closed, nothing is drained or checkpointed. Prefer
// Drain for lossless shutdown.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	l := s.listener
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	if dl, ok := l.(interface{ SetDeadline(time.Time) error }); ok && l != nil {
		dl.SetDeadline(time.Now())
	}
	for _, sc := range conns {
		sc.c.Close()
	}
	s.connWG.Wait()
}

// serverConn is one protocol connection's state machine. The reader
// goroutine (run) owns all fields except where noted; Drain coordinates
// with it through pmu, which the reader holds while processing one read
// burst — locking pmu therefore means "the reader is between bursts".
type serverConn struct {
	s  *Server
	c  net.Conn
	br *bufio.Reader

	wmu  sync.Mutex // serializes writes (reader acks vs drain notice)
	wbuf []byte     // encode buffer reused by every send; guarded by wmu

	sub   *engine.Subscription
	width int

	// Read-burst staging, reused across bursts: frames aliases the decoded
	// magnitudes (slot 0 the first frame's, slot k ≥ 1 mags[k-1]), seqs
	// holds their sequence numbers and dm is the decode target for the
	// frames buffered behind the first. A burst ends at its last credit, so
	// staging stays ≤ CreditWindow × width.
	frames []core.Frame
	seqs   []uint64
	mags   [][]float64
	dm     Msg

	pmu      sync.Mutex
	expected uint64 // next in-order sequence number (0 until the first frame)
	ingested uint64 // highest sequence number accepted into the engine
	acked    uint64 // highest sequence number acknowledged to the client
	granted  int    // credits outstanding (granted − consumed)

	discard atomic.Bool // drain cut: stop ingesting, set frames aside
	cutoff  uint64      // ingest watermark at the cut (stable once discard is set)
}

func (sc *serverConn) run() {
	defer sc.s.connWG.Done()
	defer func() {
		sc.s.mu.Lock()
		delete(sc.s.conns, sc)
		sc.s.mu.Unlock()
		sc.c.Close()
	}()

	var m Msg
	var scratch []byte

	// Handshake first: exactly one Hello opens a connection.
	if err := ReadMsg(sc.br, &m, &scratch); err != nil {
		sc.s.protoErrors.Add(1)
		return
	}
	if m.Type != MsgHello {
		sc.fail(CodeBadHandshake, "expected Hello")
		return
	}
	sub, err := sc.s.cfg.Lookup(m.Tenant)
	if err != nil || sub == nil {
		sc.fail(CodeUnknownTenant, fmt.Sprintf("unknown tenant %q", m.Tenant))
		return
	}
	sc.sub = sub
	sc.width = m.Variates
	grant := sc.grantSize(sub.QueueHeadroom(), 0)
	sc.granted = grant
	if err := sc.send(&Msg{Type: MsgHelloAck, Credits: uint32(grant)}); err != nil {
		return
	}

	obs := sc.s.obs
	for {
		var tRead int64
		if obs != nil {
			tRead = metrics.Now()
		}
		if err := ReadMsg(sc.br, &m, &scratch); err != nil {
			if !sc.discard.Load() && !sc.s.closed.Load() {
				sc.s.protoErrors.Add(1)
			}
			return
		}
		switch m.Type {
		case MsgData:
			var tFrame int64
			if obs != nil {
				tFrame = metrics.Now()
				obs.readWait.Record(tFrame - tRead)
			}
			if !sc.handleBurst(&m) {
				return
			}
			if obs != nil {
				obs.frame.Record(metrics.Now() - tFrame)
			}
		case MsgBye:
			// Every frame ≤ lastSeq has been read in order (or the stream
			// would have failed); confirm the accepted watermark and part.
			sc.pmu.Lock()
			upTo := sc.ingested
			sc.pmu.Unlock()
			sc.send(&Msg{Type: MsgByeAck, UpTo: upTo})
			return
		default:
			sc.fail(CodeBadHandshake, fmt.Sprintf("unexpected message 0x%02x", m.Type))
			return
		}
	}
}

// handleBurst ingests one read burst — the Data frame just read plus
// every further complete Data message the reader already holds, up to the
// one that spends the connection's last credit — or sets the frame aside
// during a drain. Frames are validated one by one (seq, credit, width); the
// valid prefix enters the engine in one IngestBatch, and a violation then
// fails the connection with the code a frame-at-a-time loop would have
// sent after ingesting the same prefix. Returns false when the connection
// must close.
//
// pmu is held for the whole burst — including IngestBatch's parks on a
// full queue — so a drain cut can never land between a frame entering the
// engine and its sequence number being recorded: cut() waits for the
// burst, and the cutoff it records is exactly the engine's high-water mark.
func (sc *serverConn) handleBurst(first *Msg) bool {
	sc.pmu.Lock()
	if sc.discard.Load() {
		// Drained mid-flight: the frame is NOT ingested; the drain notice
		// (sent once the checkpoint is durable) tells the client to
		// resend everything past the cutoff, preserving order.
		sc.s.discarded.Add(1)
		sc.pmu.Unlock()
		return true
	}
	buf, _ := sc.br.Peek(sc.br.Buffered())
	used := 0 // bytes of buf holding frames staged behind the first
	idle := false
	granted, expected := sc.granted, sc.expected
	var code uint16 // first violation; 0 when the whole burst is valid
	var text string
	frames, seqs := sc.frames[:0], sc.seqs[:0]
	for m := first; ; {
		if expected != 0 && m.Seq != expected {
			code, text = CodeOutOfOrder, fmt.Sprintf("seq %d, expected %d", m.Seq, expected)
			break
		}
		if granted <= 0 {
			code, text = CodeCreditExceeded, "data frame beyond granted credits"
			break
		}
		if len(m.Mags) != sc.width {
			code, text = CodeWidthMismatch, fmt.Sprintf("frame has %d variates, handshake declared %d", len(m.Mags), sc.width)
			break
		}
		granted--
		expected = m.Seq + 1
		frames = append(frames, core.Frame{Time: m.Time, Magnitudes: m.Mags})
		seqs = append(seqs, m.Seq)
		if granted == 0 {
			break // the ack below carries the top-up the next frame needs
		}
		k := len(frames) - 1
		if k == len(sc.mags) {
			sc.mags = append(sc.mags, nil)
		}
		m = &sc.dm
		m.Mags = sc.mags[k]
		n, err := DecodeMsg(buf[used:], m)
		sc.mags[k] = m.Mags
		if err != nil || m.Type != MsgData {
			// Left for ReadMsg: a partial message ends the burst; a complete
			// non-Data or malformed one is handled or reported there.
			idle = err == ErrTruncated
			break
		}
		used += n
	}
	sc.br.Discard(used)
	sc.frames, sc.seqs = frames, seqs

	// The blocking IngestBatch IS the flow control: while the tenant's
	// shard queue is full it parks, no ack or credit flows, and the client
	// throttles to the engine's pace. It copies the magnitudes, so the
	// staged slices are handed over as they are.
	var entered, head int
	var err error
	if len(frames) > 0 {
		obs := sc.s.obs
		var tIn int64
		if obs != nil {
			tIn = metrics.Now()
		}
		entered, head, err = sc.sub.IngestBatch(frames)
		if obs != nil {
			obs.engineWait.Record(metrics.Now() - tIn)
		}
	}
	if entered > 0 {
		sc.s.frames.Add(uint64(entered))
		sc.granted -= entered
		sc.ingested = seqs[entered-1]
		sc.expected = sc.ingested + 1
	}
	if err != nil {
		code, text = CodeIngest, err.Error()
	}
	if code != 0 {
		sc.pmu.Unlock()
		sc.fail(code, text)
		return false
	}

	// One ack per burst: when the reader holds no further complete message
	// (nothing else would release a quiescing client's Flush), or when the
	// burst spent the last credit (its top-up is what lets the client send
	// on). It carries the top-up to the shard's current headroom.
	needAck := sc.granted == 0 || (idle && sc.ingested != sc.acked)
	var ack Msg
	if needAck {
		target := sc.grantSize(head, sc.granted)
		ack = Msg{Type: MsgAck, UpTo: sc.ingested, Credits: uint32(target - sc.granted)}
		sc.acked = sc.ingested
		sc.granted = target
	}
	sc.pmu.Unlock()
	if needAck {
		sc.s.acks.Add(1)
		if err := sc.send(&ack); err != nil {
			return false
		}
	}
	return true
}

// grantSize sizes the connection's outstanding-credit target from the
// tenant shard's queue headroom, clamped to [1, CreditWindow] and never
// below the credits already granted: a stalled shard degrades the flow to
// one blocking frame at a time (protocol-level backpressure), never to a
// deadlock and never to unbounded buffering.
func (sc *serverConn) grantSize(headroom, granted int) int {
	return max(1, min(headroom, sc.s.cfg.CreditWindow), granted)
}

// cut flips the connection into discard mode and records the ingest
// watermark. Locking pmu serializes with the reader: on return the
// reader is either between messages or parked in a read, so cutoff is
// the exact high-water mark of frames inside the engine.
func (sc *serverConn) cut() {
	sc.pmu.Lock()
	sc.discard.Store(true)
	sc.cutoff = sc.ingested
	sc.pmu.Unlock()
}

// ackedCut returns the acknowledged watermark — the safe cutoff to
// advertise when the drain checkpoint failed.
func (sc *serverConn) ackedCut() uint64 {
	sc.pmu.Lock()
	defer sc.pmu.Unlock()
	return sc.acked
}

// drainLinger bounds how long a drained connection keeps discarding
// inbound bytes while it waits for the client to close its side.
const drainLinger = 2 * time.Second

// finishDrain sends the final cumulative ack and the drain notice, then
// half-closes: the client releases ≤ upTo and resends the rest to the
// successor. The socket itself stays open and the reader goroutine keeps
// discarding until the client hangs up or drainLinger passes — closing
// with frames still unread in the receive buffer makes the kernel answer
// with RST, and an RST destroys the notice in the client's receive queue.
func (sc *serverConn) finishDrain(upTo uint64) {
	sc.send(&Msg{Type: MsgAck, UpTo: upTo, Credits: 0})
	sc.send(&Msg{Type: MsgDrain, UpTo: upTo})
	if hc, ok := sc.c.(interface{ CloseWrite() error }); ok {
		hc.CloseWrite()
	}
	// The deadline also wakes a reader parked in Read; discard mode keeps
	// its expiry from being counted as a protocol error.
	sc.c.SetReadDeadline(time.Now().Add(drainLinger))
}

// send encodes one message into the connection's reused buffer and
// writes it under the write lock.
func (sc *serverConn) send(m *Msg) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	buf, err := AppendMsg(sc.wbuf[:0], m)
	if err != nil {
		return err
	}
	sc.wbuf = buf
	sc.c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	_, err = sc.c.Write(buf)
	return err
}

// fail reports a protocol violation to the peer and counts it.
func (sc *serverConn) fail(code uint16, text string) {
	sc.s.protoErrors.Add(1)
	sc.send(&Msg{Type: MsgError, Code: code, Text: text})
}
