package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"aero/internal/core"
	"aero/internal/metrics"
)

// ClientConfig parameterizes Dial.
type ClientConfig struct {
	// Addr is the server's TCP address.
	Addr string
	// Tenant is the subscription id declared in the handshake.
	Tenant string
	// Variates is the frame width declared in the handshake; every Send
	// must match it.
	Variates int
	// Window caps the client-side resend buffer (frames sent but not yet
	// acknowledged). Send blocks at the cap even when the server has
	// granted more credit. Defaults to 256.
	Window int
	// RedialAttempts bounds reconnection tries after a drain notice or a
	// connection failure; 0 disables reconnection (the next Send fails).
	// Defaults to 30.
	RedialAttempts int
	// RedialDelay is the initial backoff between redials (doubled up to
	// 32×). Defaults to 50 ms.
	RedialDelay time.Duration
	// Logf receives reconnect diagnostics. Optional.
	Logf func(format string, args ...any)
	// Latency, when non-nil, records each frame's send→ack round trip —
	// the client-visible latency including queueing, scoring, ack batching,
	// and any drain/redial the frame rode out. Shareable across clients
	// (Record is atomic).
	Latency *metrics.Histogram
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.RedialAttempts == 0 {
		c.RedialAttempts = 30
	}
	if c.RedialDelay <= 0 {
		c.RedialDelay = 50 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ClientStats snapshots a client's delivery counters.
type ClientStats struct {
	// Sent counts distinct frames handed to Send.
	Sent uint64
	// Acked counts frames the server has acknowledged (scored or
	// checkpointed — safe to forget).
	Acked uint64
	// Resent counts frame retransmissions after drains or reconnects.
	Resent uint64
	// Reconnects counts successful re-handshakes.
	Reconnects uint64
	// BlockedWaits counts Send calls that had to park on credit, window
	// or write-buffer exhaustion — the client-visible face of engine
	// backpressure.
	BlockedWaits uint64
	// Drains counts drain notices received.
	Drains uint64
	// Writes counts socket writes; frames sent per write is the group
	// commit's batching factor (Sent+Resent over Writes).
	Writes uint64
}

// ErrClientClosed is returned by Send after Close.
var ErrClientClosed = errors.New("ingest: client closed")

// pendFrame is one sent-but-unacknowledged frame, owned by the client
// for retransmission. Slots live in a ring and keep their magnitude
// buffer across reuse.
type pendFrame struct {
	seq    uint64
	time   float64
	mags   []float64
	sentNs int64 // Send timestamp for ack-latency measurement; 0 when untimed
}

// minWriteBuf is the smallest per-connection write buffer (there are two:
// one filling, one in flight): about 88 eight-variate frames, more than a
// default credit window holds.
const minWriteBuf = 8 << 10

// Client is one tenant's connection to the ingest server: an ordered,
// credit-controlled, exactly-once frame stream. Send blocks while the
// server is out of credit (protocol-level backpressure) and transparently
// rides out drains and restarts by reconnecting and resending the
// unacknowledged suffix. Clients are safe for use by one sender
// goroutine; the reader and writer goroutines are internal.
type Client struct {
	cfg       ClientConfig
	frameSize int // wire size of one Data message at cfg.Variates

	mu        sync.Mutex
	cond      *sync.Cond // state changes Send, Flush, Close and redial wait on
	wake      *sync.Cond // the live connection's writer parks here; a retired one never parks again
	conn      net.Conn
	wq        []byte // messages encoded since the writer last took the buffer; fixed capacity
	credits   int
	nextSeq   uint64
	pending   []pendFrame // ring of Window slots in seq order; released by cumulative acks
	pendHead  int
	pendN     int
	ackedUp   uint64
	byeUp     uint64 // ByeAck watermark (0 until received)
	closed    bool
	dead      bool  // no live conn; a redial loop may be running
	resending bool  // redial retransmission in flight; Send must stay parked
	err       error // terminal failure, reported by Send/Close

	stats ClientStats
}

// Dial connects, performs the tenant handshake, and starts the ack
// reader and the connection's writer.
func Dial(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	c := &Client{cfg: cfg, frameSize: DataWireSize(cfg.Variates), pending: make([]pendFrame, cfg.Window)}
	c.cond = sync.NewCond(&c.mu)
	c.wake = sync.NewCond(&c.mu)
	conn, credits, err := c.handshake()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.install(conn, credits)
	c.mu.Unlock()
	return c, nil
}

// handshake dials and exchanges Hello/HelloAck, returning the connection
// and the initial credit grant.
func (c *Client) handshake() (net.Conn, int, error) {
	conn, err := net.Dial("tcp", c.cfg.Addr)
	if err != nil {
		return nil, 0, err
	}
	buf, err := AppendMsg(nil, &Msg{Type: MsgHello, Tenant: c.cfg.Tenant, Variates: c.cfg.Variates})
	if err != nil {
		conn.Close()
		return nil, 0, err
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(buf); err != nil {
		conn.Close()
		return nil, 0, err
	}
	var m Msg
	var scratch []byte
	br := bufio.NewReader(conn)
	if err := ReadMsg(br, &m, &scratch); err != nil {
		conn.Close()
		return nil, 0, err
	}
	switch m.Type {
	case MsgHelloAck:
	case MsgError:
		conn.Close()
		return nil, 0, fmt.Errorf("ingest: server rejected handshake (code %d): %s", m.Code, m.Text)
	default:
		conn.Close()
		return nil, 0, fmt.Errorf("%w: handshake reply 0x%02x", ErrBadMessage, m.Type)
	}
	conn.SetDeadline(time.Time{})
	return &readerConn{Conn: conn, br: br}, int(m.Credits), nil
}

// readerConn keeps the handshake's buffered reader attached to the
// connection so bytes the handshake read ahead are not lost.
type readerConn struct {
	net.Conn
	br *bufio.Reader
}

// install adopts a fresh connection under c.mu and starts its reader and
// its writer. Each connection gets its own pair of write buffers: a
// retired connection's writer may still be inside Write with one of them.
func (c *Client) install(conn net.Conn, credits int) {
	size := max(minWriteBuf, c.frameSize)
	c.conn = conn
	c.wq = make([]byte, 0, size)
	c.credits = credits
	c.dead = false
	go c.readLoop(conn)
	go c.writeLoop(conn, make([]byte, 0, size))
	c.cond.Broadcast()
}

// Send delivers one frame in order, blocking while the server's credit
// grant, the local window or the write buffer is exhausted — the
// protocol-level face of the engine's backpressure. The magnitudes are
// copied; the caller may reuse the slice. Send never drops: a frame
// accepted by Send is retransmitted across drains and reconnects until
// acknowledged.
//
// Send only encodes the frame into the connection's write buffer and
// signals the writer, so a TCP stall cannot lock the ack reader out;
// write failures surface through the reconnect path, which retransmits
// the frame from pending.
func (c *Client) Send(f core.Frame) error {
	if len(f.Magnitudes) != c.cfg.Variates {
		return fmt.Errorf("ingest: frame has %d variates, client declared %d", len(f.Magnitudes), c.cfg.Variates)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	waited := false
	for !c.closed && c.err == nil && (c.dead || c.resending || c.pendN >= len(c.pending) || !c.canQueue()) {
		if !c.dead && !waited {
			waited = true
			c.stats.BlockedWaits++
		}
		c.cond.Wait()
	}
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return ErrClientClosed
	}
	if err := c.queueData(c.nextSeq+1, f.Time, f.Magnitudes); err != nil {
		return err
	}
	c.nextSeq++
	p := c.slot(c.pendN)
	p.seq, p.time, p.sentNs = c.nextSeq, f.Time, 0
	p.mags = append(p.mags[:0], f.Magnitudes...)
	if c.cfg.Latency != nil {
		p.sentNs = metrics.Now()
	}
	c.pendN++
	c.stats.Sent++
	return nil
}

// slot returns the ring slot i places past the oldest pending frame,
// 0 ≤ i ≤ Window. Caller holds c.mu.
func (c *Client) slot(i int) *pendFrame {
	if i += c.pendHead; i >= len(c.pending) {
		i -= len(c.pending)
	}
	return &c.pending[i]
}

// canQueue reports whether one more Data message may go out now: a
// credit to spend and room for it in the write buffer. Caller holds c.mu.
func (c *Client) canQueue() bool {
	return c.credits > 0 && len(c.wq)+c.frameSize <= cap(c.wq)
}

// queueData spends one credit encoding a Data message in place at the end
// of the write buffer and signals the writer. Caller holds c.mu and has
// checked canQueue.
func (c *Client) queueData(seq uint64, t float64, mags []float64) error {
	buf, err := AppendMsg(c.wq, &Msg{Type: MsgData, Seq: seq, Time: t, Mags: mags})
	if err != nil {
		return err
	}
	c.wq = buf
	c.credits--
	c.wake.Signal()
	return nil
}

// writeLoop is the connection's only writer — a group commit clocked by
// the socket itself: each pass takes everything queued while the previous
// Write was in flight and sends it in one Write. A lone frame finds the
// writer parked and goes out at once; a saturating sender fills the
// buffer for as long as a write takes and pays one syscall for the lot.
// Nothing is stranded, because every queued byte is followed by a signal
// and the writer re-checks the buffer before it parks.
func (c *Client) writeLoop(conn net.Conn, spare []byte) {
	c.mu.Lock()
	for {
		for len(c.wq) == 0 && conn == c.conn && !c.dead {
			c.wake.Wait()
		}
		if conn != c.conn || c.dead {
			c.mu.Unlock()
			return
		}
		buf := c.wq
		c.wq = spare[:0]
		c.stats.Writes++
		if len(buf)+c.frameSize > cap(buf) {
			c.cond.Broadcast() // whoever parked on the full buffer has room again
		}
		c.mu.Unlock()
		if _, err := conn.Write(buf); err != nil {
			c.onConnError(conn, err)
			return
		}
		spare = buf
		c.mu.Lock()
	}
}

// readLoop consumes server messages for one connection's lifetime.
func (c *Client) readLoop(conn net.Conn) {
	br := conn.(*readerConn).br
	var m Msg
	var scratch []byte
	for {
		if err := ReadMsg(br, &m, &scratch); err != nil {
			c.onConnError(conn, err)
			return
		}
		switch m.Type {
		case MsgAck:
			c.mu.Lock()
			if conn == c.conn {
				c.release(m.UpTo)
				c.credits += int(m.Credits)
				c.cond.Broadcast()
			}
			c.mu.Unlock()
		case MsgDrain:
			// Everything ≤ UpTo is checkpointed server-side; the rest of
			// pending is ours to resend after the successor comes up.
			c.mu.Lock()
			if conn == c.conn {
				c.stats.Drains++
				c.release(m.UpTo)
				c.markDead()
			}
			c.mu.Unlock()
			conn.Close()
			return
		case MsgByeAck:
			c.mu.Lock()
			if conn == c.conn {
				c.release(m.UpTo)
				c.byeUp = m.UpTo
				c.cond.Broadcast()
			}
			c.mu.Unlock()
			return
		case MsgError:
			err := fmt.Errorf("ingest: server error (code %d): %s", m.Code, m.Text)
			c.failTerminal(err)
			c.onConnError(conn, err)
			return
		}
	}
}

// release drops acknowledged frames from the resend ring. Caller holds
// c.mu and broadcasts.
func (c *Client) release(upTo uint64) {
	if upTo <= c.ackedUp {
		return
	}
	var now int64
	if c.cfg.Latency != nil {
		now = metrics.Now() // one clock read covers the whole ack batch
	}
	for c.pendN > 0 && c.pending[c.pendHead].seq <= upTo {
		if sent := c.pending[c.pendHead].sentNs; sent != 0 {
			c.cfg.Latency.Record(now - sent)
		}
		if c.pendHead++; c.pendHead == len(c.pending) {
			c.pendHead = 0
		}
		c.pendN--
		c.stats.Acked++
	}
	c.ackedUp = upTo
}

// onConnError retires a failed connection and, unless the client is
// closed or failed, starts the redial loop.
func (c *Client) onConnError(conn net.Conn, err error) {
	c.mu.Lock()
	if conn == c.conn && !c.dead {
		if !c.closed && c.err == nil {
			c.cfg.Logf("ingest: connection lost: %v", err)
		}
		c.markDead()
	}
	c.mu.Unlock()
	conn.Close()
}

// markDead flags the current connection unusable, releases its writer and
// spawns the redial loop (at most one). Caller holds c.mu.
func (c *Client) markDead() {
	if c.dead {
		return
	}
	c.dead = true
	c.wake.Signal()
	if !c.closed && c.err == nil {
		if c.cfg.RedialAttempts > 0 {
			go c.redial()
		} else {
			c.err = errors.New("ingest: connection lost and reconnection disabled")
		}
	}
	c.cond.Broadcast()
}

// redial reconnects with exponential backoff and retransmits the
// unacknowledged suffix in order.
func (c *Client) redial() {
	delay := c.cfg.RedialDelay
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()

		conn, credits, err := c.handshake()
		if err == nil {
			c.resend(conn, credits)
			return
		}
		c.cfg.Logf("ingest: redial %d/%d failed: %v", attempt, c.cfg.RedialAttempts, err)
		if attempt >= c.cfg.RedialAttempts {
			c.failTerminal(fmt.Errorf("ingest: reconnect failed after %d attempts: %w", attempt, err))
			return
		}
		time.Sleep(delay)
		if delay < 32*c.cfg.RedialDelay {
			delay *= 2
		}
	}
}

// resend adopts a redialed connection and puts the unacknowledged suffix
// back on the wire through the same queue Send uses, as credit and buffer
// space allow. The resending flag keeps Send parked until the whole
// suffix is queued, so new frames can never overtake a retransmission.
func (c *Client) resend(conn net.Conn, credits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return
	}
	c.stats.Reconnects++
	c.install(conn, credits)
	c.resending = true
	for seq := c.ackedUp + 1; seq <= c.nextSeq; seq++ {
		for conn == c.conn && !c.dead && !c.closed && c.err == nil && !c.canQueue() {
			c.cond.Wait()
		}
		if conn != c.conn || c.dead || c.closed || c.err != nil {
			return // a later redial, or nobody, finishes the job
		}
		if seq <= c.ackedUp {
			continue
		}
		p := c.slot(int(seq - c.pending[c.pendHead].seq))
		if err := c.queueData(p.seq, p.time, p.mags); err != nil {
			c.err = err // Send encoded this very frame once already
			c.cond.Broadcast()
			return
		}
		c.stats.Resent++
	}
	c.resending = false
	c.cond.Broadcast()
}

// failTerminal records a fatal error and wakes every waiter.
func (c *Client) failTerminal(err error) {
	c.mu.Lock()
	if c.err == nil && !c.closed {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Flush blocks until every frame accepted by Send has been acknowledged
// (riding out reconnects), or the client fails terminally.
func (c *Client) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.pendN > 0 && c.err == nil && !c.closed {
		c.cond.Wait()
	}
	if c.err != nil {
		return c.err
	}
	if c.pendN > 0 {
		return ErrClientClosed
	}
	return nil
}

// Close performs a clean goodbye: waits for every sent frame to be
// acknowledged, exchanges Bye/ByeAck, and closes the connection. The
// returned error reports frames that could not be confirmed.
func (c *Client) Close() error {
	flushErr := c.Flush()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.cond.Broadcast()
	conn, last := c.conn, c.nextSeq
	if flushErr == nil && !c.dead {
		if buf, err := AppendMsg(c.wq, &Msg{Type: MsgBye, UpTo: last}); err == nil {
			c.wq = buf
			c.wake.Signal()
			// Wait for the reader to surface ByeAck; delivery is already
			// guaranteed by the ack watermark, so this is only a courtesy
			// to the server's connection teardown, and a bounded one.
			expired := false
			timer := time.AfterFunc(2*time.Second, func() {
				c.mu.Lock()
				expired = true
				c.cond.Broadcast()
				c.mu.Unlock()
			})
			for c.byeUp < last && !c.dead && !expired {
				c.cond.Wait()
			}
			timer.Stop()
		}
	}
	c.markDead() // releases the writer; a closed client does not redial
	c.mu.Unlock()
	conn.Close()
	return flushErr
}

// Stats snapshots the client's counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Pending returns the number of sent-but-unacknowledged frames.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pendN
}
