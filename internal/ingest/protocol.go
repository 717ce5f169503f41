// Package ingest is the engine's network front door: a TCP server
// speaking a compact length-prefixed binary frame protocol (plus a
// JSON-lines HTTP endpoint for interop), a client library, and the
// graceful drain/restart machinery that checkpoints every warm tenant
// through the snapshot registry and hands the listening socket to a
// re-exec'd child.
//
// The protocol surfaces the engine's lossless backpressure as
// credit-based flow control: the server grants frame credits sized to
// the tenant shard's queue headroom, so a stalled shard slows the
// client down instead of dropping frames or buffering them without
// bound. Acks are cumulative and batched; every accepted frame is
// either scored or — across a drain — checkpointed before the client is
// told to release it, so a reconnecting client resends exactly the
// unacknowledged suffix and nothing is lost or reordered.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Wire format. Every message is one length-prefixed frame:
//
//	length   uint32   payload length in bytes (type byte included)
//	payload  [...]    type byte followed by the type's body
//	crc      uint32   IEEE CRC-32 of the payload
//
// All integers are little-endian; float64s travel as IEEE-754 bits.
// Message bodies:
//
//	Hello     magic u32 | version u16 | variates u32 | tenantLen u16 | tenant
//	HelloAck  version u16 | credits u32
//	Data      seq u64 | time f64 | n u32 | mags [n]f64
//	Ack       upTo u64 | credits u32          (cumulative; credits are a delta grant)
//	Drain     upTo u64                        (≤ upTo is checkpointed; resend the rest)
//	Bye       lastSeq u64
//	ByeAck    upTo u64
//	Error     code u16 | msgLen u16 | msg
const (
	// WireMagic opens every Hello; a server reading anything else on a
	// fresh connection closes it immediately.
	WireMagic uint32 = 0x41455257 // "WREA" on the wire, little-endian
	// WireVersion is the protocol revision negotiated in Hello/HelloAck.
	WireVersion uint16 = 1
)

// Message types.
const (
	MsgHello    byte = 0x01 // client → server: tenant handshake
	MsgHelloAck byte = 0x02 // server → client: accept + initial credit grant
	MsgData     byte = 0x10 // client → server: one frame
	MsgAck      byte = 0x11 // server → client: cumulative ack + credit grant
	MsgDrain    byte = 0x12 // server → client: draining; reconnect and resend > upTo
	MsgBye      byte = 0x13 // client → server: end of stream after lastSeq
	MsgByeAck   byte = 0x14 // server → client: every frame ≤ upTo accepted
	MsgError    byte = 0x15 // server → client: terminal protocol error
)

// Hard wire limits: any message that exceeds them is rejected before a
// single body byte is interpreted, so a hostile or corrupt peer cannot
// make the reader allocate unboundedly.
const (
	// MaxPayload caps one message's payload (64k variates ≈ 512 KiB).
	MaxPayload = 1 << 20
	// MaxVariates caps a Data frame's width and Hello's declared width.
	MaxVariates = 1 << 16
	// MaxTenantLen caps the handshake's tenant-id length.
	MaxTenantLen = 255
)

// Decode errors. All malformed input yields a wrapped sentinel — never a
// panic (FuzzDecodeMsg holds the protocol to that).
var (
	ErrTruncated  = errors.New("ingest: truncated message")
	ErrTooLarge   = errors.New("ingest: message exceeds wire limits")
	ErrBadCRC     = errors.New("ingest: payload checksum mismatch")
	ErrBadMagic   = errors.New("ingest: bad handshake magic")
	ErrBadVersion = errors.New("ingest: unsupported protocol version")
	ErrBadMessage = errors.New("ingest: malformed message body")
)

// Msg is the decoded form of any wire message; which fields are
// meaningful depends on Type. One Msg is reused across decodes so the
// hot Data path does not allocate once Mags has reached capacity.
type Msg struct {
	Type byte

	// Hello
	Tenant   string
	Variates int

	// Data
	Seq  uint64
	Time float64
	Mags []float64

	// Ack / Drain / Bye / ByeAck
	UpTo    uint64
	Credits uint32

	// Error
	Code uint16
	Text string
}

// AppendMsg appends m's wire encoding (length prefix, payload, CRC) to
// dst and returns the extended slice.
func AppendMsg(dst []byte, m *Msg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	p0 := len(dst)
	dst = append(dst, m.Type)
	switch m.Type {
	case MsgHello:
		if len(m.Tenant) > MaxTenantLen {
			return nil, fmt.Errorf("%w: tenant id %d bytes", ErrTooLarge, len(m.Tenant))
		}
		if m.Variates < 0 || m.Variates > MaxVariates {
			return nil, fmt.Errorf("%w: %d variates", ErrTooLarge, m.Variates)
		}
		dst = binary.LittleEndian.AppendUint32(dst, WireMagic)
		dst = binary.LittleEndian.AppendUint16(dst, WireVersion)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Variates))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Tenant)))
		dst = append(dst, m.Tenant...)
	case MsgHelloAck:
		dst = binary.LittleEndian.AppendUint16(dst, WireVersion)
		dst = binary.LittleEndian.AppendUint32(dst, m.Credits)
	case MsgData:
		if len(m.Mags) > MaxVariates {
			return nil, fmt.Errorf("%w: %d variates", ErrTooLarge, len(m.Mags))
		}
		dst = binary.LittleEndian.AppendUint64(dst, m.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Time))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Mags)))
		for _, x := range m.Mags {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	case MsgAck:
		dst = binary.LittleEndian.AppendUint64(dst, m.UpTo)
		dst = binary.LittleEndian.AppendUint32(dst, m.Credits)
	case MsgDrain, MsgBye, MsgByeAck:
		dst = binary.LittleEndian.AppendUint64(dst, m.UpTo)
	case MsgError:
		if len(m.Text) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: error text %d bytes", ErrTooLarge, len(m.Text))
		}
		dst = binary.LittleEndian.AppendUint16(dst, m.Code)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(m.Text)))
		dst = append(dst, m.Text...)
	default:
		return nil, fmt.Errorf("%w: unknown type 0x%02x", ErrBadMessage, m.Type)
	}
	payload := dst[p0:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload)), nil
}

// DecodeMsg decodes one complete message from the front of buf into m,
// returning the number of bytes consumed. Incomplete input returns
// ErrTruncated; any other malformation returns a typed error. m.Mags is
// reused across calls.
func DecodeMsg(buf []byte, m *Msg) (int, error) {
	if len(buf) < 4 {
		return 0, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(buf)
	if n < 1 || n > MaxPayload {
		return 0, fmt.Errorf("%w: payload length %d", ErrTooLarge, n)
	}
	total := 4 + int(n) + 4
	if len(buf) < total {
		return 0, ErrTruncated
	}
	payload := buf[4 : 4+n]
	want := binary.LittleEndian.Uint32(buf[4+n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return 0, fmt.Errorf("%w (%08x != %08x)", ErrBadCRC, got, want)
	}
	if err := parsePayload(payload, m); err != nil {
		return 0, err
	}
	return total, nil
}

// ReadMsg reads exactly one message from br into m, using *scratch as
// the reusable payload buffer. The CRC is verified before any body byte
// is interpreted.
func ReadMsg(br *bufio.Reader, m *Msg, scratch *[]byte) error {
	// The length is peeked in the reader's own buffer: a local array
	// handed to io.ReadFull escapes, one allocation per message.
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > MaxPayload {
		return fmt.Errorf("%w: payload length %d", ErrTooLarge, n)
	}
	br.Discard(4) // cannot fail: the four bytes are buffered
	need := int(n) + 4
	if cap(*scratch) < need {
		*scratch = make([]byte, need)
	}
	buf := (*scratch)[:need]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	payload, tail := buf[:n], buf[n:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("%w (%08x != %08x)", ErrBadCRC, got, want)
	}
	return parsePayload(payload, m)
}

// parsePayload interprets one CRC-verified payload. Every length is
// bounds-checked against the actual payload size before use.
func parsePayload(p []byte, m *Msg) error {
	*m = Msg{Mags: m.Mags[:0]}
	m.Type = p[0]
	body := p[1:]
	switch m.Type {
	case MsgHello:
		if len(body) < 4+2+4+2 {
			return fmt.Errorf("%w: hello body %d bytes", ErrBadMessage, len(body))
		}
		if magic := binary.LittleEndian.Uint32(body); magic != WireMagic {
			return fmt.Errorf("%w: %08x", ErrBadMagic, magic)
		}
		if v := binary.LittleEndian.Uint16(body[4:]); v != WireVersion {
			return fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
		nv := binary.LittleEndian.Uint32(body[6:])
		if nv > MaxVariates {
			return fmt.Errorf("%w: %d variates", ErrTooLarge, nv)
		}
		tl := int(binary.LittleEndian.Uint16(body[10:]))
		if tl > MaxTenantLen || len(body) != 12+tl {
			return fmt.Errorf("%w: hello tenant length %d in %d-byte body", ErrBadMessage, tl, len(body))
		}
		m.Variates = int(nv)
		m.Tenant = string(body[12 : 12+tl])
	case MsgHelloAck:
		if len(body) != 6 {
			return fmt.Errorf("%w: helloack body %d bytes", ErrBadMessage, len(body))
		}
		if v := binary.LittleEndian.Uint16(body); v != WireVersion {
			return fmt.Errorf("%w: %d", ErrBadVersion, v)
		}
		m.Credits = binary.LittleEndian.Uint32(body[2:])
	case MsgData:
		if len(body) < 8+8+4 {
			return fmt.Errorf("%w: data body %d bytes", ErrBadMessage, len(body))
		}
		m.Seq = binary.LittleEndian.Uint64(body)
		m.Time = math.Float64frombits(binary.LittleEndian.Uint64(body[8:]))
		nv := binary.LittleEndian.Uint32(body[16:])
		if nv > MaxVariates {
			return fmt.Errorf("%w: %d variates", ErrTooLarge, nv)
		}
		if len(body) != 20+8*int(nv) {
			return fmt.Errorf("%w: data body %d bytes for %d variates", ErrBadMessage, len(body), nv)
		}
		if cap(m.Mags) < int(nv) {
			m.Mags = make([]float64, 0, nv)
		}
		for i := 0; i < int(nv); i++ {
			m.Mags = append(m.Mags, math.Float64frombits(binary.LittleEndian.Uint64(body[20+8*i:])))
		}
	case MsgAck:
		if len(body) != 12 {
			return fmt.Errorf("%w: ack body %d bytes", ErrBadMessage, len(body))
		}
		m.UpTo = binary.LittleEndian.Uint64(body)
		m.Credits = binary.LittleEndian.Uint32(body[8:])
	case MsgDrain, MsgBye, MsgByeAck:
		if len(body) != 8 {
			return fmt.Errorf("%w: body %d bytes for type 0x%02x", ErrBadMessage, len(body), m.Type)
		}
		m.UpTo = binary.LittleEndian.Uint64(body)
	case MsgError:
		if len(body) < 4 {
			return fmt.Errorf("%w: error body %d bytes", ErrBadMessage, len(body))
		}
		m.Code = binary.LittleEndian.Uint16(body)
		tl := int(binary.LittleEndian.Uint16(body[2:]))
		if len(body) != 4+tl {
			return fmt.Errorf("%w: error text length %d in %d-byte body", ErrBadMessage, tl, len(body))
		}
		m.Text = string(body[4 : 4+tl])
	default:
		return fmt.Errorf("%w: unknown type 0x%02x", ErrBadMessage, m.Type)
	}
	return nil
}

// DataWireSize returns the on-wire size in bytes of one Data message
// carrying n variates — the per-frame cost reported by the ingest
// benchmarks.
func DataWireSize(n int) int { return 4 + 1 + 8 + 8 + 4 + 8*n + 4 }
