// Package snapfmt is the framing every binary state snapshot shares —
// the detector's "AEROSNAP", triage's "AEROTRIA" and the subscription
// envelope's "AEROHLTH":
//
//	magic   [8]byte  the format's name
//	version uint32
//	fields  ...      little-endian, in the order the format lists them
//	crc     uint32   IEEE CRC-32 of every preceding byte
//
// A Writer appends the fields and seals the frame. A Reader checks
// length, magic, checksum and version before any field is trusted, then
// bounds-checks every read. Both latch their first error, so a format
// writes or reads its whole layout and checks once. The formats own
// their layouts and their validate-then-commit bodies; this package owns
// magic, version, CRC and truncation.
package snapfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Format names one snapshot layout and words its errors: Pkg "core" and
// Name "detector state" give "core: detector state truncated at byte 40".
type Format struct {
	Magic     string // eight bytes
	Version   uint32
	Pkg, Name string
}

func (f Format) errorf(format string, args ...any) error {
	return fmt.Errorf("%s: %s "+format, append([]any{f.Pkg, f.Name}, args...)...)
}

// Writer appends one snapshot. The zero value is unusable; start from
// NewWriter.
type Writer struct {
	f   Format
	buf []byte
	err error
}

// NewWriter starts a snapshot of format f in a buffer presized to size
// bytes (the whole frame, CRC included, when the caller knows it).
func NewWriter(f Format, size int) *Writer {
	buf := append(make([]byte, 0, size), f.Magic...)
	return &Writer{f: f, buf: binary.LittleEndian.AppendUint32(buf, f.Version)}
}

// U8, U16, U32, U64 and F64 write one little-endian field.
func (w *Writer) U8(x uint8)   { w.buf = append(w.buf, x) }
func (w *Writer) U16(x uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, x) }
func (w *Writer) U32(x uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, x) }
func (w *Writer) U64(x uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, x) }
func (w *Writer) F64(x float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(x))
}

// Bool writes 1 for true and 0 for false.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64s writes xs with no length prefix.
func (w *Writer) F64s(xs []float64) {
	for _, x := range xs {
		w.F64(x)
	}
}

// Bytes writes b with no length prefix.
func (w *Writer) Bytes(b []byte) { w.buf = append(w.buf, b...) }

// Str writes s behind a uint16 length. A longer s latches an error.
func (w *Writer) Str(s string) {
	if len(s) > math.MaxUint16 {
		if w.err == nil {
			w.err = w.f.errorf("cannot hold a %d-byte string (limit %d)", len(s), math.MaxUint16)
		}
		return
	}
	w.U16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// Seal appends the CRC of every byte before it and returns the snapshot,
// or the first error a field latched.
func (w *Writer) Seal() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf)), nil
}

// Reader is a bounds-checked cursor over a sealed snapshot's fields: the
// first failed read latches an error and every later read returns zero
// values.
type Reader struct {
	f   Format
	buf []byte // the frame without its CRC
	off int
	err error
}

// Open checks blob's length, magic and CRC, then its version, and
// returns a Reader positioned at the first field. The checksum is
// checked first so that no header field is trusted before it is.
func Open(f Format, blob []byte) (*Reader, error) {
	if len(blob) < len(f.Magic)+8 {
		return nil, f.errorf("truncated (%d bytes)", len(blob))
	}
	if string(blob[:len(f.Magic)]) != f.Magic {
		return nil, fmt.Errorf("%s: not a %s snapshot (bad magic)", f.Pkg, f.Name)
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(tail); got != want {
		return nil, f.errorf("checksum mismatch (%08x != %08x)", got, want)
	}
	r := &Reader{f: f, buf: body, off: len(f.Magic)}
	if ver := r.U32(); ver != f.Version {
		return nil, fmt.Errorf("%s: unsupported %s version %d", f.Pkg, f.Name, ver)
	}
	return r, nil
}

// Err returns the first error a read latched.
func (r *Reader) Err() error { return r.err }

// Done returns the first latched error, or an error if any field bytes
// are left unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = r.f.errorf("has %d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(k int) []byte {
	if r.err != nil {
		return nil
	}
	if k < 0 || k > r.remaining() {
		r.err = r.f.errorf("truncated at byte %d", len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+k]
	r.off += k
	return b
}

// field is take for a fixed-size field: once a read has failed it
// returns k zero bytes.
func (r *Reader) field(k int) []byte {
	if b := r.take(k); b != nil {
		return b
	}
	return make([]byte, k)
}

// U8, U16, U32, U64 and F64 read one little-endian field.
func (r *Reader) U8() uint8    { return r.field(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.field(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.field(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.field(8)) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a byte and reports whether it is 1.
func (r *Reader) Bool() bool { return r.U8() == 1 }

// F64s reads k float64s into a new slice; it allocates nothing when the
// bytes are not there.
func (r *Reader) F64s(k int) []float64 {
	b := r.take(8 * k)
	if b == nil {
		return nil
	}
	out := make([]float64, k)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Bytes returns the next k bytes, aliasing the snapshot.
func (r *Reader) Bytes(k int) []byte { return r.take(k) }

// Str reads a string written by Writer.Str.
func (r *Reader) Str() string { return string(r.take(int(r.U16()))) }

// Count reads a uint32 count of what (say, "open episodes"), each of
// which takes at least one byte: a count larger than the bytes left
// latches an error and reads as 0.
func (r *Reader) Count(what string) int {
	n := int(r.U32())
	if r.err == nil && n > r.remaining() {
		r.err = r.f.errorf("claims %d %s in %d bytes", n, what, r.remaining())
	}
	if r.err != nil {
		return 0
	}
	return n
}
