package snapfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

var testFormat = Format{Magic: "TESTSNAP", Version: 3, Pkg: "snapfmt", Name: "test state"}

func sealed(t *testing.T, fill func(w *Writer)) []byte {
	t.Helper()
	w := NewWriter(testFormat, 64)
	fill(w)
	blob, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestRoundTrip writes one field of every kind and reads it back: the
// bytes are the little-endian layout the package documents, and every
// value returns bit for bit.
func TestRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	blob := sealed(t, func(w *Writer) {
		w.U8(7)
		w.U16(0xbeef)
		w.U32(0xdeadbeef)
		w.U64(1 << 60)
		w.F64(nan)
		w.Bool(true)
		w.Bool(false)
		w.F64s([]float64{-0.5, math.Inf(1)})
		w.Bytes([]byte{1, 2, 3})
		w.Str("field-0")
	})
	want := []byte("TESTSNAP")
	want = binary.LittleEndian.AppendUint32(want, 3)
	want = append(want, 7, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde)
	want = binary.LittleEndian.AppendUint64(want, 1<<60)
	want = binary.LittleEndian.AppendUint64(want, 0x7ff8000000000001)
	want = append(want, 1, 0)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(-0.5))
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(math.Inf(1)))
	want = append(want, 1, 2, 3, 7, 0)
	want = append(want, "field-0"...)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(blob, want) {
		t.Fatalf("sealed\n% x\nwant\n% x", blob, want)
	}

	r, err := Open(testFormat, blob)
	if err != nil {
		t.Fatal(err)
	}
	if r.U8() != 7 || r.U16() != 0xbeef || r.U32() != 0xdeadbeef || r.U64() != 1<<60 ||
		math.Float64bits(r.F64()) != 0x7ff8000000000001 || !r.Bool() || r.Bool() {
		t.Fatal("scalar fields did not round-trip")
	}
	if xs := r.F64s(2); xs[0] != -0.5 || !math.IsInf(xs[1], 1) {
		t.Fatalf("F64s read %v", xs)
	}
	if b := r.Bytes(3); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Bytes read %v", b)
	}
	if s := r.Str(); s != "field-0" {
		t.Fatalf("Str read %q", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejects walks Open's checks in order: length, magic, CRC,
// version.
func TestOpenRejects(t *testing.T) {
	blob := sealed(t, func(w *Writer) { w.U64(42) })
	reseal := func(b []byte) []byte {
		body := b[:len(b)-4]
		return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
	}
	badMagic := append([]byte(nil), blob...)
	badMagic[0] = 'X'
	flipped := append([]byte(nil), blob...)
	flipped[14] ^= 1
	badVersion := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badVersion[8:], 4)
	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"empty", nil, "snapfmt: test state truncated (0 bytes)"},
		{"short", blob[:15], "snapfmt: test state truncated (15 bytes)"},
		{"bad magic", reseal(badMagic), "snapfmt: not a test state snapshot (bad magic)"},
		{"bit flip", flipped, "snapfmt: test state checksum mismatch"},
		{"bad version", reseal(badVersion), "snapfmt: unsupported test state version 4"},
	} {
		if _, err := Open(testFormat, tc.blob); err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestReaderLatches: the first failed read is the error Done returns,
// later reads are zero, and neither F64s nor Count trusts a length the
// bytes cannot hold.
func TestReaderLatches(t *testing.T) {
	blob := sealed(t, func(w *Writer) {
		w.U32(1000)
		w.U32(2)
	})
	r, _ := Open(testFormat, blob)
	if n := r.Count("episodes"); n != 0 {
		t.Fatalf("Count accepted %d items in 4 bytes", n)
	}
	if r.U32() != 0 || r.F64s(1<<20) != nil {
		t.Fatal("reads after a latched error are not zero")
	}
	if err := r.Done(); err == nil || err.Error() != "snapfmt: test state claims 1000 episodes in 4 bytes" {
		t.Fatalf("Done: %v", err)
	}

	r, _ = Open(testFormat, blob)
	if xs := r.F64s(1 << 20); xs != nil {
		t.Fatalf("F64s returned %d values from 8 bytes", len(xs))
	}
	if err := r.Done(); err == nil || err.Error() != "snapfmt: test state truncated at byte 20" {
		t.Fatalf("Done: %v", err)
	}

	r, _ = Open(testFormat, blob)
	r.U32()
	if err := r.Done(); err == nil || err.Error() != "snapfmt: test state has 4 trailing bytes" {
		t.Fatalf("Done: %v", err)
	}
}

// TestWriterLatchesLongString: a string too long for its uint16 length
// is an error from Seal, not a snapshot no reader accepts.
func TestWriterLatchesLongString(t *testing.T) {
	w := NewWriter(testFormat, 0)
	w.Str(strings.Repeat("x", math.MaxUint16))
	w.Str(strings.Repeat("x", math.MaxUint16+1))
	w.U8(1)
	if blob, err := w.Seal(); err == nil || blob != nil {
		t.Fatalf("Seal returned %d bytes and %v", len(blob), err)
	}
}
