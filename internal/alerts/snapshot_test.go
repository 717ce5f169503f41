package alerts

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"aero/internal/engine"
)

// warmPipeline feeds enough of the recorded sequence to leave episodes,
// candidates and lead-lag history in flight.
func warmPipeline(t testing.TB) *Pipeline {
	t.Helper()
	p := NewPipeline(testConfig())
	seq := recordedSequence()
	for _, a := range seq {
		if a.Time >= 540 {
			break
		}
		p.Push(a)
	}
	st := p.Stats()
	if st.OpenEpisodes == 0 || st.Incidents == 0 {
		t.Fatalf("warm pipeline not representative: %+v", st)
	}
	return p
}

// TestTriageSnapshotRoundTrip checks a restored pipeline reports the
// same counters and produces an identical second snapshot.
func TestTriageSnapshotRoundTrip(t *testing.T) {
	p := warmPipeline(t)
	blob, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	q := NewPipeline(testConfig())
	if err := q.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got, want := q.Stats(), p.Stats(); got != want {
		t.Fatalf("restored stats %+v != %+v", got, want)
	}
	blob2, err := q.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("snapshot → restore → snapshot is not idempotent")
	}
}

// TestTriageSnapshotValidation proves a corrupt, truncated or mismatched
// snapshot is rejected before any pipeline state is touched.
func TestTriageSnapshotValidation(t *testing.T) {
	p := warmPipeline(t)
	blob, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *Pipeline { return NewPipeline(testConfig()) }
	intact := func(t *testing.T, q *Pipeline) {
		t.Helper()
		if st := q.Stats(); st.Alarms != 0 || st.OpenEpisodes != 0 {
			t.Fatalf("failed restore mutated the pipeline: %+v", st)
		}
	}

	t.Run("bit flip", func(t *testing.T) {
		for _, off := range []int{4, len(blob) / 2, len(blob) - 8} {
			bad := append([]byte(nil), blob...)
			bad[off] ^= 0x40
			q := fresh()
			if err := q.RestoreState(bad); err == nil {
				t.Fatalf("accepted snapshot with bit flip at %d", off)
			}
			intact(t, q)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 7, len(blob) / 3, len(blob) - 1} {
			q := fresh()
			if err := q.RestoreState(blob[:n]); err == nil {
				t.Fatalf("accepted snapshot truncated to %d bytes", n)
			}
			intact(t, q)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		copy(bad, "NOTTRIAG")
		q := fresh()
		if err := q.RestoreState(bad); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("bad magic: %v", err)
		}
		intact(t, q)
	})
	t.Run("config mismatch", func(t *testing.T) {
		// Episode and candidate state is only meaningful under the
		// time-domain parameters that built it.
		cfg := testConfig()
		cfg.Window = 25
		q := NewPipeline(cfg)
		if err := q.RestoreState(blob); err == nil || !strings.Contains(err.Error(), "config") {
			t.Fatalf("config mismatch: %v", err)
		}
		intact(t, q)
	})
	t.Run("good restore still works after rejects", func(t *testing.T) {
		q := fresh()
		for _, n := range []int{9, 40} {
			_ = q.RestoreState(blob[:n])
		}
		if err := q.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTriageSnapshotBytesPinned pins the AEROTRIA bytes of warmPipeline by
// length and FNV-1a hash. A checkpoint on disk restores only while they
// hold. They are testdata/triage_v1.bin less its dedup filter, under
// version 2.
func TestTriageSnapshotBytesPinned(t *testing.T) {
	blob, err := warmPipeline(t).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	const size, want = 817, 0x200fa3a3b902ba20
	h := fnv.New64a()
	h.Write(blob)
	if len(blob) != size || h.Sum64() != want {
		t.Fatalf("snapshot is %d bytes with hash %#x, pinned %d bytes with %#x", len(blob), h.Sum64(), size, uint64(want))
	}
}

// TestTriageSnapshotRejectsLongTenantID: a tenant ID too long for the
// format's uint16 length field makes SnapshotState fail. Before, the
// length wrapped and the checkpoint was one no RestoreState accepts. The
// longest ID that fits still round-trips.
func TestTriageSnapshotRejectsLongTenantID(t *testing.T) {
	for _, tc := range []struct {
		len int
		ok  bool
	}{{1<<16 - 1, true}, {70000, false}} {
		p := NewPipeline(testConfig())
		p.Push(alarm(strings.Repeat("x", tc.len), 0, 1, 5))
		if st := p.Stats(); st.OpenEpisodes != 1 {
			t.Fatalf("%d-byte ID: %d open episodes, want 1", tc.len, st.OpenEpisodes)
		}
		blob, err := p.SnapshotState()
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "70000-byte string") {
				t.Fatalf("%d-byte ID: SnapshotState returned %d bytes and %v", tc.len, len(blob), err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		q := NewPipeline(testConfig())
		if err := q.RestoreState(blob); err != nil {
			t.Fatalf("%d-byte ID: %v", tc.len, err)
		}
		if got, want := q.Stats(), p.Stats(); got != want {
			t.Fatalf("%d-byte ID: restored stats %+v != %+v", tc.len, got, want)
		}
	}
}

// FuzzTriageRestoreState feeds arbitrary bytes to RestoreState of a
// pipeline warmed like warmPipeline, as given and with the trailing CRC
// recomputed, so mutations also reach the fields behind the checksum. A
// failed restore must leave the pipeline's snapshot byte-equal to the one
// before it; a successful one must be idempotent (snapshot → restore →
// snapshot). The seed corpus holds warmPipeline's version 2 snapshot
// (warm-v2) and version 1 snapshots written with a 256-cell dedup filter:
// at warmPipeline's cut (warm-small-filter, and
// TestTriageSnapshotValidation's corrupt cases built from it) and at the
// fuzzed pipeline's (v1-fuzz-pipeline). The pipeline itself is 20 alarm
// times past the cut, so a restore that commits before it fails shows in
// its snapshot.
func FuzzTriageRestoreState(f *testing.F) {
	p := NewPipeline(testConfig())
	for _, a := range recordedSequence() {
		if a.Time >= 560 {
			break
		}
		p.Push(a)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkRestore(t, p, blob)
		if len(blob) >= 4 {
			body := blob[:len(blob)-4]
			checkRestore(t, p, binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)))
		}
	})
}

// checkRestore is the fuzzer's oracle; it leaves p as it found it.
func checkRestore(t *testing.T, p *Pipeline, blob []byte) {
	before, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreState(blob); err != nil {
		if after, _ := p.SnapshotState(); !bytes.Equal(before, after) {
			t.Fatalf("failed restore (%v) changed the pipeline", err)
		}
		return
	}
	once, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RestoreState(once); err != nil {
		t.Fatalf("restoring its own snapshot: %v", err)
	}
	if twice, _ := p.SnapshotState(); !bytes.Equal(once, twice) {
		t.Fatal("snapshot → restore → snapshot is not idempotent")
	}
	if err := p.RestoreState(before); err != nil {
		t.Fatal(err)
	}
}

// TestTriageRestoresV1Checkpoint restores testdata/triage_v1.bin — the
// version 1 AEROTRIA blob of warmPipeline, written with the default
// 65,536-cell dedup filter — feeds the rest of the recorded sequence and
// requires exactly the incidents an uninterrupted run emits from the
// same alarm on. A checkpoint written before the format changed keeps
// resuming.
func TestTriageRestoresV1Checkpoint(t *testing.T) {
	blob, err := os.ReadFile("testdata/triage_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob)
	if len(blob) != 66370 || h.Sum64() != 0xa170861d019b1d8b {
		t.Fatalf("fixture is %d bytes with hash %#x, want warmPipeline's version 1 blob", len(blob), h.Sum64())
	}
	seq := recordedSequence()
	cut := 0
	for cut < len(seq) && seq[cut].Time < 540 {
		cut++
	}
	finish := func(p *Pipeline, rest []engine.Alarm) string {
		incs := feed(p, rest)
		for _, inc := range p.Finalize() {
			inc.Episodes = append([]Episode(nil), inc.Episodes...)
			incs = append(incs, inc)
		}
		return renderIncidents(incs)
	}
	whole := NewPipeline(testConfig())
	feed(whole, seq[:cut])
	want := finish(whole, seq[cut:])

	p := NewPipeline(testConfig())
	if err := p.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := finish(p, seq[cut:]); got != want {
		t.Fatalf("restored v1 checkpoint diverged:\n--- uninterrupted ---\n%s\n--- restored ---\n%s", want, got)
	}
	if want == "" {
		t.Fatal("no incidents after the cut; the test is vacuous")
	}
}
