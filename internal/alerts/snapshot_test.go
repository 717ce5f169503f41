package alerts

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"aero/internal/engine"
)

// warmPipeline feeds enough of the recorded sequence to leave episodes
// and candidates in flight.
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
// hold. They are testdata/triage_v2.bin less its (empty) lead-lag pair
// section, under version 3.
func TestTriageSnapshotBytesPinned(t *testing.T) {
	blob, err := warmPipeline(t).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	const size, want = 813, 0x8cfc51da90c19dc5
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
// snapshot). The seed corpus holds warmPipeline's version 3 snapshot
// (warm-v3) and, as inputs in the legacy versions restore still reads,
// its version 2 snapshot (warm-v2), testdata/triage_v2_leadlag.bin
// (v2-leadlag, a version 2 snapshot carrying lead-lag pair histograms)
// and version 1 snapshots written with a 256-cell dedup filter: at
// warmPipeline's cut (warm-small-filter, and TestTriageSnapshotValidation's
// corrupt cases built from it) and at the fuzzed pipeline's
// (v1-fuzz-pipeline). The pipeline itself is 20 alarm times past the cut,
// so a restore that commits before it fails shows in its snapshot.
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

// TestTriageRestoresV1Checkpoint restores each checked-in AEROTRIA blob
// written by an earlier format version, feeds the rest of the recorded
// sequence and requires exactly the incidents an uninterrupted run emits
// from the same alarm on. A checkpoint written before the format changed
// keeps resuming. The blobs are warmPipeline's at version 1
// (testdata/triage_v1.bin, with the default 65,536-cell dedup filter) and
// version 2 (testdata/triage_v2.bin), and a version 2 blob cut at time 800
// (testdata/triage_v2_leadlag.bin), after the cross-tenant event's
// incident has filled 15 lead-lag pair histograms.
func TestTriageRestoresV1Checkpoint(t *testing.T) {
	seq := recordedSequence()
	finish := func(p *Pipeline, rest []engine.Alarm) string {
		incs := feed(p, rest)
		for _, inc := range p.Finalize() {
			inc.Episodes = append([]Episode(nil), inc.Episodes...)
			incs = append(incs, inc)
		}
		return renderIncidents(incs)
	}
	for _, tc := range []struct {
		name, file string
		cut        float64 // the recorded time the blob was taken at
		size       int
		hash       uint64
	}{
		{"v1", "testdata/triage_v1.bin", 540, 66370, 0xa170861d019b1d8b},
		{"v2", "testdata/triage_v2.bin", 540, 817, 0x200fa3a3b902ba20},
		{"v2-leadlag", "testdata/triage_v2_leadlag.bin", 800, 2764, 0xd26fbc6b34f4442b},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(blob)
			if len(blob) != tc.size || h.Sum64() != tc.hash {
				t.Fatalf("fixture is %d bytes with hash %#x, want %d bytes with %#x", len(blob), h.Sum64(), tc.size, tc.hash)
			}
			cut := 0
			for cut < len(seq) && seq[cut].Time < tc.cut {
				cut++
			}
			whole := NewPipeline(testConfig())
			feed(whole, seq[:cut])
			want := finish(whole, seq[cut:])
			if want == "" {
				t.Fatal("no incidents after the cut; the test is vacuous")
			}
			p := NewPipeline(testConfig())
			if err := p.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			if got := finish(p, seq[cut:]); got != want {
				t.Fatalf("restored %s checkpoint diverged:\n--- uninterrupted ---\n%s\n--- restored ---\n%s", tc.name, want, got)
			}
		})
	}
}

// TestTriageStateLinearInTenants: a finalized pipeline holds no episode
// and no candidate, so its snapshot is the same length whether the one
// lockstep incident behind it reached 8 tenants or 500. Triage state is
// linear in open episodes and pending candidates; nothing it keeps grows
// with the pairs of tenants that once shared an incident.
func TestTriageStateLinearInTenants(t *testing.T) {
	size := func(tenants int) int {
		p := NewPipeline(testConfig())
		for ti := 0.0; ti < 20; ti++ {
			for i := 0; i < tenants; i++ {
				p.Push(alarm(fmt.Sprintf("field-%03d", i), 0, ti, 2))
			}
		}
		incs := p.Finalize()
		if len(incs) != 1 || incs[0].Tenants != tenants {
			t.Fatalf("%d lockstep tenants: %s; want one incident reaching all of them", tenants, renderIncidents(incs))
		}
		blob, err := p.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return len(blob)
	}
	if small, large := size(8), size(500); small != large {
		t.Fatalf("finalized snapshot is %d B after an 8-tenant incident and %d B after a 500-tenant one", small, large)
	}
}
