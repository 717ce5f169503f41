package engine_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"runtime"
	"testing"

	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/faultinject"
)

// checkpointMidQuarantine replays engine A of
// TestSnapshotRestoreMidQuarantine — a fluxev primary failing every frame
// from 20 on, a fluxev fallback, 60 frames — and returns its checkpoint.
func checkpointMidQuarantine(t testing.TB) []byte {
	artifact := fluxevArtifact(t)
	s := tenantSeries(0).Test
	h := engine.HealthConfig{QuarantineAfter: 3, BackoffFrames: 16, BackoffMax: 4, BackoffJitter: -1, ProbationFrames: 4}
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 8, Health: h})
	sub, err := e.SubscribeBackend("tenant",
		faultinject.New(openFluxev(t, artifact), faultinject.Plan{Seed: 1, From: 20, ErrEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.SetFallback(openFluxev(t, artifact)); err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	for ti := 0; ti < 60; ti++ {
		frame := core.Frame{Time: s.Time[ti], Magnitudes: make([]float64, s.N())}
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = s.Data[v][ti]
		}
		if err := e.Ingest("tenant", frame); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if sub.Health() != engine.HealthQuarantined {
		t.Fatalf("tenant is %v at the checkpoint, want quarantined", sub.Health())
	}
	blob, err := sub.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	wg.Wait()
	return blob
}

// TestSubscriptionSnapshotBytesPinned pins the AEROHLTH bytes of a fluxev
// subscription with a fallback, checkpointed mid-quarantine, by length
// and FNV-1a hash. A checkpoint on disk restores only while they hold.
func TestSubscriptionSnapshotBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("snapshot bytes are pinned on amd64")
	}
	blob := checkpointMidQuarantine(t)
	const size, want = 5196, 0x5d683793de36a85e
	h := fnv.New64a()
	h.Write(blob)
	if len(blob) != size || h.Sum64() != want {
		t.Fatalf("snapshot is %d bytes with hash %#x, pinned %d bytes with %#x", len(blob), h.Sum64(), size, uint64(want))
	}
}

// FuzzSubscriptionRestoreState feeds arbitrary bytes to RestoreState of a
// warm subscription — a fluxev primary, no fallback — as given and with
// the trailing CRC recomputed, so mutations also reach the fields behind
// the checksum. Bytes without the envelope's magic take the legacy path
// into the primary. A failed restore must leave the subscription's
// snapshot byte-equal to the one before it; a successful one must be
// idempotent (snapshot → restore → snapshot). The seed corpus holds the
// pinned mid-quarantine snapshot (whose fallback payload this subscription
// must refuse), the receiver's own snapshot, and
// TestSnapshotRestoreMidQuarantine's corrupt envelope and bare blob.
func FuzzSubscriptionRestoreState(f *testing.F) {
	artifact := fluxevArtifact(f)
	s := tenantSeries(0).Test
	e := engine.New(engine.Config{Shards: 1, Workers: 1})
	f.Cleanup(e.Close)
	sub, err := e.SubscribeBackend("tenant", openFluxev(f, artifact))
	if err != nil {
		f.Fatal(err)
	}
	for ti := 0; ti < 30; ti++ {
		frame := core.Frame{Time: s.Time[ti], Magnitudes: make([]float64, s.N())}
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = s.Data[v][ti]
		}
		if err := e.Ingest("tenant", frame); err != nil {
			f.Fatal(err)
		}
	}
	e.Flush()
	f.Fuzz(func(t *testing.T, blob []byte) {
		checkRestore(t, sub, blob)
		if len(blob) >= 4 {
			body := blob[:len(blob)-4]
			checkRestore(t, sub, binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body)))
		}
	})
}

// checkRestore is the fuzzer's oracle; it leaves sub as it found it.
func checkRestore(t *testing.T, sub *engine.Subscription, blob []byte) {
	before, err := sub.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.RestoreState(blob); err != nil {
		if after, _ := sub.SnapshotState(); !bytes.Equal(before, after) {
			t.Fatalf("failed restore (%v) changed the subscription", err)
		}
		return
	}
	once, err := sub.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.RestoreState(once); err != nil {
		t.Fatalf("restoring its own snapshot: %v", err)
	}
	if twice, _ := sub.SnapshotState(); !bytes.Equal(once, twice) {
		t.Fatal("snapshot → restore → snapshot is not idempotent")
	}
	if err := sub.RestoreState(before); err != nil {
		t.Fatal(err)
	}
}
