package backend_test

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/evt"
)

// wrappedDSPOTConfig keeps the tail rings small enough to wrap on the
// dspot fixture: at level 0.95 a star's calibration leaves about 19
// excesses, so a 24-excess ring is grown to its cap and then evicts
// within the 300 test frames.
func wrappedDSPOTConfig() backend.DSPOTConfig {
	return backend.DSPOTConfig{Level: 0.95, Q: 1e-3, Depth: 20,
		Refit: evt.RefitPolicy{Every: 16, DriftTolerance: 0.3, MaxExcesses: 24, Boundary: 0.1}}
}

// wrappedDSPOTStage returns a fluxev+dspot stage under wrappedDSPOTConfig,
// warmed on the first frames of the dspot fixture's test split.
func wrappedDSPOTStage(tb testing.TB, frames int) *backend.DSPOTStage {
	tb.Helper()
	d := dspotTestData()
	spec, _ := backend.Get(baselines.KindFluxEV)
	artifact, err := spec.Train(d.Train, backend.SmallOptions())
	if err != nil {
		tb.Fatal(err)
	}
	stage, err := backend.OpenAdaptive(spec, artifact, wrappedDSPOTConfig(), d.Train)
	if err != nil {
		tb.Fatal(err)
	}
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < frames; ti++ {
		frame.Time = d.Test.Time[ti]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		if _, err := stage.Push(frame); err != nil {
			tb.Fatal(err)
		}
	}
	return stage
}

// TestDSPOTStageSnapshotBytesPinned pins, by length and FNV-1a hash, the
// snapshot of a fluxev+dspot stage warmed on 250 test frames of the dspot
// fixture, a cut at which a star's excess ring has wrapped (its eviction
// cursor is not 0) after its ring grew from 18 or 19 calibration
// excesses to the cap of 24. A checkpoint on disk restores only while
// they hold. The tail fits' floats differ with the FMA setting, so the
// pin has a column per math.Exp implementation, as core's
// TestSnapshotBytesPinned does.
func TestDSPOTStageSnapshotBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("DSPOT snapshot bytes are pinned on amd64")
	}
	var column int
	switch got := math.Float64bits(math.Exp(-0.1875)); got {
	case 0x3fea876812c0877b:
		column = 0
	case 0x3fea876812c0877c:
		column = 1
	default:
		t.Skipf("math.Exp(-0.1875) = %#x is neither implementation the hashes were recorded with", got)
	}
	blob, err := wrappedDSPOTStage(t, 250).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Spots []evt.DSPOTState `json:"spots"`
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	wrapped := false
	for _, sp := range st.Spots {
		wrapped = wrapped || sp.SPOT.Evict != 0
	}
	if !wrapped {
		t.Fatal("no star's ring has wrapped; the pin does not cover eviction")
	}
	// math.Exp with FMA, without.
	size := [2]int{4571, 4567}[column]
	want := [2]uint64{0x9276467818bfdcb0, 0x60c57ffb03bef8b0}[column]
	h := fnv.New64a()
	h.Write(blob)
	if len(blob) != size || h.Sum64() != want {
		t.Fatalf("snapshot is %d bytes with hash %#x, pinned %d bytes with %#x", len(blob), h.Sum64(), size, want)
	}
}

// stageSnapshot mirrors the JSON of a DSPOTStage snapshot, so a test can
// rewrite one field of a valid blob.
type stageSnapshot struct {
	Kind    string           `json:"kind"`
	Version int              `json:"version"`
	Inner   []byte           `json:"inner"`
	Spots   []evt.DSPOTState `json:"spots"`
}

// editSnapshot returns blob with edit applied to its tail states.
func editSnapshot(tb testing.TB, blob []byte, edit func(spots []evt.DSPOTState)) []byte {
	tb.Helper()
	var st stageSnapshot
	if err := json.Unmarshal(blob, &st); err != nil {
		tb.Fatal(err)
	}
	edit(st.Spots)
	out, err := json.Marshal(st)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestDSPOTStageRestoreRejectsBadWindowPos: a checkpoint whose first
// star's drift-window position is 99 (the window holds 20) is refused,
// and the stage's snapshot is byte-equal before and after. Before the
// fix it restored and the next push panicked, indexing the window out of
// range.
func TestDSPOTStageRestoreRejectsBadWindowPos(t *testing.T) {
	stage := wrappedDSPOTStage(t, 250)
	before, err := stage.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	bad := editSnapshot(t, before, func(spots []evt.DSPOTState) { spots[0].Pos = 99 })
	if err := stage.RestoreState(bad); err == nil || !strings.Contains(err.Error(), "position 99") {
		t.Fatalf("restore of window position 99: error %v", err)
	}
	after, err := stage.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused restore changed the stage")
	}
}

// TestDSPOTStageRestoreRejectsForeignTail: a checkpoint whose star carries
// another risk level or q than the stage's config, counts outside
// 0 ≤ peaks ≤ n, or a value past ±1e150 is refused, and the stage's
// snapshot is byte-equal before and after. Before
// the fix each restored: q −1 turned star 0's threshold NaN within 35
// frames, after which every snapshot failed to encode; q 0.9 made star 0
// alarm on 365 of the next 400 frames (2 unedited); n −5 silently moved
// the threshold.
func TestDSPOTStageRestoreRejectsForeignTail(t *testing.T) {
	stage := wrappedDSPOTStage(t, 250)
	before, err := stage.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(spots []evt.DSPOTState)
	}{
		{"q-negative", "q -1", func(spots []evt.DSPOTState) { spots[0].SPOT.Q = -1 }},
		{"q-0.9", "q 0.9", func(spots []evt.DSPOTState) { spots[0].SPOT.Q = 0.9 }},
		{"level-7", "level 7", func(spots []evt.DSPOTState) { spots[1].SPOT.Level = 7 }},
		{"n-negative", "n -5", func(spots []evt.DSPOTState) { spots[0].SPOT.N = -5 }},
		{"peaks-negative", "peaks -1", func(spots []evt.DSPOTState) { spots[2].SPOT.Peaks = -1 }},
		{"since-refit-negative", "since_refit -2", func(spots []evt.DSPOTState) { spots[1].SPOT.SinceRefit = -2 }},
		{"peaks-above-n", "peaks 29", func(spots []evt.DSPOTState) { spots[0].SPOT.N = 28 }},
		{"window-1e300", "beyond", func(spots []evt.DSPOTState) { spots[2].Win[3] = 1e300 }},
		{"sumsq-1e301", "beyond", func(spots []evt.DSPOTState) { spots[1].SPOT.SumSq = 1e301 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := editSnapshot(t, before, tc.edit)
			if err := stage.RestoreState(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore: error %v, want one containing %q", err, tc.want)
			}
			after, err := stage.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("refused restore changed the stage")
			}
		})
	}
}

// FuzzDSPOTStageRestoreState feeds arbitrary bytes to RestoreState of a
// warm fluxev+dspot stage whose rings have wrapped. A failed restore must
// leave the stage's snapshot byte-equal to the one before it; a
// successful one must be idempotent (snapshot → restore → snapshot), the
// 64 pushes that follow it must not panic, and the stage must still
// snapshot after them. The seed corpus holds the stage's own snapshot,
// copies with a drift-window position of 99 and −1, eviction cursors out
// of range, a drift-window depth that does not match, a q of −1 and 0.9,
// a level of 7, an n of −5, a star whose next refit overflows its
// quantile, and a truncation.
func FuzzDSPOTStageRestoreState(f *testing.F) {
	stage := wrappedDSPOTStage(f, 250)
	valid, err := stage.SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, edit := range []func(spots []evt.DSPOTState){
		func(spots []evt.DSPOTState) { spots[0].Pos = 99 },
		func(spots []evt.DSPOTState) { spots[1].Pos = -1 },
		func(spots []evt.DSPOTState) { spots[0].SPOT.Evict = 1000 },
		func(spots []evt.DSPOTState) { spots[2].SPOT.Evict = -3 },
		func(spots []evt.DSPOTState) { spots[0].Depth, spots[0].Win = 19, spots[0].Win[:19] },
		func(spots []evt.DSPOTState) { spots[0].SPOT.Q = -1 },
		func(spots []evt.DSPOTState) { spots[0].SPOT.Q = 0.9 },
		func(spots []evt.DSPOTState) { spots[1].SPOT.Level = 7 },
		func(spots []evt.DSPOTState) { spots[0].SPOT.N = -5 },
		// Found by this fuzzer: a star with an emptied ring, a near-empty
		// drift window and a tail fraction of 29 in 6·10⁹ refits on eight
		// near-equal excesses, whose quantile overflowed to −Inf.
		func(spots []evt.DSPOTState) {
			st := &spots[1]
			st.SPOT.N, st.SPOT.Model, st.SPOT.Excesses = 6234912695, evt.GPD{}, nil
			clear(st.Win)
			st.Win[6], st.Win[9], st.Sum = 0.18220372770493198, 0.4076814799159677, 0.18988520762089967
		},
	} {
		f.Add(editSnapshot(f, valid, edit))
	}
	f.Add(valid[:len(valid)-3])
	d := dspotTestData()
	f.Fuzz(func(t *testing.T, blob []byte) {
		before, err := stage.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		// Put the stage back whatever the verdict, so one failing input
		// does not fail every input tried after it (the minimizer's too).
		defer func() {
			if err := stage.RestoreState(before); err != nil {
				t.Errorf("restoring the stage's own snapshot: %v", err)
			}
		}()
		if err := stage.RestoreState(blob); err != nil {
			if after, _ := stage.SnapshotState(); !bytes.Equal(before, after) {
				t.Fatalf("failed restore (%v) changed the stage", err)
			}
			return
		}
		once, err := stage.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if err := stage.RestoreState(once); err != nil {
			t.Fatalf("restoring its own snapshot: %v", err)
		}
		if twice, _ := stage.SnapshotState(); !bytes.Equal(once, twice) {
			t.Fatal("snapshot → restore → snapshot is not idempotent")
		}
		frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
		last, _ := stage.LastTime()
		for i := range 64 {
			frame.Time = last + float64(i+1)
			for v := range frame.Magnitudes {
				frame.Magnitudes[v] = d.Test.Data[v][i]
			}
			stage.Push(frame) // an error is an answer; a panic is not
		}
		if _, err := stage.SnapshotState(); err != nil {
			t.Fatalf("snapshot after a restore and 64 pushes: %v", err)
		}
	})
}
