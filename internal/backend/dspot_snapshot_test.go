package backend_test

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/evt"
)

// servingDSPOTConfig is the stage's serving config at level 0.95, so the
// dspot fixture's calibration leaves about 19 excesses per star.
func servingDSPOTConfig() backend.DSPOTConfig {
	cfg := backend.DefaultDSPOTConfig()
	cfg.Level = 0.95
	return cfg
}

// warmDSPOTStage returns a fluxev+dspot stage under cfg, warmed on the
// first frames of the dspot fixture's test split.
func warmDSPOTStage(tb testing.TB, cfg backend.DSPOTConfig, frames int) *backend.DSPOTStage {
	tb.Helper()
	d := dspotTestData()
	spec, _ := backend.Get(baselines.KindFluxEV)
	artifact, err := spec.Train(d.Train, backend.SmallOptions())
	if err != nil {
		tb.Fatal(err)
	}
	stage, err := backend.OpenAdaptive(spec, artifact, cfg, d.Train)
	if err != nil {
		tb.Fatal(err)
	}
	pushFrames(tb, stage, 0, frames)
	return stage
}

// pushFrames pushes frames [lo, hi) of the dspot fixture's test split
// and returns the alarms they raise.
func pushFrames(tb testing.TB, stage *backend.DSPOTStage, lo, hi int) []alarmKey {
	tb.Helper()
	d := dspotTestData()
	var out []alarmKey
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := lo; ti < hi; ti++ {
		frame.Time = d.Test.Time[ti]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		alarms, err := stage.Push(frame)
		if err != nil {
			tb.Fatal(err)
		}
		for _, a := range alarms {
			out = append(out, alarmKey{v: a.Variate, t: a.Time, sc: a.Score})
		}
	}
	return out
}

// wrappedCheckpoint is testdata/dspot_stage_wrapped.json: the version 1
// snapshot of a fluxev+dspot stage of the dspot fixture at level 0.95
// after 250 test frames, taken by a build that refitted each star's level
// online over an excess ring of 24, every 16 exceedances. Each star's ring
// has wrapped. A serving stage ignores the rings and alarms at each
// star's snapshotted Z.
func wrappedCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	blob, err := os.ReadFile("testdata/dspot_stage_wrapped.json")
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// expColumn returns the column of a pin recorded once per math.Exp
// implementation: 0 with FMA, 1 without. It skips off amd64, and on a
// math.Exp that is neither.
func expColumn(tb testing.TB) int {
	tb.Helper()
	if runtime.GOARCH != "amd64" {
		tb.Skip("DSPOT snapshot bytes are pinned on amd64")
	}
	switch got := math.Float64bits(math.Exp(-0.1875)); got {
	case 0x3fea876812c0877b:
		return 0
	case 0x3fea876812c0877c:
		return 1
	default:
		tb.Skipf("math.Exp(-0.1875) = %#x is neither implementation the hashes were recorded with", got)
	}
	return 0
}

// checkpointDSPOTStage returns a serving stage of the dspot fixture at
// level 0.95 restored from the wrapped checkpoint, 250 frames in.
func checkpointDSPOTStage(tb testing.TB) *backend.DSPOTStage {
	tb.Helper()
	stage := warmDSPOTStage(tb, servingDSPOTConfig(), 0)
	if err := stage.RestoreState(wrappedCheckpoint(tb)); err != nil {
		tb.Fatal(err)
	}
	return stage
}

// checkBlob fails unless blob is size bytes with FNV-1a hash want.
func checkBlob(tb testing.TB, what string, blob []byte, size int, want uint64) {
	tb.Helper()
	h := fnv.New64a()
	h.Write(blob)
	if len(blob) != size || h.Sum64() != want {
		tb.Fatalf("%s is %d bytes with hash %#x, pinned %d bytes with %#x", what, len(blob), h.Sum64(), size, want)
	}
}

// snapshotSpots decodes the tail states of a stage snapshot.
func snapshotSpots(tb testing.TB, blob []byte) []evt.DSPOTState {
	tb.Helper()
	var st stageSnapshot
	if err := json.Unmarshal(blob, &st); err != nil {
		tb.Fatal(err)
	}
	return st.Spots
}

// TestDSPOTStageRestoresWrappedCheckpoint restores the version 1 wrapped
// checkpoint into a serving stage of the same level. The fixture's bytes
// are checked first, as the snapshot pin that wrote them hashed them. The
// stage's version 2 re-snapshot, which keeps each star's Z and drops its
// ring, and the alarms of the 50 frames after the cut are pinned. Neither
// depends on the FMA setting.
func TestDSPOTStageRestoresWrappedCheckpoint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("DSPOT snapshot bytes are pinned on amd64")
	}
	blob := wrappedCheckpoint(t)
	checkBlob(t, "the fixture", blob, 4571, 0x9276467818bfdcb0)
	stage := warmDSPOTStage(t, servingDSPOTConfig(), 0)
	if err := stage.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	again, err := stage.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	checkBlob(t, "the restored stage's snapshot", again, 2720, 0x40e9ec9dc171704a)
	for v, sp := range snapshotSpots(t, blob) {
		if got := snapshotSpots(t, again)[v].SPOT; got.Z != sp.SPOT.Z {
			t.Fatalf("star %d restored level %v, the checkpoint's Z is %v", v, got.Z, sp.SPOT.Z)
		}
	}
	got := pushFrames(t, stage, 250, 300)
	want := []alarmKey{{0, 250, 2.123637320305437}, {1, 250, 1.093280079510654}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frames 250-299 raised %v, want %v", got, want)
	}
}

// TestDSPOTStageServingSnapshotBytesPinned pins, by length and FNV-1a
// hash, the snapshot of a serving fluxev+dspot stage at level
// 0.95 warmed on 250 test frames of the dspot fixture. A checkpoint on
// disk restores only while they hold. The tail fits' floats differ with
// the FMA setting, so the pin has a column per math.Exp implementation,
// as core's TestSnapshotBytesPinned does.
func TestDSPOTStageServingSnapshotBytesPinned(t *testing.T) {
	column := expColumn(t)
	blob, err := warmDSPOTStage(t, servingDSPOTConfig(), 250).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// math.Exp with FMA, without.
	size := [2]int{2720, 2718}[column]
	want := [2]uint64{0x1d4e0e94fcb20008, 0xa9cb6b95923ff556}[column]
	checkBlob(t, "the snapshot", blob, size, want)
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
	stage := checkpointDSPOTStage(t)
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
// snapshot is byte-equal before and after. Before the fix each restored:
// q −1 turned star 0's threshold NaN within 35 frames, after which every
// snapshot failed to encode; q 0.9 made star 0 alarm on 365 of the next
// 400 frames (2 unedited); n −5 silently moved the threshold.
func TestDSPOTStageRestoreRejectsForeignTail(t *testing.T) {
	stage := checkpointDSPOTStage(t)
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
		{"peaks-above-n", "peaks 29", func(spots []evt.DSPOTState) { spots[0].SPOT.N = 28 }},
		{"window-1e300", "beyond", func(spots []evt.DSPOTState) { spots[2].Win[3] = 1e300 }},
		{"z-1e300", "beyond", func(spots []evt.DSPOTState) { spots[1].SPOT.Z = 1e300 }},
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
// fluxev+dspot stage restored from the wrapped checkpoint. A failed
// restore must leave the stage's snapshot byte-equal to the one before
// it; a successful one must be idempotent (snapshot → restore →
// snapshot), the 64 pushes that follow it must not panic, and the stage
// must still snapshot after them. The seed corpus holds the stage's own
// snapshot, copies with a drift-window position of 99 and −1, peaks of −1
// and above n, a drift-window depth that does not match, a q of −1 and
// 0.9, a level of 7, an n of −5, a star with an empty model and a
// near-empty window, a truncation, and the wrapped checkpoint itself, a
// version 1 blob whose rings are ignored.
func FuzzDSPOTStageRestoreState(f *testing.F) {
	stage := checkpointDSPOTStage(f)
	valid, err := stage.SnapshotState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, edit := range []func(spots []evt.DSPOTState){
		func(spots []evt.DSPOTState) { spots[0].Pos = 99 },
		func(spots []evt.DSPOTState) { spots[1].Pos = -1 },
		func(spots []evt.DSPOTState) { spots[2].SPOT.Peaks = -1 },
		func(spots []evt.DSPOTState) { spots[0].SPOT.Peaks = spots[0].SPOT.N + 1 },
		func(spots []evt.DSPOTState) { spots[0].Depth, spots[0].Win = 19, spots[0].Win[:19] },
		func(spots []evt.DSPOTState) { spots[0].SPOT.Q = -1 },
		func(spots []evt.DSPOTState) { spots[0].SPOT.Q = 0.9 },
		func(spots []evt.DSPOTState) { spots[1].SPOT.Level = 7 },
		func(spots []evt.DSPOTState) { spots[0].SPOT.N = -5 },
		// Found by this fuzzer while levels were refitted online: a star
		// with a near-empty drift window and a tail fraction of 29 in 6·10⁹,
		// whose next refit's quantile overflowed to −Inf. A level is now
		// never recomputed, so the star keeps its restored Z.
		func(spots []evt.DSPOTState) {
			st := &spots[1]
			st.SPOT.N, st.SPOT.Model = 6234912695, evt.GPD{}
			clear(st.Win)
			st.Win[6], st.Win[9], st.Sum = 0.18220372770493198, 0.4076814799159677, 0.18988520762089967
		},
	} {
		f.Add(editSnapshot(f, valid, edit))
	}
	f.Add(valid[:len(valid)-3])
	f.Add(wrappedCheckpoint(f))
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
