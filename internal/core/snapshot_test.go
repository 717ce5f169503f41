package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"aero/internal/dataset"
)

// pushAt builds the t-th test frame and pushes it into det, failing the
// test on error.
func pushAt(t testing.TB, det *StreamDetector, d *dataset.Dataset, idx int) []Alarm {
	t.Helper()
	alarms, err := det.Push(frameAt(d, idx))
	if err != nil {
		t.Fatalf("push %d: %v", idx, err)
	}
	return alarms
}

// frameAt is test frame idx of d.
func frameAt(d *dataset.Dataset, idx int) Frame {
	frame := Frame{Time: d.Test.Time[idx], Magnitudes: make([]float64, d.Test.N())}
	for v := 0; v < d.Test.N(); v++ {
		frame.Magnitudes[v] = d.Test.Data[v][idx]
	}
	return frame
}

// pushExact is the always-exact reference push: it drops det's cached
// activations, then pushes f, so every scored frame runs the full exact
// forward (det.scores holds the frame's scores afterwards). It fails the
// test if det ever served a frame incrementally.
func pushExact(t testing.TB, det *StreamDetector, f Frame) []Alarm {
	t.Helper()
	det.InvalidateIncremental()
	alarms, err := det.Push(f)
	if err != nil {
		t.Fatalf("push at %v: %v", f.Time, err)
	}
	if n := det.IncrementalStats().Incremental; n != 0 {
		t.Fatalf("exact twin served %d frames incrementally", n)
	}
	return alarms
}

func sameAlarms(a, b []Alarm) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // exact float equality on Score included
			return false
		}
	}
	return true
}

// TestSnapshotRestoreBitIdentical pins the warm-restore contract:
// Snapshot→Restore→Push must be bit-identical to uninterrupted Push — the
// restored detector resumes with the full window, the same time cursor and
// the same warm-up counter, and every subsequent score matches to the bit.
// The restored hot path must also stay within the steady-state allocation
// budget.
func TestSnapshotRestoreBitIdentical(t *testing.T) {
	m, d := shared(t)
	w := m.Config().LongWindow
	for _, cut := range []int{w / 2, w + 13} { // cold ring and warm ring snapshots
		uninterrupted, err := NewStreamDetector(m)
		if err != nil {
			t.Fatal(err)
		}
		donor, err := NewStreamDetector(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			pushAt(t, uninterrupted, d, i)
			pushAt(t, donor, d, i)
		}
		blob, err := donor.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := NewStreamDetector(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreState(blob); err != nil {
			t.Fatalf("restore at cut %d: %v", cut, err)
		}
		if restored.Ready() != uninterrupted.Ready() {
			t.Fatalf("cut %d: restored readiness %v, want %v", cut, restored.Ready(), uninterrupted.Ready())
		}
		fired := 0
		for i := cut; i < d.Test.Len(); i++ {
			want := pushAt(t, uninterrupted, d, i)
			got := pushAt(t, restored, d, i)
			if !sameAlarms(want, got) {
				t.Fatalf("cut %d frame %d: restored alarms %+v != uninterrupted %+v", cut, i, got, want)
			}
			fired += len(want)
		}
		if fired == 0 {
			t.Fatalf("cut %d: no alarms fired; bit-identity check is vacuous", cut)
		}
	}

	// Steady-state allocation budget survives a restore.
	donor, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w+5; i++ {
		pushAt(t, donor, d, i)
	}
	blob, err := donor.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	next := d.Test.Time[w+4] + 1
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	allocs := testing.AllocsPerRun(64, func() {
		frame.Time = next
		next++
		if _, err := restored.Push(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("restored detector Push allocates %.1f objects/frame, want <= 2", allocs)
	}
}

// TestSnapshotRestoreDynamicGraph covers the evolving-graph arm of the
// state format: the EWMA adjacency must survive the round-trip so restored
// scores stay bit-identical for the dynamic ablation too.
func TestSnapshotRestoreDynamicGraph(t *testing.T) {
	cfg := testConfig()
	cfg.Variant = VariantDynamicGraph
	cfg.LongWindow = 24
	cfg.ShortWindow = 8
	cfg.ModelDim = 8
	cfg.FFNHidden = 16
	cfg.MaxEpochs = 1
	cfg.TrainStride = 24
	d := dataset.SyntheticConfig{
		Name: "dynsnap", N: 4, TrainLen: 120, TestLen: 90,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 23,
	}.Generate()
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	uninterrupted, _ := NewStreamDetector(m)
	donor, _ := NewStreamDetector(m)
	// Exact pushes: this test pins *raw scores* frame for frame, and on
	// benign frames the restored detector's freshly rebuilt caches would
	// legitimately diverge from the donor's warm ones. Recomputing every
	// window makes any mismatch here a genuine EWMA round-trip bug. Alarm
	// identity on the incremental path is pinned by the golden-replay tests.
	cut := cfg.LongWindow + 9 // past warm-up so the EWMA state has evolved
	for i := 0; i < cut; i++ {
		pushExact(t, uninterrupted, frameAt(d, i))
		pushExact(t, donor, frameAt(d, i))
	}
	blob, err := donor.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := NewStreamDetector(m)
	if err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	for i := cut; i < d.Test.Len(); i++ {
		want := pushExact(t, uninterrupted, frameAt(d, i))
		got := pushExact(t, restored, frameAt(d, i))
		if !sameAlarms(want, got) {
			t.Fatalf("frame %d: restored alarms %+v != uninterrupted %+v", i, got, want)
		}
		ws := append([]float64(nil), uninterrupted.scores...)
		gs := append([]float64(nil), restored.scores...)
		for v := range ws {
			if ws[v] != gs[v] {
				t.Fatalf("frame %d variate %d: restored score %v != %v", i, v, gs[v], ws[v])
			}
		}
	}
}

// reseal recomputes the trailing CRC after test surgery on a snapshot.
func reseal(blob []byte) []byte {
	body := blob[:len(blob)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// TestRestoreStateRejectsCorrupt walks every validation branch of
// RestoreState: truncation, bad magic, bit flips, unknown versions,
// geometry mismatches and trailing garbage must all fail cleanly — and a
// failed restore must leave the detector untouched.
func TestRestoreStateRejectsCorrupt(t *testing.T) {
	m, d := shared(t)
	w := m.Config().LongWindow
	donor, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w+3; i++ {
		pushAt(t, donor, d, i)
	}
	blob, err := donor.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	corrupt := map[string][]byte{}
	corrupt["empty"] = nil
	corrupt["truncated-header"] = append([]byte(nil), blob[:10]...)
	corrupt["truncated-body"] = append([]byte(nil), blob[:len(blob)-20]...)
	badMagic := append([]byte(nil), blob...)
	badMagic[0] ^= 0xff
	corrupt["bad-magic"] = badMagic
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x01
	corrupt["bit-flip"] = flipped
	badVersion := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badVersion[8:], 99)
	corrupt["bad-version"] = reseal(badVersion)
	badN := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badN[12:], uint32(d.Test.N()+1))
	corrupt["variate-mismatch"] = reseal(badN)
	badW := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(badW[16:], uint32(w+1))
	corrupt["window-mismatch"] = reseal(badW)
	trailing := append([]byte(nil), blob[:len(blob)-4]...)
	trailing = append(trailing, 0, 0, 0, 0, 0, 0, 0, 0)
	corrupt["trailing-bytes"] = reseal(append(trailing, 0, 0, 0, 0))

	for name, bad := range corrupt {
		victim, err := NewStreamDetector(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w+3; i++ {
			pushAt(t, victim, d, i)
		}
		if err := victim.RestoreState(bad); err == nil {
			t.Fatalf("%s: RestoreState accepted a corrupt snapshot", name)
		}
		// The failed restore must not have touched the victim: its next
		// frames must match an untouched twin exactly.
		twin, err := NewStreamDetector(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w+3; i++ {
			pushAt(t, twin, d, i)
		}
		for i := w + 3; i < w+6; i++ {
			if !sameAlarms(pushAt(t, twin, d, i), pushAt(t, victim, d, i)) {
				t.Fatalf("%s: failed restore mutated detector state", name)
			}
		}
	}
}

// TestSwapSameWeightsBitIdentical pins the hot-swap invariant at the
// detector level: replaying a feed with a mid-stream Swap to the *same*
// weights (a Save/Load round-trip of the serving model) must be
// bit-identical to never swapping at all — the warm window survives the
// swap and normalizes to the same bits.
func TestSwapSameWeightsBitIdentical(t *testing.T) {
	m, d := shared(t)
	path := filepath.Join(t.TempDir(), "twin.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	twin, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	cut := d.Test.Len() / 2
	fired := 0
	for i := 0; i < d.Test.Len(); i++ {
		if i == cut {
			if err := swapped.Swap(twin); err != nil {
				t.Fatalf("swap: %v", err)
			}
		}
		want := pushAt(t, plain, d, i)
		got := pushAt(t, swapped, d, i)
		if !sameAlarms(want, got) {
			t.Fatalf("frame %d: swapped alarms %+v != plain %+v", i, got, want)
		}
		fired += len(want)
	}
	if fired == 0 {
		t.Fatal("no alarms fired; swap bit-identity check is vacuous")
	}
}

// TestSwapKeepsStateShapeBuffers pins the allocation-free swap: between
// models of one state shape (Save/Load twins here) Swap keeps the
// detector's rings, rolling errors and rollback buffer and only marks the
// caches invalid, so alternating swaps allocate nothing. The next frame runs
// a full exact pass over the kept buffers, so from then on the scores are
// bit-equal to a detector that never swapped and was invalidated at the same
// frame, and the counters carry over.
func TestSwapKeepsStateShapeBuffers(t *testing.T) {
	m, d := shared(t)
	blob, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	var twins [2]*Model
	for i := range twins {
		if twins[i], err = LoadBytes(blob); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	cut := m.cfg.LongWindow + 8
	for i := 0; i < cut; i++ {
		pushAt(t, plain, d, i)
		pushAt(t, swapped, d, i)
	}
	inc := swapped.inc
	allocs := testing.AllocsPerRun(50, func() {
		for _, twin := range twins {
			if err := swapped.Swap(twin); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a swap between twins allocates %.1f objects, want 0", allocs)
	}
	if swapped.inc != inc || swapped.inc.valid {
		t.Fatal("the swap did not keep the detector's state, or left its caches valid")
	}
	if got, want := swapped.IncrementalStats(), plain.IncrementalStats(); got != want {
		t.Fatalf("counters %+v after the swaps, %+v without", got, want)
	}
	plain.InvalidateIncremental()
	for i := cut; i < d.Test.Len(); i++ {
		want, err := plain.PushScores(frameAt(d, i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := swapped.PushScores(frameAt(d, i))
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("frame %d variate %d: score %v after the swaps, %v without", i, v, got[v], want[v])
			}
		}
	}
}

// TestSwapValidation covers Swap's rejection branches. The mismatched
// models are hand-built (trained flag forced) — only the geometry checks
// are under test, not training.
func TestSwapValidation(t *testing.T) {
	m, d := shared(t)
	det, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	unfitted, err := New(testConfig(), d.Test.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Swap(unfitted); err == nil {
		t.Fatal("swap accepted an unfitted model")
	}
	wrongN, err := New(testConfig(), d.Test.N()+1)
	if err != nil {
		t.Fatal(err)
	}
	wrongN.trained = true
	if err := det.Swap(wrongN); err == nil {
		t.Fatal("swap accepted a model with the wrong variate count")
	}
	cfg := testConfig()
	cfg.LongWindow++
	wrongW, err := New(cfg, d.Test.N())
	if err != nil {
		t.Fatal(err)
	}
	wrongW.trained = true
	if err := det.Swap(wrongW); err == nil {
		t.Fatal("swap accepted a model with the wrong window length")
	}
}

// warmAERODetector is an AERO detector from shared at cut w+3+extra; at
// extra 0 it is the warm donor TestRestoreStateRejectsCorrupt corrupts.
func warmAERODetector(t testing.TB, extra int) *StreamDetector {
	m, d := shared(t)
	det, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.Config().LongWindow+3+extra; i++ {
		pushAt(t, det, d, i)
	}
	return det
}

// warmDynamicDetector is the evolving-graph arm: the model of
// TestSnapshotRestoreDynamicGraph, pushed exactly to its cut plus extra
// frames.
func warmDynamicDetector(t testing.TB, extra int) *StreamDetector {
	cfg := testConfig()
	cfg.Variant = VariantDynamicGraph
	cfg.LongWindow = 24
	cfg.ShortWindow = 8
	cfg.ModelDim = 8
	cfg.FFNHidden = 16
	cfg.MaxEpochs = 1
	cfg.TrainStride = 24
	d := dataset.SyntheticConfig{
		Name: "dynsnap", N: 4, TrainLen: 120, TestLen: 90,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 23,
	}.Generate()
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	det, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.LongWindow+9+extra; i++ {
		pushExact(t, det, frameAt(d, i))
	}
	return det
}

// TestSnapshotBytesPinned pins the AEROSNAP bytes of both arms of the
// format — without and with the evolving graph — by length and FNV-1a
// hash. A checkpoint on disk restores only while these hold. The dynamic
// arm carries the model's graph, so its hash has a column per math.Exp
// implementation, as TestStreamScoreBitsPinned's do.
func TestSnapshotBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("snapshot bytes are pinned on amd64")
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
	cases := []struct {
		name string
		det  func(testing.TB, int) *StreamDetector
		size int
		want [2]uint64 // math.Exp with FMA, without
	}{
		{"aero", warmAERODetector, 3625, [2]uint64{0x845b0521120e1a02, 0x845b0521120e1a02}},
		{"dynamic-graph", warmDynamicDetector, 1137, [2]uint64{0xe3ed43dcc8ede232, 0xda381150cac98a41}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			blob, err := tc.det(t, 0).SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(blob)
			if len(blob) != tc.size || h.Sum64() != tc.want[column] {
				t.Fatalf("snapshot is %d bytes with hash %#x, pinned %d bytes with %#x", len(blob), h.Sum64(), tc.size, tc.want[column])
			}
		})
	}
}

// FuzzDetectorRestoreState feeds arbitrary bytes to RestoreState of a
// warm AERO detector and of the warm dynamic-graph arm, as given and with
// the trailing CRC recomputed, so mutations also reach the fields behind
// the checksum. A failed restore must leave the detector's snapshot
// byte-equal to the one before it; a successful one must be idempotent
// (snapshot → restore → snapshot). The seed corpus holds both pinned
// snapshots and TestRestoreStateRejectsCorrupt's corrupt cases, built
// from the dynamic-graph snapshot to keep the corpus small. The detectors
// are two frames past the pinned cuts, so a restore that commits before
// it fails shows in their snapshots.
func FuzzDetectorRestoreState(f *testing.F) {
	dets := []*StreamDetector{warmAERODetector(f, 2), warmDynamicDetector(f, 2)}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, det := range dets {
			checkRestore(t, det, blob)
			if len(blob) >= 4 {
				checkRestore(t, det, reseal(blob))
			}
		}
	})
}

// checkRestore is the fuzzers' oracle; it leaves det as it found it. Besides
// the framing properties, a restored detector must be one PushScores could
// resume: a finite time cursor and a frame after it accepted.
func checkRestore(t *testing.T, det *StreamDetector, blob []byte) {
	before, err := det.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RestoreState(blob); err != nil {
		if after, _ := det.SnapshotState(); !bytes.Equal(before, after) {
			t.Fatalf("failed restore (%v) changed the detector", err)
		}
		return
	}
	once, err := det.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := det.RestoreState(once); err != nil {
		t.Fatalf("restoring its own snapshot: %v", err)
	}
	if twice, _ := det.SnapshotState(); !bytes.Equal(once, twice) {
		t.Fatal("snapshot → restore → snapshot is not idempotent")
	}
	last, _ := det.LastTime()
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatalf("restore set the time cursor to %v", last)
	}
	next := last + 1
	if next == last {
		next = math.Nextafter(last, math.Inf(1)) // +1 is absorbed above 2⁵³
	}
	if !math.IsInf(next, 0) {
		if _, err := det.PushScores(Frame{Time: next, Magnitudes: make([]float64, det.Variates())}); err != nil {
			t.Fatalf("restored detector refuses a frame after its cursor %v: %v", last, err)
		}
	}
	if err := det.RestoreState(before); err != nil {
		t.Fatal(err)
	}
}

// Byte offsets of AEROSNAP fields (see snapshot.go's layout).
const snapLast = 8 + 3*4 + 8 // newest timestamp

func snapTime(slot int) int   { return snapLast + 8 + 8*slot }
func snapDecay(n, w int) int  { return snapTime(w) + 8*n*w + 1 }
func snapAdj(n, w, i int) int { return snapDecay(n, w) + 8 + 8*i }

func snapF64(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// f64At is a float64 to write at a byte offset of a snapshot.
type f64At struct {
	off int
	v   float64
}

// withF64s returns a resealed copy of blob with sets written into it.
func withF64s(blob []byte, sets ...f64At) []byte {
	b := append([]byte(nil), blob...)
	for _, s := range sets {
		binary.LittleEndian.PutUint64(b[s.off:], math.Float64bits(s.v))
	}
	return reseal(b)
}

// checkRefused restores each case into victim: every one must fail and
// leave victim's snapshot byte-equal; then good must restore.
func checkRefused(t *testing.T, victim *StreamDetector, good []byte, cases map[string][]byte) {
	t.Helper()
	before, err := victim.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range cases {
		if err := victim.RestoreState(bad); err == nil {
			t.Errorf("%s: restored", name)
		} else if after, _ := victim.SnapshotState(); !bytes.Equal(before, after) {
			t.Errorf("%s: refused (%v) but changed the detector", name, err)
		}
	}
	if err := victim.RestoreState(good); err != nil {
		t.Fatalf("the untouched snapshot: %v", err)
	}
}

// TestRestoreStateRejectsImpossibleCursor refuses time cursors PushScores
// never leaves. A cursor of +Inf used to restore and then refuse every frame
// after it; a NaN or out-of-order ring slot reaches the time embedding as a
// non-finite or negative interval. The pinned AERO snapshot (w+3 frames: a
// full ring whose oldest frame sits in slot 3) still restores.
func TestRestoreStateRejectsImpossibleCursor(t *testing.T) {
	det := warmAERODetector(t, 0)
	blob, err := det.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	w := len(det.times)
	at := func(slot int) float64 { return snapF64(blob, snapTime(slot)) }
	inf := math.Inf(1)
	checkRefused(t, warmAERODetector(t, 2), blob, map[string][]byte{
		"last +Inf":          withF64s(blob, f64At{snapLast, inf}),
		"last NaN":           withF64s(blob, f64At{snapLast, math.NaN()}),
		"last ahead":         withF64s(blob, f64At{snapLast, at(2) + 1}),
		"newest +Inf":        withF64s(blob, f64At{snapLast, inf}, f64At{snapTime(2), inf}),
		"oldest NaN":         withF64s(blob, f64At{snapTime(3), math.NaN()}),
		"oldest -Inf":        withF64s(blob, f64At{snapTime(3), -inf}),
		"slots out of order": withF64s(blob, f64At{snapTime(5), at(6)}, f64At{snapTime(6), at(5)}),
		"slot repeated":      withF64s(blob, f64At{snapTime(6), at(5)}),
		"wrap out of order":  withF64s(blob, f64At{snapTime(w - 1), at(0) + 1}),
	})
}

// TestRestoreStateRejectsImpossibleGraph refuses an evolving graph no
// detector resumes from. A NaN decay used to restore and turn every later
// score non-finite. The pinned dynamic-graph snapshot still restores.
func TestRestoreStateRejectsImpossibleGraph(t *testing.T) {
	det := warmDynamicDetector(t, 0)
	blob, err := det.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	n, w := det.Variates(), len(det.times)
	decay, cell := snapDecay(n, w), snapAdj(n, w, n+2)
	checkRefused(t, warmDynamicDetector(t, 2), blob, map[string][]byte{
		"decay NaN":  withF64s(blob, f64At{decay, math.NaN()}),
		"decay +Inf": withF64s(blob, f64At{decay, math.Inf(1)}),
		"decay 0.5":  withF64s(blob, f64At{decay, 0.5}),
		"cell NaN":   withF64s(blob, f64At{cell, math.NaN()}),
		"cell -Inf":  withF64s(blob, f64At{cell, math.Inf(-1)}),
	})
}
