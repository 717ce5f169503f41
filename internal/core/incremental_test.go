package core

import (
	"math"
	"testing"

	"aero/internal/ag"
	"aero/internal/dataset"
)

// The windows fitIncVariant's models stream over.
const incLongWindow, incShortWindow = 24, 8

// fitIncVariant trains a small model of the given variant on a fresh
// synthetic dataset, sized like the dynamic-graph snapshot test so the
// whole variant sweep stays cheap.
func fitIncVariant(t *testing.T, variant Variant) (*Model, *dataset.Dataset) {
	t.Helper()
	cfg := testConfig()
	cfg.Variant = variant
	cfg.LongWindow = incLongWindow
	cfg.ShortWindow = incShortWindow
	cfg.ModelDim = 8
	cfg.FFNHidden = 16
	cfg.MaxEpochs = 1
	cfg.TrainStride = 24
	d := dataset.SyntheticConfig{
		Name: "incgold", N: 4, TrainLen: 120, TestLen: 240,
		NoiseVariates: 2, AnomalySegments: 4, NoisePct: 8,
		VariableFrac: 0.5, Seed: 31,
	}.Generate()
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestIncrementalGoldenAlarmIdentity is the golden replay of the
// alarm-boundary guard contract: on the incremental path the alarm stream —
// frames, variates, and exact scores — must be identical to the
// always-exact detector's, for every graph variant the streaming path
// specializes on. The replay is rejected as vacuous unless alarms fired
// and most frames were actually served incrementally.
func TestIncrementalGoldenAlarmIdentity(t *testing.T) {
	variants := []struct {
		name string
		v    Variant
		// The evolving-graph EWMA is path-dependent: between refreshes it
		// ingests the incremental error matrix, so its trajectory drifts a
		// few ulps from the always-exact twin's and guard-refreshed scores
		// inherit that drift. Verdicts must still match exactly; scores get
		// a tight tolerance instead of bit-equality for that variant only.
		scoreTol float64
	}{
		{"default", VariantFull, 0},
		{"static-graph", VariantStaticGraph, 0},
		{"dynamic-graph", VariantDynamicGraph, 1e-4},
		{"multivariate-input", VariantMultivariateInput, 0},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			m, d := fitIncVariant(t, tc.v)
			// The 1-epoch variant models calibrate a POT threshold above any
			// score the test feed can reach; re-pin Z below the feed's score
			// ceiling so the replay actually alarms (both detectors see the
			// same recalibrated threshold).
			calib, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			var ceiling float64
			for i := 0; i < d.Test.Len(); i++ {
				pushExact(t, calib, frameAt(d, i))
				for _, s := range calib.scores {
					if s > ceiling {
						ceiling = s
					}
				}
			}
			m.thr.Z = 0.8 * ceiling
			inc, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			fired := 0
			for i := 0; i < d.Test.Len(); i++ {
				want := pushExact(t, exact, frameAt(d, i))
				got := pushAt(t, inc, d, i)
				if !sameAlarmsTol(want, got, tc.scoreTol) {
					t.Fatalf("frame %d: incremental alarms %+v != exact %+v", i, got, want)
				}
				fired += len(want)
			}
			// The 1-epoch variant models calibrate a threshold the synthetic
			// anomalies may not clear, so drive both detectors through a
			// deterministic out-of-range excursion: alarms must fire and must
			// still match frame for frame.
			next := d.Test.Time[d.Test.Len()-1] + 1
			frame := Frame{Magnitudes: make([]float64, d.Test.N())}
			for k := 0; k < 2*m.Config().LongWindow; k++ {
				for v := range frame.Magnitudes {
					frame.Magnitudes[v] = 20 + float64(k%5)
				}
				frame.Time = next
				next++
				want := pushExact(t, exact, frame)
				got, err := inc.Push(frame)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAlarmsTol(want, got, tc.scoreTol) {
					t.Fatalf("excursion frame %d: incremental alarms %+v != exact %+v", k, got, want)
				}
				fired += len(want)
			}
			if fired == 0 {
				t.Fatal("no alarms fired; golden replay is vacuous")
			}
			st := inc.IncrementalStats()
			if st.Incremental == 0 || st.Incremental <= st.Frames/3 {
				t.Fatalf("incremental path served %d of %d frames; replay is vacuous", st.Incremental, st.Frames)
			}
			if st.Frames != st.Incremental+st.ScheduledRefreshes+st.DriftRefreshes+st.BoundaryRefreshes+st.InvalidationRefreshes {
				t.Fatalf("stats do not add up: %+v", st)
			}
		})
	}
}

// sameAlarmsTol is sameAlarms with an optional score tolerance (0 keeps
// exact float equality); verdicts — count, variates, times — always
// compare exactly.
func sameAlarmsTol(a, b []Alarm, tol float64) bool {
	if tol == 0 {
		return sameAlarms(a, b)
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Variate != b[i].Variate || a[i].Time != b[i].Time {
			return false
		}
		if math.Abs(a[i].Score-b[i].Score) > tol {
			return false
		}
	}
	return true
}

// TestIncrementalSwapRestoreInvalidation replays across a mid-stream Swap
// (same weights, Save/Load round-trip) and a SnapshotState/RestoreState
// hand-off, on the incremental path on both sides. Alarms must stay
// identical to an uninterrupted always-exact twin, and each boundary must
// show up in the stats as a cache invalidation.
func TestIncrementalSwapRestoreInvalidation(t *testing.T) {
	m, d := shared(t)
	twin := saveLoadTwin(t, m)

	exact, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}

	w := m.Config().LongWindow
	swapCut := w + 17
	restoreCut := d.Test.Len() * 2 / 3
	fired := 0
	for i := 0; i < d.Test.Len(); i++ {
		if i == swapCut {
			before := det.IncrementalStats().InvalidationRefreshes
			if err := det.Swap(twin); err != nil {
				t.Fatalf("swap: %v", err)
			}
			pushBoth(t, exact, det, d, i, &fired)
			if got := det.IncrementalStats().InvalidationRefreshes; got != before+1 {
				t.Fatalf("swap did not invalidate caches: invalidation refreshes %d, want %d", got, before+1)
			}
			continue
		}
		if i == restoreCut {
			blob, err := det.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewStreamDetector(twin)
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			det = restored
			before := det.IncrementalStats().InvalidationRefreshes
			pushBoth(t, exact, det, d, i, &fired)
			if got := det.IncrementalStats().InvalidationRefreshes; got != before+1 {
				t.Fatalf("restore did not invalidate caches: invalidation refreshes %d, want %d", got, before+1)
			}
			continue
		}
		pushBoth(t, exact, det, d, i, &fired)
	}
	if fired == 0 {
		t.Fatal("no alarms fired; swap/restore replay is vacuous")
	}
	if st := det.IncrementalStats(); st.Incremental == 0 {
		t.Fatalf("restored detector never took the incremental path: %+v", st)
	}
}

// saveLoadTwin round-trips m through Save/Load, producing a distinct model
// with bit-identical weights and calibration.
func saveLoadTwin(t *testing.T, m *Model) *Model {
	t.Helper()
	blob, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := LoadBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// pushBoth pushes frame i into both detectors and requires identical
// alarms, accumulating the fired count.
func pushBoth(t *testing.T, exact, det *StreamDetector, d *dataset.Dataset, i int, fired *int) {
	t.Helper()
	want := pushExact(t, exact, frameAt(d, i))
	got := pushAt(t, det, d, i)
	if !sameAlarms(want, got) {
		t.Fatalf("frame %d: alarms %+v != exact %+v", i, got, want)
	}
	*fired += len(want)
}

// TestIncrementalErrorBound pins the contract the alarm-boundary guard
// enforces, score by score, the way the DSPOT amortization test pins the
// amortized threshold: frames served incrementally may drift from the
// exact score, but (a) never on a frame whose exact score reaches the
// threshold — those must have hit the guard and been re-scored exactly —
// and (b) never by more than the threshold itself (overestimates at the
// guard margin are refreshed away; underestimates beyond Z would be a
// missed alarm, caught by (a)). Refresh frames must be bit-identical.
// Vacuous runs are rejected: the replay must alarm, must serve most
// frames incrementally, must trip the guard at least once, and the
// incremental path must actually deviate.
func TestIncrementalErrorBound(t *testing.T) {
	m, d := shared(t)
	inc, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}

	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	var maxErr float64
	incFrames, fired := 0, 0
	for i := 0; i < d.Test.Len(); i++ {
		frame.Time = d.Test.Time[i]
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][i]
		}
		prevInc := inc.IncrementalStats().Incremental
		got, err := inc.PushScores(frame)
		if err != nil {
			t.Fatal(err)
		}
		pushExact(t, exact, frame)
		want := exact.scores
		if got == nil {
			continue
		}
		servedIncrementally := inc.IncrementalStats().Incremental > prevInc
		for v := range got {
			if want[v] >= m.thr.Z {
				fired++
			}
			diff := math.Abs(got[v] - want[v])
			switch {
			case !servedIncrementally:
				// Refresh frames are full exact recomputes of the same
				// window: bit-identical, no tolerance.
				if diff != 0 {
					t.Fatalf("frame %d variate %d: refresh score %v != exact %v", i, v, got[v], want[v])
				}
			case want[v] >= m.thr.Z:
				t.Fatalf("frame %d variate %d: alarming frame (exact %v >= Z %v) served incrementally as %v — missed alarm",
					i, v, want[v], m.thr.Z, got[v])
			case got[v] >= m.thr.Z:
				t.Fatalf("frame %d variate %d: incremental score %v alarms but exact %v does not — guard bypassed",
					i, v, got[v], want[v])
			case diff >= m.thr.Z:
				t.Fatalf("frame %d variate %d: incremental error %v exceeds the threshold %v", i, v, diff, m.thr.Z)
			case diff > maxErr:
				maxErr = diff
			}
		}
		if servedIncrementally {
			incFrames++
		}
	}
	st := inc.IncrementalStats()
	switch {
	case fired == 0:
		t.Fatal("no exact score crossed the threshold; error bound is vacuous")
	case incFrames == 0 || uint64(incFrames) <= st.Frames/3:
		t.Fatalf("incremental path served %d of %d frames; error bound is vacuous", incFrames, st.Frames)
	case st.BoundaryRefreshes == 0:
		t.Fatal("the alarm-boundary guard never fired; error bound is vacuous")
	case maxErr == 0:
		t.Fatal("incremental path never deviated from exact; error bound is vacuous")
	}
	t.Logf("max incremental error %.3g over %d incremental frames (Z %.3g, guard refreshes %d)",
		maxErr, incFrames, m.thr.Z, st.BoundaryRefreshes)
}

// TestIncrementalEnteringRowTimeEmbedding holds the benign path's one
// time-embedding row to the exact pass: on a jittered cadence with gaps,
// after every frame served incrementally the entering row (long row W−1,
// short row ω−1) is bit-equal to the row an exact pass over the same window
// writes. The replay is rejected as vacuous unless frames right after a gap
// — where the entering interval Δt is not 1 — were served incrementally.
func TestIncrementalEnteringRowTimeEmbedding(t *testing.T) {
	m, d := fitIncVariant(t, VariantFull)
	s := jittered(d.Test, m.dtScale)
	// Each detector serves a Save/Load twin of its own, so each twin's free
	// list holds the one scratch its detector's pushes borrow, and the rows
	// read from it are the ones that detector's last push wrote.
	blob, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	var dets [2]*StreamDetector
	for i := range dets {
		twin, err := LoadBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		if dets[i], err = NewStreamDetector(twin); err != nil {
			t.Fatal(err)
		}
	}
	inc, exact := dets[0], dets[1]
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	rows := func(det *StreamDetector) [4][]float64 {
		free := det.m.scratches.free
		if len(free) != 1 {
			t.Fatalf("%d scratches on the model's free list, want the one its detector borrows", len(free))
		}
		c := free[0].te
		return [4][]float64{c.sinL.Row(w - 1), c.cosL.Row(w - 1), c.sinS.Row(omega - 1), c.cosS.Row(omega - 1)}
	}
	frame := Frame{Magnitudes: make([]float64, s.N())}
	benign, afterGap := 0, 0
	for i := 0; i < s.Len(); i++ {
		frame.Time = s.Time[i]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = s.Data[v][i]
		}
		before := inc.IncrementalStats().Incremental
		if _, err := inc.PushScores(frame); err != nil {
			t.Fatal(err)
		}
		pushExact(t, exact, frame)
		if inc.IncrementalStats().Incremental == before {
			continue
		}
		benign++
		if dt := (s.Time[i] - s.Time[i-1]) / m.dtScale; dt > 2 {
			afterGap++
		}
		got, want := rows(inc), rows(exact)
		for k, name := range []string{"sinL", "cosL", "sinS", "cosS"} {
			for j := range want[k] {
				if math.Float64bits(got[k][j]) != math.Float64bits(want[k][j]) {
					t.Fatalf("frame %d: incremental %s[%d] = %v, exact pass wrote %v", i, name, j, got[k][j], want[k][j])
				}
			}
		}
	}
	if benign == 0 || afterGap == 0 {
		t.Fatalf("%d frames served incrementally, %d of them right after a gap; the check is vacuous", benign, afterGap)
	}
	t.Logf("%d frames served incrementally, %d right after a gap", benign, afterGap)
}

// TestPushAlarmSliceReuse pins the Push alarm buffer: alarming frames must
// not allocate (the detector reuses one slice), and consecutive pushes hand
// back the same backing array.
func TestPushAlarmSliceReuse(t *testing.T) {
	m, d := shared(t)
	det, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	w := m.Config().LongWindow
	for i := 0; i < w; i++ {
		pushAt(t, det, d, i)
	}
	// An impossible magnitude excursion forces alarms on every subsequent
	// frame once it dominates the window.
	next := d.Test.Time[w-1] + 1
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	for v := range frame.Magnitudes {
		frame.Magnitudes[v] = 25 // far outside the trained magnitude range
	}
	alarming := func() []Alarm {
		frame.Time = next
		next++
		alarms, err := det.Push(frame)
		if err != nil {
			t.Fatal(err)
		}
		return alarms
	}
	var warm []Alarm
	for i := 0; i < w; i++ {
		warm = alarming()
	}
	if len(warm) == 0 {
		t.Fatal("excursion frames do not alarm; slice-reuse check is vacuous")
	}
	a1 := alarming()
	a2 := alarming()
	if len(a1) == 0 || len(a2) == 0 {
		t.Fatal("alarms stopped firing mid-check")
	}
	if &a1[0] != &a2[0] {
		t.Fatal("consecutive alarming pushes returned distinct backing arrays")
	}
	allocs := testing.AllocsPerRun(64, func() {
		if len(alarming()) == 0 {
			t.Fatal("alarms stopped firing during the allocation run")
		}
	})
	if allocs != 0 {
		t.Fatalf("alarming Push allocates %.1f objects/frame, want 0", allocs)
	}
}

// TestTimeEmbeddingPhaseCache pins the hoisted constant phase matrix:
// contiguous window-local positions are served from a per-shape cache
// (same tensor pointer across passes) whose entries are exactly the
// products the per-pass fill computes, while non-contiguous positions fall
// back to a per-pass buffer with identical values.
func TestTimeEmbeddingPhaseCache(t *testing.T) {
	te := NewTimeEmbedding(8)
	pos := []float64{3, 4, 5, 6, 7}

	first := te.phase(ag.NewTape(), pos)
	again := te.phase(ag.NewTape(), pos)
	if first.Value != again.Value {
		t.Fatal("contiguous positions were not served from the phase cache")
	}
	for l, p := range pos {
		for j := 0; j < te.dm; j++ {
			if want := te.freq[j] * p; first.Value.At(l, j) != want {
				t.Fatalf("phase[%d][%d] = %v, want %v", l, j, first.Value.At(l, j), want)
			}
		}
	}

	other := te.phase(ag.NewTape(), []float64{10, 11, 12, 13, 14})
	if other.Value == first.Value {
		t.Fatal("distinct first positions share one cache entry")
	}

	scattered := []float64{3, 5, 6, 7, 9}
	fb := te.phase(ag.NewTape(), scattered)
	if fb.Value == first.Value {
		t.Fatal("non-contiguous positions must not reuse the cache")
	}
	for l, p := range scattered {
		for j := 0; j < te.dm; j++ {
			if want := te.freq[j] * p; fb.Value.At(l, j) != want {
				t.Fatalf("fallback phase[%d][%d] = %v, want %v", l, j, fb.Value.At(l, j), want)
			}
		}
	}
}

// TestIncrementalRefreshMatchesWindowScores holds the streaming refresh — the
// exact stage-1 pass, then stage 2 for the newest column alone — to batch
// scoring: for every variant, on both kernel paths, a frame pushed after
// InvalidateIncremental scores every star with the bits of column ω−1 of
// windowScores over the same window, and leaves the evolving graph where
// that pass leaves it.
func TestIncrementalRefreshMatchesWindowScores(t *testing.T) {
	type fit struct {
		m *Model
		d *dataset.Dataset
	}
	fits := map[Variant]fit{}
	for v := VariantFull; v <= VariantDynamicGraph; v++ {
		m, d := fitIncVariant(t, v)
		fits[v] = fit{m, d}
	}
	eachKernelPath(t, func(t *testing.T) {
		for v := VariantFull; v <= VariantDynamicGraph; v++ {
			m, d := fits[v].m, fits[v].d
			t.Run(v.String(), func(t *testing.T) {
				det, err := NewStreamDetector(m)
				if err != nil {
					t.Fatal(err)
				}
				w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
				sc := m.newScratch()
				frame := Frame{Magnitudes: make([]float64, d.Test.N())}
				for i := 0; i < w+16; i++ {
					frame.Time = d.Test.Time[i]
					for vv := range frame.Magnitudes {
						frame.Magnitudes[vv] = d.Test.Data[vv][i]
					}
					exact := i >= w+8 // warm, with the ring heads moved, first
					var refDyn *dynamicGraphState
					if exact {
						det.InvalidateIncremental()
						if det.dyn != nil {
							refDyn = newDynamicGraphState(m.n)
							refDyn.a.CopyFrom(det.dyn.a)
						}
					}
					scores, err := det.PushScores(frame)
					if err != nil {
						t.Fatal(err)
					}
					if !exact {
						continue
					}
					final, _ := m.windowScores(det.window(sc), w-1, refDyn, sc)
					for vv, got := range scores {
						if want := final.At(vv, omega-1); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("frame %d variate %d: refresh score %v != windowScores %v", i, vv, got, want)
						}
					}
					if refDyn != nil {
						sameBits(t, "dyn.a", det.dyn.a, refDyn.a)
					}
				}
			})
		}
	})
}
