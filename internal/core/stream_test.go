package core

import (
	"math"
	"testing"

	"aero/internal/dataset"
	"aero/internal/tensor"
)

func TestStreamDetectorRequiresFittedModel(t *testing.T) {
	m, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamDetector(m); err == nil {
		t.Fatal("expected error for unfitted model")
	}
}

func TestStreamDetectorWarmup(t *testing.T) {
	m, d := shared(t)
	s, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("fresh detector must not be ready")
	}
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	for t2 := 0; t2 < m.Config().LongWindow-1; t2++ {
		frame.Time = d.Test.Time[t2]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = d.Test.Data[v][t2]
		}
		alarms, err := s.Push(frame)
		if err != nil {
			t.Fatal(err)
		}
		if alarms != nil {
			t.Fatal("no alarms before warmup")
		}
	}
	if s.Ready() {
		t.Fatal("one frame early")
	}
	if _, err := s.GraphSnapshot(); err == nil {
		t.Fatal("graph snapshot must fail before warmup")
	}
}

func TestStreamDetectorRejectsBadFrames(t *testing.T) {
	m, d := shared(t)
	s, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(Frame{Time: 1, Magnitudes: make([]float64, d.Test.N()+1)}); err == nil {
		t.Fatal("expected dimension error")
	}
	good := Frame{Time: 5, Magnitudes: make([]float64, d.Test.N())}
	if _, err := s.Push(good); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(good); err == nil {
		t.Fatal("expected non-increasing time error")
	}
}

// TestStreamDetectorRejectsNonFiniteTime: a NaN or ±Inf frame time is an
// error on a cold, a warming and a warm detector, and leaves it as it was:
// the time cursor is unchanged and the next finite frames score the bits of
// a twin that never saw the bad frame. (NaN passes a `time <= last` order
// check, and a detector that stored it took any time after it; one that
// stored +Inf refused every later frame.)
func TestStreamDetectorRejectsNonFiniteTime(t *testing.T) {
	m, d := shared(t)
	w := m.Config().LongWindow
	frame := func(i int) Frame {
		f := Frame{Time: d.Test.Time[i], Magnitudes: make([]float64, d.Test.N())}
		for v := range f.Magnitudes {
			f.Magnitudes[v] = d.Test.Data[v][i]
		}
		return f
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, warm := range []int{0, 5, w + 3} {
			s, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warm; i++ {
				for _, det := range []*StreamDetector{s, twin} {
					if _, err := det.PushScores(frame(i)); err != nil {
						t.Fatal(err)
					}
				}
			}
			f := frame(warm)
			f.Time = bad
			if _, err := s.PushScores(f); err == nil {
				t.Fatalf("time %v after %d frames: accepted", bad, warm)
			}
			wantLast, wantOK := twin.LastTime()
			if last, ok := s.LastTime(); last != wantLast || ok != wantOK {
				t.Fatalf("time %v after %d frames: cursor %v (%v), twin %v (%v)", bad, warm, last, ok, wantLast, wantOK)
			}
			for i := warm; i < warm+w+2; i++ {
				got, err := s.PushScores(frame(i))
				if err != nil {
					t.Fatalf("time %v after %d frames: frame %d refused: %v", bad, warm, i, err)
				}
				want, err := twin.PushScores(frame(i))
				if err != nil {
					t.Fatal(err)
				}
				if (got == nil) != (want == nil) {
					t.Fatalf("time %v after %d frames: frame %d scored %v, twin %v", bad, warm, i, got != nil, want != nil)
				}
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("time %v after %d frames: frame %d variate %d scored %v, twin %v", bad, warm, i, v, got[v], want[v])
					}
				}
			}
		}
	}
}

func TestStreamReplayMatchesBatchAtWindowEnds(t *testing.T) {
	// Replay alarms must agree with batch stride-1 detection at the same
	// threshold: every replay alarm corresponds to a batch score >= thr.
	m, d := shared(t)
	s, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	alarms, err := s.Replay(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	if s.Threshold() != m.Threshold() {
		t.Fatal("threshold mismatch")
	}
	// Index alarms by (variate, time).
	type key struct {
		v int
		t float64
	}
	seen := map[key]float64{}
	for _, a := range alarms {
		seen[key{a.Variate, a.Time}] = a.Score
		if a.Score < m.Threshold() {
			t.Fatalf("alarm below threshold: %+v", a)
		}
	}
	// The detector's alarm scores are stride-1 window scores; spot-check
	// that an alarm exists where the labelled anomaly lives, if the model
	// detected it in batch mode too.
	batch, err := m.Detect(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	batchHits := 0
	for v := range batch {
		for i := m.Config().LongWindow; i < len(batch[v]); i++ {
			if batch[v][i] && d.Test.Labels[v][i] {
				batchHits++
			}
		}
	}
	if batchHits > 0 && len(alarms) == 0 {
		t.Fatal("batch detector fires but stream replay produced no alarms")
	}
}

// TestStreamGraphSnapshot pins GraphSnapshot as an observation. Two
// detectors replay one feed, one of them snapshotting every 7th frame: their
// score bits and serving counters must stay equal throughout (the snapshot's
// exact recompute touches no ring, head, TE cache, rolling error, evolving
// graph or counter), and every snapshot must equal Model.GraphAt on the same
// window bit for bit. The dynamic-graph variant is the one whose EWMA a
// careless snapshot would advance.
func TestStreamGraphSnapshot(t *testing.T) {
	for _, variant := range []Variant{VariantFull, VariantDynamicGraph} {
		t.Run(variant.String(), func(t *testing.T) {
			m, d := fitIncVariant(t, variant)
			w := m.Config().LongWindow
			quiet, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			observed, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := observed.GraphSnapshot(); err == nil {
				t.Fatal("expected an error before the window is warm")
			}
			// A series whose first timestamp is the window's own, so GraphAt
			// sees the interval pin the streaming window has at row 0.
			win := &dataset.Series{Time: make([]float64, w), Data: make([][]float64, d.Test.N())}
			snapshots := 0
			frame := Frame{Magnitudes: make([]float64, d.Test.N())}
			for i := 0; i < d.Test.Len(); i++ {
				frame.Time = d.Test.Time[i]
				for v := range frame.Magnitudes {
					frame.Magnitudes[v] = d.Test.Data[v][i]
				}
				want, err := quiet.PushScores(frame)
				if err != nil {
					t.Fatal(err)
				}
				got, err := observed.PushScores(frame)
				if err != nil {
					t.Fatal(err)
				}
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("frame %d variate %d: score %v after snapshots, %v without", i, v, got[v], want[v])
					}
				}
				if gs, ws := observed.IncrementalStats(), quiet.IncrementalStats(); gs != ws {
					t.Fatalf("frame %d: serving counters %+v after snapshots, %+v without", i, gs, ws)
				}
				if i < w-1 || i%7 != 0 {
					continue
				}
				g, err := observed.GraphSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				copy(win.Time, d.Test.Time[i-w+1:i+1])
				for v := range win.Data {
					win.Data[v] = d.Test.Data[v][i-w+1 : i+1]
				}
				ref, err := m.GraphAt(win, w-1)
				if err != nil {
					t.Fatal(err)
				}
				if g.Rows != d.Test.N() || !tensor.Equal(g, ref, 0) {
					t.Fatalf("frame %d: snapshot differs from GraphAt on the same window", i)
				}
				snapshots++
			}
			if st := observed.IncrementalStats(); snapshots < 10 || st.Incremental == 0 {
				t.Fatalf("%d snapshots, %d incremental frames: the check is vacuous", snapshots, st.Incremental)
			}
		})
	}
}

// TestStreamPushSteadyStateAllocs pins the allocation budget of the online
// hot path: once the window is warm, Push must reuse the detector's ring
// and scratch buffers instead of re-allocating the scoring pipeline. The
// seed path allocated ~3000 objects per frame; the path now measures 0 in
// steady state, and the bound leaves headroom only for the alarm slice a
// firing frame returns.
func TestStreamPushSteadyStateAllocs(t *testing.T) {
	m, d := shared(t)
	s, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	next := 0
	push := func() {
		idx := next % d.Test.Len()
		frame.Time = float64(next)
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = d.Test.Data[v][idx]
		}
		if _, err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 2*m.Config().LongWindow; i++ {
		push()
	}
	allocs := testing.AllocsPerRun(64, push)
	if allocs > 2 {
		t.Fatalf("steady-state Push allocates %.1f objects/frame, want <= 2", allocs)
	}
}

// TestStreamDynamicGraphVariant exercises streaming with the
// dynamic-graph ablation: the detector must own an evolving-graph state
// (the seed implementation passed nil and crashed once the window warmed).
func TestStreamDynamicGraphVariant(t *testing.T) {
	cfg := testConfig()
	cfg.Variant = VariantDynamicGraph
	cfg.LongWindow = 24
	cfg.ShortWindow = 8
	cfg.ModelDim = 8
	cfg.FFNHidden = 16
	cfg.MaxEpochs = 1
	cfg.TrainStride = 24
	d := dataset.SyntheticConfig{
		Name: "dyn", N: 4, TrainLen: 120, TestLen: 80,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 21,
	}.Generate()
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	s, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Replay(d.Test); err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("detector should be warm after replay")
	}
	// The evolving graph must not reintroduce per-frame allocations.
	next := d.Test.Time[d.Test.Len()-1] + 1
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	allocs := testing.AllocsPerRun(32, func() {
		frame.Time = next
		next++
		if _, err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("dynamic-graph steady-state Push allocates %.1f objects/frame, want <= 2", allocs)
	}
}

// TestStreamDetectorBackendContract pins the StreamBackend conformance
// of the AERO detector: the kind tag, Push deriving its alarms exactly
// from PushScores against the threshold, and SwapArtifact accepting the
// model's own marshaled bytes (and nothing else).
func TestStreamDetectorBackendContract(t *testing.T) {
	m, d := shared(t)
	s, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindAERO || s.Variates() != d.Test.N() {
		t.Fatalf("identity %s/%d", s.Kind(), s.Variates())
	}
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < d.Test.Len(); ti++ {
		frame.Time = d.Test.Time[ti]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		alarms, err := s.Push(frame)
		if err != nil {
			t.Fatal(err)
		}
		scores, err := twin.PushScores(frame)
		if err != nil {
			t.Fatal(err)
		}
		var derived []Alarm
		for v, sc := range scores {
			if sc >= twin.Threshold() {
				derived = append(derived, Alarm{Variate: v, Time: frame.Time, Score: sc})
			}
		}
		if len(alarms) != len(derived) {
			t.Fatalf("t=%d: Push %d alarms, PushScores-derived %d", ti, len(alarms), len(derived))
		}
		for k := range alarms {
			if alarms[k] != derived[k] {
				t.Fatalf("t=%d alarm %d: %+v != %+v", ti, k, alarms[k], derived[k])
			}
		}
	}
	blob, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapArtifact(blob); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapArtifact([]byte("not a model")); err == nil {
		t.Fatal("garbage artifact accepted")
	}
}

func TestStreamMemoryBounded(t *testing.T) {
	m, d := shared(t)
	s, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	for t2 := 0; t2 < 3*m.Config().LongWindow; t2++ {
		frame.Time = float64(t2)
		if _, err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.times) > m.Config().LongWindow {
		t.Fatalf("ring grew to %d, want <= %d", len(s.times), m.Config().LongWindow)
	}
}
