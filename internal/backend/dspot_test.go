package backend_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
	"aero/internal/evt"
)

func dspotTestData() *dataset.Dataset {
	return dataset.SyntheticConfig{
		Name: "dspot", N: 3, TrainLen: 400, TestLen: 300,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 17,
	}.Generate()
}

type alarmKey struct {
	v  int
	t  float64
	sc float64
}

// TestDSPOTStageMatchesDirectStep is the satellite identity contract:
// the engine-served DSPOT stage must alarm exactly where feeding the
// same per-variate score sequence through evt.DSPOT.Step directly does —
// same frames, same variates, bit-identical scores. The stage is
// plumbing, not math.
func TestDSPOTStageMatchesDirectStep(t *testing.T) {
	d := dspotTestData()
	spec, ok := backend.Get(baselines.KindFluxEV)
	if !ok {
		t.Fatal("fluxev not registered")
	}
	opts := backend.SmallOptions()
	artifact, err := spec.Train(d.Train, opts)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := backend.DefaultDSPOTConfig()

	// Reference: raw score sequence of the test split through a twin
	// backend, thresholded by evt.DSPOT directly.
	calibTwin, err := spec.Open(artifact)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := baselines.StreamScores(calibTwin, d.Train)
	if err != nil {
		t.Fatal(err)
	}
	scoreTwin, err := spec.Open(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var want []alarmKey
	{
		spots := make([]*evt.DSPOT, d.Test.N())
		for v := range spots {
			spots[v] = evt.NewDSPOT(dcfg.Level, dcfg.Q, dcfg.Depth)
			spots[v].SetPolicy(dcfg.Refit)
			if err := spots[v].Fit(calib[v]); err != nil {
				t.Fatal(err)
			}
		}
		frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
		for ti := 0; ti < d.Test.Len(); ti++ {
			frame.Time = d.Test.Time[ti]
			for v := 0; v < d.Test.N(); v++ {
				frame.Magnitudes[v] = d.Test.Data[v][ti]
			}
			scores, err := scoreTwin.PushScores(frame)
			if err != nil {
				t.Fatal(err)
			}
			for v, sc := range scores {
				if fired, serr := spots[v].Step(sc); serr != nil {
					t.Fatal(serr)
				} else if fired {
					want = append(want, alarmKey{v: v, t: frame.Time, sc: sc})
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("direct DSPOT produced no alarms; identity test is vacuous")
	}

	// Engine path: the same artifact + calibration split, served through
	// the stage behind the sharded engine.
	stage, err := backend.OpenAdaptive(spec, artifact, dcfg, d.Train)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Shards: 2, Workers: 2, QueueDepth: 8, BatchSize: 4})
	if _, err := e.SubscribeBackend("dspot", stage); err != nil {
		t.Fatal(err)
	}
	var got []alarmKey
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range e.Alarms() {
			got = append(got, alarmKey{v: a.Variate, t: a.Time, sc: a.Score})
		}
	}()
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < d.Test.Len(); ti++ {
		frame.Time = d.Test.Time[ti]
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		if err := e.Ingest("dspot", frame); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	e.Close()
	<-done

	if len(got) != len(want) {
		t.Fatalf("engine stage raised %d alarms, direct DSPOT %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("alarm %d: engine %+v != direct %+v", i, got[i], want[i])
		}
	}
}

// TestDSPOTStageAmortizedAlarmsGolden is the golden alarm-sequence check
// for the amortized refit policy: on the standard replay fixture, serving
// under the default (amortized) schedule must raise exactly the alarms the
// exact per-exceedance schedule raises — the approximation may lag the
// tail parameters by up to Refit.Every exceedances, but not enough to move
// any alarm on real replay traffic. The fluxev leg serves through the
// stage; the sr and tm legs hold the policy to two more tail shapes, the
// scores of the batch SR and TemplateMatching detectors on the same
// fixture, thresholded per star as the stage thresholds them.
func TestDSPOTStageAmortizedAlarmsGolden(t *testing.T) {
	d := dspotTestData()
	serve := func(refit evt.RefitPolicy) []alarmKey {
		spec, ok := backend.Get(baselines.KindFluxEV)
		if !ok {
			t.Fatal("fluxev not registered")
		}
		artifact, err := spec.Train(d.Train, backend.SmallOptions())
		if err != nil {
			t.Fatal(err)
		}
		dcfg := backend.DefaultDSPOTConfig()
		dcfg.Refit = refit
		stage, err := backend.OpenAdaptive(spec, artifact, dcfg, d.Train)
		if err != nil {
			t.Fatal(err)
		}
		var out []alarmKey
		frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
		for ti := 0; ti < d.Test.Len(); ti++ {
			frame.Time = d.Test.Time[ti]
			for v := 0; v < d.Test.N(); v++ {
				frame.Magnitudes[v] = d.Test.Data[v][ti]
			}
			alarms, err := stage.Push(frame)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range alarms {
				out = append(out, alarmKey{v: a.Variate, t: a.Time, sc: a.Score})
			}
		}
		return out
	}
	// batch feeds a batch detector's scores from frame warm on, the first
	// frame its window covers: TemplateMatching leaves the frames before
	// its first full window at zero, which are placeholders, not scores.
	batch := func(det baselines.Detector, warm int) func(evt.RefitPolicy) []alarmKey {
		return func(refit evt.RefitPolicy) []alarmKey {
			if err := det.Fit(d.Train); err != nil {
				t.Fatal(err)
			}
			calib, err := det.Scores(d.Train)
			if err != nil {
				t.Fatal(err)
			}
			scores, err := det.Scores(d.Test)
			if err != nil {
				t.Fatal(err)
			}
			dcfg := backend.DefaultDSPOTConfig()
			spots := make([]*evt.DSPOT, d.Test.N())
			for v := range spots {
				spots[v] = evt.NewDSPOT(dcfg.Level, dcfg.Q, dcfg.Depth)
				spots[v].SetPolicy(refit)
				if err := spots[v].Fit(calib[v][warm:]); err != nil {
					t.Fatal(err)
				}
			}
			var out []alarmKey
			for ti := warm; ti < d.Test.Len(); ti++ {
				for v, sp := range spots {
					sc := scores[v][ti]
					if fired, err := sp.Step(sc); err != nil {
						t.Fatal(err)
					} else if fired {
						out = append(out, alarmKey{v: v, t: d.Test.Time[ti], sc: sc})
					}
				}
			}
			return out
		}
	}
	tm := baselines.NewTemplateMatching()
	for _, leg := range []struct {
		name   string
		replay func(evt.RefitPolicy) []alarmKey
	}{
		{"sr", batch(baselines.NewSR(), 0)},
		{"tm", batch(tm, tm.TemplateLen-1)},
		{baselines.KindFluxEV, serve},
	} {
		t.Run(leg.name, func(t *testing.T) {
			exact := leg.replay(evt.ExactRefitPolicy())
			if len(exact) == 0 {
				t.Fatal("exact policy produced no alarms; golden test is vacuous")
			}
			amortized := leg.replay(evt.DefaultRefitPolicy())
			if len(amortized) != len(exact) {
				t.Fatalf("amortized policy raised %d alarms, exact %d", len(amortized), len(exact))
			}
			for i := range amortized {
				if amortized[i] != exact[i] {
					t.Fatalf("alarm %d: amortized %+v != exact %+v", i, amortized[i], exact[i])
				}
			}
		})
	}
}

// TestDSPOTStagePushAllocs pins the adaptive stage at the same
// steady-state budget as the raw adapters: a warm benign push (score in
// the below-tail common case) performs zero allocations.
func TestDSPOTStagePushAllocs(t *testing.T) {
	d := dspotTestData()
	for _, kind := range []string{baselines.KindFluxEV} {
		t.Run(kind, func(t *testing.T) {
			spec, _ := backend.Get(kind)
			artifact, err := spec.Train(d.Train, backend.SmallOptions())
			if err != nil {
				t.Fatal(err)
			}
			stage, err := backend.OpenAdaptive(spec, artifact, backend.DefaultDSPOTConfig(), d.Train)
			if err != nil {
				t.Fatal(err)
			}
			// Warm on real data, then hold the last frame's values: a flat
			// continuation scores ~0 on every adapter, the common
			// below-tail DSPOT step.
			frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
			next := 0
			for ; next < 2*128; next++ {
				frame.Time = float64(next)
				for v := range frame.Magnitudes {
					frame.Magnitudes[v] = d.Test.Data[v][next%d.Test.Len()]
				}
				if _, err := stage.Push(frame); err != nil {
					t.Fatal(err)
				}
			}
			push := func() {
				frame.Time = float64(next)
				next++
				if _, err := stage.Push(frame); err != nil {
					t.Fatal(err)
				}
			}
			// Settle until every adapter's window is past the transition
			// onto the flat continuation (scores may cross the DSPOT tail
			// while real data drains out of the window).
			for i := 0; i < 150; i++ {
				push()
			}
			if allocs := testing.AllocsPerRun(64, push); allocs != 0 {
				t.Fatalf("steady-state %s+dspot Push allocates %.1f objects/frame, want 0", kind, allocs)
			}
		})
	}
}

// TestDSPOTStageSnapshotRestore pins warm-restart bit-identity of the
// composition: inner window AND adaptive tail state round-trip, so the
// resumed alarm stream equals the uninterrupted one exactly.
func TestDSPOTStageSnapshotRestore(t *testing.T) {
	d := dspotTestData()
	spec, _ := backend.Get(baselines.KindFluxEV)
	artifact, err := spec.Train(d.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	dcfg := backend.DefaultDSPOTConfig()
	mk := func() *backend.DSPOTStage {
		s, err := backend.OpenAdaptive(spec, artifact, dcfg, d.Train)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	replay := func(s *backend.DSPOTStage, lo, hi int) []alarmKey {
		var out []alarmKey
		frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
		for ti := lo; ti < hi; ti++ {
			frame.Time = d.Test.Time[ti]
			for v := 0; v < d.Test.N(); v++ {
				frame.Magnitudes[v] = d.Test.Data[v][ti]
			}
			alarms, err := s.Push(frame)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range alarms {
				out = append(out, alarmKey{v: a.Variate, t: a.Time, sc: a.Score})
			}
		}
		return out
	}

	want := replay(mk(), 0, d.Test.Len())
	if len(want) == 0 {
		t.Fatal("no alarms; restore identity is vacuous")
	}

	cut := d.Test.Len() / 2
	first := mk()
	got := replay(first, 0, cut)
	blob, err := first.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	second := mk()
	if err := second.RestoreState(blob[:len(blob)-3]); err == nil {
		t.Fatal("truncated state accepted")
	}
	if err := second.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	got = append(got, replay(second, cut, d.Test.Len())...)

	if len(got) != len(want) {
		t.Fatalf("restart produced %d alarms, uninterrupted run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("alarm %d: restart %+v != uninterrupted %+v", i, got[i], want[i])
		}
	}
}

// TestDSPOTStageThresholdAdapts checks the stage's reason to exist: its
// effective threshold moves with the stream (drift correction), unlike
// the frozen static calibration underneath.
func TestDSPOTStageThresholdAdapts(t *testing.T) {
	d := dspotTestData()
	spec, _ := backend.Get(baselines.KindFluxEV)
	artifact, err := spec.Train(d.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	stage, err := backend.OpenAdaptive(spec, artifact, backend.DefaultDSPOTConfig(), d.Train)
	if err != nil {
		t.Fatal(err)
	}
	before := stage.Threshold()
	if math.IsNaN(before) || math.IsInf(before, 0) {
		t.Fatalf("unusable initial threshold %v", before)
	}
	static := stage.Inner().Threshold()
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	moved := false
	for ti := 0; ti < d.Test.Len(); ti++ {
		frame.Time = d.Test.Time[ti]
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		if _, err := stage.Push(frame); err != nil {
			t.Fatal(err)
		}
		if stage.Threshold() != before {
			moved = true
		}
		if stage.Inner().Threshold() != static {
			t.Fatal("static threshold moved")
		}
	}
	if !moved {
		t.Fatal("adaptive threshold never moved over the whole feed")
	}
}

// TestDSPOTStageConcurrentFitMatchesSequential pins the stage's concurrent
// cold fits to sequential ones: for 1, 2, 8 and 33 stars, with more workers
// than stars and fewer, every snapshotted tail model is the bytes of a
// DSPOT fitted alone, and when stars fail, the error is the lowest failing
// star's, worded as a sequential loop words it.
func TestDSPOTStageConcurrentFitMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	dcfg := backend.DefaultDSPOTConfig()
	spec, _ := backend.Get(baselines.KindFluxEV)
	rng := rand.New(rand.NewSource(33))
	for _, stars := range []int{1, 2, 8, 33} {
		d := dataset.SyntheticConfig{Name: "fit", N: stars, TrainLen: 200, TestLen: 10, VariableFrac: 0.5, Seed: int64(stars)}.Generate()
		artifact, err := spec.Train(d.Train, backend.SmallOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 3, 8} {
			// Each round draws its own calibration: a repeated one would be
			// restored from the last round's fit, not fitted.
			calib := make([][]float64, stars)
			for v := range calib {
				calib[v] = make([]float64, 300+rng.Intn(700))
				for i := range calib[v] {
					calib[v][i] = rng.ExpFloat64() + 0.01*float64(i%50)
				}
			}
			want := make([][]byte, stars)
			for v := range want {
				sp := evt.NewDSPOT(dcfg.Level, dcfg.Q, dcfg.Depth)
				sp.SetPolicy(dcfg.Refit)
				if err := sp.Fit(calib[v]); err != nil {
					t.Fatal(err)
				}
				if want[v], err = json.Marshal(sp.State()); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GOMAXPROCS(procs)
			inner, err := spec.Open(artifact)
			if err != nil {
				t.Fatal(err)
			}
			stage, err := backend.NewDSPOTStage(inner, dcfg, calib)
			if err != nil {
				t.Fatalf("%d stars, GOMAXPROCS %d: %v", stars, procs, err)
			}
			blob, err := stage.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			var snap struct{ Spots []json.RawMessage }
			if err := json.Unmarshal(blob, &snap); err != nil {
				t.Fatal(err)
			}
			for v, got := range snap.Spots {
				if !bytes.Equal(got, want[v]) {
					t.Fatalf("%d stars, GOMAXPROCS %d, star %d: tail model\n%s\nfitted alone\n%s", stars, procs, v, got, want[v])
				}
			}

			// Starve some stars of calibration points: the error is the
			// first of them in star order, whichever worker met it first.
			short := append([][]float64(nil), calib...)
			first := -1
			for v := stars - 1; v >= 0; v -= 1 + v%3 {
				short[v] = calib[v][:dcfg.Depth+8]
				first = v
			}
			ferr := evt.NewDSPOT(dcfg.Level, dcfg.Q, dcfg.Depth).Fit(short[first])
			wantErr := fmt.Sprintf("backend: dspot variate %d: %v", first, ferr)
			if _, err := backend.NewDSPOTStage(inner, dcfg, short); err == nil || err.Error() != wantErr {
				t.Fatalf("%d stars, GOMAXPROCS %d: error %v, want %s", stars, procs, err, wantErr)
			}
		}
	}
}

// TestDSPOTStageRejectsBadConfig: a level or q outside (0, 1), NaN
// included, is refused before any star is fitted.
func TestDSPOTStageRejectsBadConfig(t *testing.T) {
	d := dspotTestData()
	spec, _ := backend.Get(baselines.KindFluxEV)
	artifact, err := spec.Train(d.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := spec.Open(artifact)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := baselines.StreamScores(inner, d.Train)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		level, q float64
		ok       bool
	}{
		{0.99, 1e-3, true},
		{0.99, nan, false},
		{nan, 1e-3, false},
		{1.5, 1e-3, false},
		{0, 1e-3, false},
		{0.99, 0, false},
		{0.99, 1, false},
	} {
		cfg := backend.DefaultDSPOTConfig()
		cfg.Level, cfg.Q = tc.level, tc.q
		_, err := backend.NewDSPOTStage(inner, cfg, calib)
		if (err == nil) != tc.ok {
			t.Errorf("level %v, q %v: err %v, want ok=%v", tc.level, tc.q, err, tc.ok)
		}
	}
}

// TestTrainOpenRoundTrip covers the spec registry surface for every
// kind: train → open → serve a few frames.
func TestTrainOpenRoundTrip(t *testing.T) {
	d := dspotTestData()
	kinds := backend.Kinds()
	if fmt.Sprint(kinds) != "[aero fluxev]" {
		t.Fatalf("registered kinds %v, want [aero fluxev]", kinds)
	}
	for _, kind := range kinds {
		if kind == core.KindAERO {
			continue // covered by the engine identity tests (training is slow)
		}
		artifact, err := backend.Train(kind, d.Train, backend.SmallOptions())
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		b, err := backend.Open(kind, artifact)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if b.Kind() != kind || b.Variates() != d.Train.N() {
			t.Fatalf("%s: wrong identity %s/%d", kind, b.Kind(), b.Variates())
		}
	}
	if _, err := backend.Train("nope", d.Train, backend.SmallOptions()); err == nil {
		t.Fatal("unknown kind trained")
	}
	if _, err := backend.Open("nope", nil); err == nil {
		t.Fatal("unknown kind opened")
	}
}
