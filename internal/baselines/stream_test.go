package baselines

import (
	"bytes"
	"math"
	"testing"

	"aero/internal/core"
	"aero/internal/dataset"
)

func streamTestData() *dataset.Dataset {
	return dataset.SyntheticConfig{
		Name: "stream", N: 3, TrainLen: 400, TestLen: 300,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 11,
	}.Generate()
}

// replayStream pushes a series through a backend and returns the score
// matrix aligned to the series (NaN before warm-up).
func replayStream(t *testing.T, b core.StreamBackend, s *dataset.Series) [][]float64 {
	t.Helper()
	out := make([][]float64, s.N())
	for v := range out {
		out[v] = make([]float64, s.Len())
		for i := range out[v] {
			out[v][i] = math.NaN()
		}
	}
	frame := core.Frame{Magnitudes: make([]float64, s.N())}
	for ti := 0; ti < s.Len(); ti++ {
		frame.Time = s.Time[ti]
		for v := 0; v < s.N(); v++ {
			frame.Magnitudes[v] = s.Data[v][ti]
		}
		scores, err := b.PushScores(frame)
		if err != nil {
			t.Fatal(err)
		}
		for v, sc := range scores {
			out[v][ti] = sc
		}
	}
	return out
}

// TestStreamTMMatchesBatch pins the adapter's contract: at every full
// window the streaming score is bit-identical to the batch detector's —
// same window, same z-score, same correlations.
func TestStreamTMMatchesBatch(t *testing.T) {
	d := streamTestData()
	batch := NewTemplateMatching()
	if err := batch.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	want, err := batch.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultStreamConfig()
	sm, err := NewStreamTM(d.Test.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := replayStream(t, sm, d.Test)
	L := cfg.TMTemplateLen
	for v := range got {
		for ti := L - 1; ti < d.Test.Len(); ti++ {
			if got[v][ti] != want[v][ti] {
				t.Fatalf("variate %d t=%d: stream %v != batch %v", v, ti, got[v][ti], want[v][ti])
			}
		}
		for ti := 0; ti < L-1; ti++ {
			if !math.IsNaN(got[v][ti]) {
				t.Fatalf("variate %d t=%d: score before warm-up", v, ti)
			}
		}
	}
}

// TestStreamFluxEVMatchesBatch pins bit-identity of the streaming
// fluctuation extraction against the batch path from the second frame on
// (the first frame has no forecast to deviate from).
func TestStreamFluxEVMatchesBatch(t *testing.T) {
	d := streamTestData()
	batch := NewFluxEV()
	if err := batch.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	want, err := batch.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}

	sm, err := NewStreamFluxEV(d.Test.N(), DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := replayStream(t, sm, d.Test)
	for v := range got {
		if !math.IsNaN(got[v][0]) {
			t.Fatal("score at t=0")
		}
		for ti := 1; ti < d.Test.Len(); ti++ {
			if got[v][ti] != want[v][ti] {
				t.Fatalf("variate %d t=%d: stream %v != batch %v", v, ti, got[v][ti], want[v][ti])
			}
		}
	}
}

// TestStreamSRScoresSpike sanity-checks the windowed spectral residual:
// warm-up yields no scores, and an injected single-point spike scores
// far above the quiet-stream level.
func TestStreamSRScoresSpike(t *testing.T) {
	cfg := DefaultStreamConfig()
	sr, err := NewStreamSR(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frame := core.Frame{Magnitudes: make([]float64, 1)}
	quiet := 0.0
	var spike float64
	warmed := false
	const T = 400
	spikeAt := 300
	for ti := 0; ti < T; ti++ {
		frame.Time = float64(ti)
		frame.Magnitudes[0] = math.Sin(float64(ti) / 9)
		if ti == spikeAt {
			frame.Magnitudes[0] += 4
		}
		scores, err := sr.PushScores(frame)
		if err != nil {
			t.Fatal(err)
		}
		if scores == nil {
			if warmed {
				t.Fatalf("scores stopped flowing at t=%d", ti)
			}
			if ti >= cfg.SRWindow {
				t.Fatalf("still warming at t=%d, window %d", ti, cfg.SRWindow)
			}
			continue
		}
		warmed = true
		switch {
		case ti == spikeAt:
			spike = scores[0]
		case ti >= spikeAt-150 && ti < spikeAt:
			// Quiet level once the stream has settled (the first windows
			// after warm-up still carry edge effects).
			if scores[0] > quiet {
				quiet = scores[0]
			}
		}
	}
	if !warmed {
		t.Fatal("adapter never warmed")
	}
	if spike < 2*quiet || spike <= 0 {
		t.Fatalf("spike score %v not prominent over quiet max %v", spike, quiet)
	}
}

// TestCalibrateStream checks the POT calibration flow: the fitted
// threshold is finite and the training feed itself stays mostly below it.
func TestCalibrateStream(t *testing.T) {
	d := streamTestData()
	for _, mk := range []func() (CalibratableStream, error){
		func() (CalibratableStream, error) { return NewStreamSR(d.Train.N(), DefaultStreamConfig()) },
		func() (CalibratableStream, error) { return NewStreamTM(d.Train.N(), DefaultStreamConfig()) },
		func() (CalibratableStream, error) { return NewStreamFluxEV(d.Train.N(), DefaultStreamConfig()) },
	} {
		b, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if err := CalibrateStream(b, d.Train, 0.99, 1e-3); err != nil {
			t.Fatalf("%s: %v", b.Kind(), err)
		}
		thr := b.Threshold()
		if math.IsNaN(thr) || math.IsInf(thr, 0) || thr <= 0 {
			t.Fatalf("%s: unusable threshold %v", b.Kind(), thr)
		}
		// Round-trip through the artifact: same geometry, same threshold.
		art, err := b.MarshalArtifact()
		if err != nil {
			t.Fatal(err)
		}
		var reopened core.StreamBackend
		switch b.Kind() {
		case KindSR:
			reopened, err = OpenStreamSR(art)
		case KindTM:
			reopened, err = OpenStreamTM(art)
		case KindFluxEV:
			reopened, err = OpenStreamFluxEV(art)
		}
		if err != nil {
			t.Fatalf("%s: reopen: %v", b.Kind(), err)
		}
		if reopened.Threshold() != thr || reopened.Variates() != b.Variates() {
			t.Fatalf("%s: artifact round-trip changed calibration", b.Kind())
		}
	}
}

// streamAdapters builds one warm instance of each adapter for the shared
// contract tests.
func streamAdapters(t testing.TB, n int) []core.StreamBackend {
	t.Helper()
	cfg := DefaultStreamConfig()
	sr, err := NewStreamSR(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := NewStreamTM(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := NewStreamFluxEV(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return []core.StreamBackend{sr, tm, fx}
}

// TestStreamAdapterPushAllocs pins the engine's steady-state budget on
// every adapter: a warm Push of a benign frame performs zero allocations
// — the exact budget BenchmarkStreamPush holds for the AERO path.
func TestStreamAdapterPushAllocs(t *testing.T) {
	d := streamTestData()
	for _, b := range streamAdapters(t, d.Test.N()) {
		b := b
		t.Run(b.Kind(), func(t *testing.T) {
			if cs, ok := b.(CalibratableStream); ok {
				cs.SetThreshold(math.Inf(1)) // alarms never fire: pure scoring path
			}
			frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
			next := 0
			push := func() {
				idx := next % d.Test.Len()
				frame.Time = float64(next)
				for v := range frame.Magnitudes {
					frame.Magnitudes[v] = d.Test.Data[v][idx]
				}
				if _, err := b.Push(frame); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for i := 0; i < 2*128; i++ { // warm past every adapter window
				push()
			}
			if allocs := testing.AllocsPerRun(64, push); allocs != 0 {
				t.Fatalf("steady-state %s Push allocates %.1f objects/frame, want 0", b.Kind(), allocs)
			}
		})
	}
}

// TestStreamAdapterSnapshotRestore pins warm-restart bit-identity for
// every adapter: feed half the series, snapshot, restore into a fresh
// instance, and the continued score stream must equal the uninterrupted
// one exactly.
func TestStreamAdapterSnapshotRestore(t *testing.T) {
	d := streamTestData()
	cut := d.Test.Len() / 2
	for i, uninterrupted := range streamAdapters(t, d.Test.N()) {
		b := streamAdapters(t, d.Test.N())[i]
		fresh := streamAdapters(t, d.Test.N())[i]
		t.Run(b.Kind(), func(t *testing.T) {
			want := replayStream(t, uninterrupted, d.Test)

			frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
			for ti := 0; ti < cut; ti++ {
				frame.Time = d.Test.Time[ti]
				for v := 0; v < d.Test.N(); v++ {
					frame.Magnitudes[v] = d.Test.Data[v][ti]
				}
				if _, err := b.PushScores(frame); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := b.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			// A corrupt blob must not touch the detector.
			if err := fresh.RestoreState(blob[:len(blob)/2]); err == nil {
				t.Fatal("truncated state accepted")
			}
			if err := fresh.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			if lt, ok := fresh.LastTime(); !ok || lt != d.Test.Time[cut-1] {
				t.Fatalf("restored cursor %v, want %v", lt, d.Test.Time[cut-1])
			}
			for ti := cut; ti < d.Test.Len(); ti++ {
				frame.Time = d.Test.Time[ti]
				for v := 0; v < d.Test.N(); v++ {
					frame.Magnitudes[v] = d.Test.Data[v][ti]
				}
				scores, err := fresh.PushScores(frame)
				if err != nil {
					t.Fatal(err)
				}
				for v, sc := range scores {
					if sc != want[v][ti] {
						t.Fatalf("variate %d t=%d: restored %v != uninterrupted %v", v, ti, sc, want[v][ti])
					}
				}
			}
		})
	}
}

// TestStreamAdapterRejectsNonFiniteTime: on every adapter, cold, warming and
// warm, a NaN or ±Inf frame time is an error that leaves the adapter as it
// was — the same snapshot — so the next finite frames score the bits of a
// twin that never saw it. (NaN passes a `time <= last` order check, and an
// adapter that stored it took any time after it; one that stored +Inf
// refused every later frame.)
func TestStreamAdapterRejectsNonFiniteTime(t *testing.T) {
	checkRefusesNonFinite(t, func(f *core.Frame, bad float64) { f.Time = bad })
}

// TestStreamAdapterRejectsNonFiniteMagnitude is the same contract for a
// magnitude, as hygiene-off serving delivers one. Before, FluxEV's
// forecast kept a NaN for good and SR held an +Inf until it left the
// ring; meanwhile every SnapshotState failed, because JSON has no NaN or
// Inf.
func TestStreamAdapterRejectsNonFiniteMagnitude(t *testing.T) {
	checkRefusesNonFinite(t, func(f *core.Frame, bad float64) { f.Magnitudes[len(f.Magnitudes)-1] = bad })
}

// checkRefusesNonFinite poisons one frame with NaN, +Inf and -Inf after 0,
// 5 and 260 frames: every adapter must refuse it, snapshot the bytes it
// snapshot before, and score the next finite frames bit for bit like a
// twin that never saw it.
func checkRefusesNonFinite(t *testing.T, poison func(f *core.Frame, bad float64)) {
	d := streamTestData()
	n := d.Test.N()
	frame := func(i int) core.Frame {
		f := core.Frame{Time: d.Test.Time[i], Magnitudes: make([]float64, n)}
		for v := range f.Magnitudes {
			f.Magnitudes[v] = d.Test.Data[v][i]
		}
		return f
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, warm := range []int{0, 5, 260} { // 260: past every adapter window
			twins := streamAdapters(t, n)
			for k, b := range streamAdapters(t, n) {
				twin := twins[k]
				for i := 0; i < warm; i++ {
					for _, a := range []core.StreamBackend{b, twin} {
						if _, err := a.PushScores(frame(i)); err != nil {
							t.Fatal(err)
						}
					}
				}
				before, err := b.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				f := frame(warm)
				poison(&f, bad)
				if _, err := b.PushScores(f); err == nil {
					t.Fatalf("%s: %v after %d frames accepted", b.Kind(), bad, warm)
				}
				after, err := b.SnapshotState()
				if err != nil {
					t.Fatalf("%s: snapshot after refusing %v: %v", b.Kind(), bad, err)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("%s: refused %v after %d frames changed the adapter", b.Kind(), bad, warm)
				}
				for i := warm; i < warm+10; i++ {
					got, err := b.PushScores(frame(i))
					if err != nil {
						t.Fatalf("%s: %v after %d frames: frame %d refused: %v", b.Kind(), bad, warm, i, err)
					}
					want, err := twin.PushScores(frame(i))
					if err != nil {
						t.Fatal(err)
					}
					if (got == nil) != (want == nil) {
						t.Fatalf("%s: frame %d scored %v, twin %v", b.Kind(), i, got != nil, want != nil)
					}
					for v := range want {
						if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
							t.Fatalf("%s: frame %d variate %d scored %v, twin %v", b.Kind(), i, v, got[v], want[v])
						}
					}
				}
			}
		}
	}
}

// warmStreamAdapters returns one adapter of each kind for n variates, fed
// past every warm-up on a short deterministic feed.
func warmStreamAdapters(t testing.TB, n int) []core.StreamBackend {
	t.Helper()
	bs := streamAdapters(t, n)
	frame := core.Frame{Magnitudes: make([]float64, n)}
	for ti := 0; ti < 80; ti++ {
		frame.Time = float64(ti)
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = float64((7*ti+3*v)%11) / 4
		}
		for _, b := range bs {
			if _, err := b.PushScores(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	return bs
}

// FuzzStreamAdapterRestoreState feeds arbitrary bytes to RestoreState of
// a warm adapter of every kind. It must error or succeed, never panic. An
// error leaves the adapter as it was (its snapshot is unchanged); a
// success leaves it where a fresh adapter restored from the same bytes
// is — the next push scores the same bits — with fluxev's running
// maximum rebuilt to what the scan reads. The seed corpus is one valid
// snapshot per kind from warmStreamAdapters(2) plus its truncations.
func FuzzStreamAdapterRestoreState(f *testing.F) {
	const n = 2
	warm := warmStreamAdapters(f, n)
	f.Fuzz(func(t *testing.T, blob []byte) {
		for i, b := range warm {
			before, err := b.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			if err := b.RestoreState(blob); err != nil {
				if after, _ := b.SnapshotState(); !bytes.Equal(before, after) {
					t.Fatalf("%s: failed restore (%v) changed the adapter", b.Kind(), err)
				}
				continue
			}
			fresh := streamAdapters(t, n)[i]
			if err := fresh.RestoreState(blob); err != nil {
				t.Fatalf("%s: restore into a warm adapter succeeded, into a fresh one: %v", b.Kind(), err)
			}
			if fx, ok := b.(*StreamFluxEV); ok {
				ref := newFluxevScanRef(n, fx.suppress, fx.alpha)
				ref.restore(t, blob)
				for v := range fx.hi {
					if want := ref.recent(v, ref.count); math.Float64bits(fx.hi[v]) != math.Float64bits(want) {
						t.Fatalf("fluxev variate %d: rebuilt maximum %v, scan %v", v, fx.hi[v], want)
					}
				}
			}
			frame := core.Frame{Magnitudes: []float64{0.5, -1.25}}
			if last, ok := b.LastTime(); ok {
				frame.Time = last + 1
			}
			got, gotErr := b.PushScores(frame)
			want, wantErr := fresh.PushScores(frame)
			if (gotErr == nil) != (wantErr == nil) || !sameBits(got, want) {
				t.Fatalf("%s: next push after restore %v (%v), fresh adapter %v (%v)", b.Kind(), got, gotErr, want, wantErr)
			}
			if err := b.RestoreState(before); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestStreamAdapterSwapArtifact checks the hot-swap contract: a
// same-geometry artifact lands (new threshold visible), a mismatched one
// is rejected without touching the adapter.
func TestStreamAdapterSwapArtifact(t *testing.T) {
	d := streamTestData()
	for i, b := range streamAdapters(t, d.Test.N()) {
		t.Run(b.Kind(), func(t *testing.T) {
			cs := b.(CalibratableStream)
			cs.SetThreshold(1.25)
			art, err := cs.MarshalArtifact()
			if err != nil {
				t.Fatal(err)
			}
			cs.SetThreshold(99)
			if err := b.SwapArtifact(art); err != nil {
				t.Fatal(err)
			}
			if b.Threshold() != 1.25 {
				t.Fatalf("swap did not install threshold: %v", b.Threshold())
			}
			// Wrong-kind artifact: rejected.
			other := streamAdapters(t, d.Test.N())[(i+1)%3]
			wrongKind, err := other.(CalibratableStream).MarshalArtifact()
			if err != nil {
				t.Fatal(err)
			}
			if err := b.SwapArtifact(wrongKind); err == nil {
				t.Fatal("wrong-kind artifact accepted")
			}
			// Wrong-geometry artifact: rejected.
			narrow := streamAdapters(t, d.Test.N()+1)[i]
			wrongGeom, err := narrow.(CalibratableStream).MarshalArtifact()
			if err != nil {
				t.Fatal(err)
			}
			if err := b.SwapArtifact(wrongGeom); err == nil {
				t.Fatal("wrong-geometry artifact accepted")
			}
			if b.Threshold() != 1.25 {
				t.Fatal("failed swap mutated the adapter")
			}
		})
	}
}

// TestStreamAdapterRejectsBadFrames covers the shared ingest validation.
func TestStreamAdapterRejectsBadFrames(t *testing.T) {
	for _, b := range streamAdapters(t, 2) {
		if _, err := b.PushScores(core.Frame{Time: 1, Magnitudes: make([]float64, 3)}); err == nil {
			t.Fatalf("%s accepted a wrong-width frame", b.Kind())
		}
		if _, err := b.PushScores(core.Frame{Time: 1, Magnitudes: make([]float64, 2)}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.PushScores(core.Frame{Time: 1, Magnitudes: make([]float64, 2)}); err == nil {
			t.Fatalf("%s accepted a non-increasing time", b.Kind())
		}
	}
}
