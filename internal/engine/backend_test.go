package engine_test

import (
	"maps"
	"math"
	"testing"

	"aero/internal/backend"
	"aero/internal/core"
	"aero/internal/engine"
)

// openIdentityBackend opens one serving instance for the bit-identity
// test: the kind's cold backend, optionally DSPOT-wrapped (calibrated on
// the fixture's training split — the deterministic calibration makes
// twin instances exact clones).
func openIdentityBackend(t *testing.T, spec backend.Spec, artifact []byte, adaptive bool) core.StreamBackend {
	t.Helper()
	if adaptive {
		stage, err := backend.OpenAdaptive(spec, artifact, backend.DefaultDSPOTConfig(), fixD.Train)
		if err != nil {
			t.Fatal(err)
		}
		return stage
	}
	b, err := spec.Open(artifact)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEngineBackendMatchesSequentialReplay extends the engine's
// equivalence contract to every registered backend kind, static and
// DSPOT-wrapped: the sharded worker-pool pipeline must produce exactly
// the alarms sequential pushes through a twin backend produce — same
// frames, same order, bit-identical scores. CI runs each kind's subtree
// in a -race matrix step.
func TestEngineBackendMatchesSequentialReplay(t *testing.T) {
	m, _ := fixture(t)
	series := tenantSeries(0).Test
	opts := backend.Options{AERO: fixtureConfig(), Stream: backend.SmallOptions().Stream}

	totalAlarms := 0
	for _, kind := range backend.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			spec, ok := backend.Get(kind)
			if !ok {
				t.Fatalf("kind %s not registered", kind)
			}
			var artifact []byte
			var err error
			if kind == core.KindAERO {
				// Reuse the shared fixture model instead of re-training.
				if artifact, err = m.MarshalBytes(); err != nil {
					t.Fatal(err)
				}
			} else if artifact, err = spec.Train(fixD.Train, opts); err != nil {
				t.Fatal(err)
			}

			for _, mode := range []struct {
				name     string
				adaptive bool
			}{{"static", false}, {"dspot", true}} {
				mode := mode
				t.Run(mode.name, func(t *testing.T) {
					// Sequential reference.
					ref := openIdentityBackend(t, spec, artifact, mode.adaptive)
					var want []core.Alarm
					frame := core.Frame{Magnitudes: make([]float64, series.N())}
					for ti := 0; ti < series.Len(); ti++ {
						frame.Time = series.Time[ti]
						for v := 0; v < series.N(); v++ {
							frame.Magnitudes[v] = series.Data[v][ti]
						}
						alarms, err := ref.Push(frame)
						if err != nil {
							t.Fatal(err)
						}
						want = append(want, alarms...)
					}

					// Engine path with a twin instance.
					e := engine.New(engine.Config{Shards: 3, Workers: 4, QueueDepth: 16, BatchSize: 4})
					sub, err := e.SubscribeBackend("twin", openIdentityBackend(t, spec, artifact, mode.adaptive))
					if err != nil {
						t.Fatal(err)
					}
					got, wg := collectAlarms(e)
					for ti := 0; ti < series.Len(); ti++ {
						frame.Time = series.Time[ti]
						for v := 0; v < series.N(); v++ {
							frame.Magnitudes[v] = series.Data[v][ti]
						}
						if err := e.Ingest("twin", frame); err != nil {
							t.Fatal(err)
						}
					}
					e.Flush()
					if st := sub.Stats(); st.Frames != uint64(series.Len()) || !st.Ready {
						t.Fatalf("stats %+v, want %d frames and ready", st, series.Len())
					}
					e.Close()
					wg.Wait()

					g := got["twin"]
					if len(g) != len(want) {
						t.Fatalf("engine produced %d alarms, sequential replay %d", len(g), len(want))
					}
					for k := range g {
						if g[k] != want[k] {
							t.Fatalf("alarm %d: engine %+v != replay %+v", k, g[k], want[k])
						}
					}
					totalAlarms += len(want)
				})
			}
		})
	}
	// The contract is only meaningful if the feed alarms somewhere.
	if totalAlarms == 0 {
		t.Fatal("no backend raised any alarm; equivalence suite is vacuous")
	}
}

// TestEngineRejectsNonFiniteFrameTime: with hygiene off (the default) a
// frame whose time is NaN or ±Inf reaches the backend, which refuses it
// before touching its rings; the engine reports a FrameError for the tenant,
// and the tenant's next finite frame scores. One AERO and one fluxev tenant:
// internal/core and internal/baselines each check the time themselves.
func TestEngineRejectsNonFiniteFrameTime(t *testing.T) {
	m, _ := fixture(t)
	series := tenantSeries(0).Test
	aeroDet, err := core.NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := backend.Train("fluxev", fixD.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	fluxDet, err := backend.Open("fluxev", artifact)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Shards: 1, Workers: 1})
	_, wg := collectAlarms(e)
	subs := map[string]*engine.Subscription{}
	for id, det := range map[string]core.StreamBackend{"aero": aeroDet, "flux": fluxDet} {
		if subs[id], err = e.SubscribeBackend(id, det); err != nil {
			t.Fatal(err)
		}
	}
	feed := func(f core.Frame) {
		for id := range subs {
			if err := e.Ingest(id, f); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	frame := func(i int) core.Frame {
		f := core.Frame{Time: series.Time[i], Magnitudes: make([]float64, series.N())}
		for v := range f.Magnitudes {
			f.Magnitudes[v] = series.Data[v][i]
		}
		return f
	}
	next := 0
	for ; next < m.Config().LongWindow+2; next++ {
		feed(frame(next))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		f := frame(next)
		f.Time = bad
		feed(f)
		reported := map[string]bool{}
		for range subs {
			select {
			case fe := <-e.Errors():
				if subs[fe.Sub] == nil || fe.Err == nil || math.Float64bits(fe.Time) != math.Float64bits(bad) {
					t.Fatalf("time %v: FrameError %+v", bad, fe)
				}
				reported[fe.Sub] = true
			default:
				t.Fatalf("time %v: FrameErrors for %v only", bad, reported)
			}
		}
		scored := map[string]uint64{}
		for id, sub := range subs {
			scored[id] = sub.Stats().Frames
		}
		feed(frame(next))
		next++
		for id, sub := range subs {
			if got := sub.Stats().Frames; got != scored[id]+1 {
				t.Fatalf("%s: the finite frame after time %v was not scored (%d frames, then %d)", id, bad, scored[id], got)
			}
		}
	}
	select {
	case fe := <-e.Errors():
		t.Fatalf("a finite frame failed: %+v", fe)
	default:
	}
	e.Close()
	wg.Wait()
}

// TestSubscriptionBackendCapabilities covers the capability seams of a
// non-AERO tenant: model swaps and graph snapshots are cleanly rejected,
// artifact swaps land and count, and the kind tag is visible.
func TestSubscriptionBackendCapabilities(t *testing.T) {
	m, _ := fixture(t)
	artifact, err := backend.Train("fluxev", fixD.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	det, err := backend.Open("fluxev", artifact)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Shards: 1, Workers: 1})
	sub, err := e.SubscribeBackend("flux", det)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Kind() != "fluxev" {
		t.Fatalf("kind %q", sub.Kind())
	}
	if err := sub.Swap(m); err == nil {
		t.Fatal("model swap accepted by a fluxev tenant")
	}
	if _, err := sub.GraphSnapshot(); err == nil {
		t.Fatal("graph snapshot served by a fluxev tenant")
	}
	if st := sub.Stats(); st.Swaps != 0 {
		t.Fatalf("failed swap counted: %+v", st)
	}
	if err := sub.SwapArtifact(artifact); err != nil {
		t.Fatal(err)
	}
	if st := sub.Stats(); st.Swaps != 1 {
		t.Fatalf("artifact swap not counted: %+v", st)
	}

	// A DSPOT-wrapped AERO tenant keeps the shared-weights model-swap
	// fast path: the stage passes Swap through to the inner detector.
	aeroArtifact, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	aeroSpec, _ := backend.Get(core.KindAERO)
	stage, err := backend.OpenAdaptive(aeroSpec, aeroArtifact, backend.DefaultDSPOTConfig(), fixD.Train)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := e.SubscribeBackend("aero-dspot", stage)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Swap(m); err != nil {
		t.Fatal(err)
	}
	if st := wrapped.Stats(); st.Swaps != 1 {
		t.Fatalf("model swap through the stage not counted: %+v", st)
	}

	_, wg := collectAlarms(e)
	e.Close()
	wg.Wait()
}

// TestNaNScoreDoesNotSilenceDSPOT: with hygiene off (the default) one NaN
// magnitude reaches the backends of an AERO+DSPOT and a fluxev+DSPOT
// tenant. AERO's graph spreads it to every star's score while the frame is
// in the window; the DSPOT stage refuses each frame with a non-finite
// score before stepping any star. fluxev refuses the NaN frame itself,
// state untouched. So the poisoned frames surface — as FrameErrors with
// supervision off, as faults with it on —, fluxev's only at the NaN, and
// once the NaN has left AERO's window the spikes alarm on every star they
// alarm on in a clean run. Before, the NaN entered the drift windows
// silently: no star of either tenant alarmed again, and both stayed
// healthy with no fault and no error.
func TestNaNScoreDoesNotSilenceDSPOT(t *testing.T) {
	m, _ := fixture(t)
	series := tenantSeries(0).Test
	aeroArt, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	fluxArt, err := backend.Train("fluxev", fixD.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	arts := map[string][]byte{"aero": aeroArt, "fluxev": fluxArt}
	const poisonAt, spikeFrom, spikeTo = 120, 200, 250
	type outcome struct {
		spiked map[int]bool // stars alarming during the spikes
		errs   []float64    // FrameError times
		stats  engine.SubscriptionStats
	}
	run := func(health engine.HealthConfig, poison bool) map[string]outcome {
		e := engine.New(engine.Config{Shards: 1, Workers: 1, ErrorBuffer: 4 * series.Len(), Health: health})
		got, wg := collectAlarms(e)
		subs := map[string]*engine.Subscription{}
		for id, art := range arts {
			spec, _ := backend.Get(id)
			stage, err := backend.OpenAdaptive(spec, art, backend.DefaultDSPOTConfig(), fixD.Train)
			if err != nil {
				t.Fatal(err)
			}
			if subs[id], err = e.SubscribeBackend(id, stage); err != nil {
				t.Fatal(err)
			}
		}
		for ti := 0; ti < series.Len(); ti++ {
			f := core.Frame{Time: series.Time[ti], Magnitudes: make([]float64, series.N())}
			for v := range f.Magnitudes {
				f.Magnitudes[v] = series.Data[v][ti]
				if ti >= spikeFrom && ti <= spikeTo {
					f.Magnitudes[v] += 50
				}
			}
			if poison && ti == poisonAt {
				f.Magnitudes[0] = math.NaN()
			}
			for id := range subs {
				if err := e.Ingest(id, f); err != nil {
					t.Fatal(err)
				}
			}
		}
		e.Flush()
		e.Close()
		wg.Wait()
		out := map[string]outcome{}
		for id, sub := range subs {
			o := outcome{spiked: map[int]bool{}, stats: sub.Stats()}
			for _, a := range got[id] {
				if a.Time >= series.Time[spikeFrom] && a.Time <= series.Time[spikeTo] {
					o.spiked[a.Variate] = true
				}
			}
			out[id] = o
		}
		for fe := range e.Errors() {
			o := out[fe.Sub]
			o.errs = append(o.errs, fe.Time)
			out[fe.Sub] = o
		}
		return out
	}

	off := engine.HealthConfig{Disable: true}
	clean, poisoned := run(off, false), run(off, true)
	for id := range arts {
		if len(clean[id].errs) != 0 || len(clean[id].spiked) == 0 {
			t.Fatalf("%s clean run: %d errors, spikes alarm on stars %v", id, len(clean[id].errs), clean[id].spiked)
		}
		if errs := poisoned[id].errs; len(errs) == 0 || errs[0] != series.Time[poisonAt] {
			t.Fatalf("%s: the NaN frame surfaced no FrameError (errors at %v)", id, errs)
		}
	}
	// AERO's window lets the NaN go; fluxev never took it in.
	if errs := poisoned["fluxev"].errs; len(errs) != 1 {
		t.Fatalf("fluxev: %d FrameErrors (at %v), want the NaN frame's alone", len(errs), errs)
	}
	if got, want := poisoned["fluxev"].spiked, clean["fluxev"].spiked; !maps.Equal(got, want) {
		t.Fatalf("fluxev: spikes alarm on stars %v after the NaN, %v in a clean run", got, want)
	}
	w := m.Config().LongWindow
	if errs := poisoned["aero"].errs; errs[len(errs)-1] >= series.Time[poisonAt+w] {
		t.Fatalf("aero: FrameErrors went on past the window (last at %v)", errs[len(errs)-1])
	}
	for v := range clean["aero"].spiked {
		if !poisoned["aero"].spiked[v] {
			t.Fatalf("aero: star %d alarms on the spikes in a clean run, not after the NaN (poisoned run: %v)", v, poisoned["aero"].spiked)
		}
	}

	for id, o := range run(engine.HealthConfig{}, true) {
		if o.stats.Faults == 0 {
			t.Fatalf("%s under supervision: the NaN frames counted no fault (%+v)", id, o.stats)
		}
	}
}
