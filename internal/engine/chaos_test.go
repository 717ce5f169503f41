package engine_test

import (
	"bytes"
	"math"
	"testing"
	"time"

	"aero/internal/backend"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
	"aero/internal/faultinject"
	"aero/internal/metrics"
)

// fluxevArtifact trains one fluxev artifact shared by the chaos tests
// (cheap streaming baseline — the chaos tests exercise the supervisor,
// not the detector).
func fluxevArtifact(t testing.TB) []byte {
	t.Helper()
	fixture(t)
	artifact, err := backend.Train("fluxev", fixD.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	return artifact
}

func openFluxev(t testing.TB, artifact []byte) core.StreamBackend {
	t.Helper()
	b, err := backend.Open("fluxev", artifact)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// chaosHealth is the small-knob supervisor used by the chaos tests: the
// 260-frame test feed has to fit quarantine backoffs and a full recovery.
func chaosHealth() engine.HealthConfig {
	return engine.HealthConfig{
		DegradeAfter:    1,
		QuarantineAfter: 2,
		BackoffFrames:   8,
		BackoffMax:      2,
		ProbationFrames: 4,
	}
}

// chaosPlan is the golden test's fault schedule: a dense burst of panics,
// errors, NaN-scored alarms, and latency spikes over a narrow frame
// window. The window is narrow on purpose — the wrapper's frame index
// only advances when the primary is actually pushed, so quarantine
// freezes the chaotic window and probation probes burn it down one frame
// per probe; the feed must outlast that.
func chaosPlan() faultinject.Plan {
	return faultinject.Plan{
		Seed: 7, From: 40, Until: 48,
		PanicEvery: 2, ErrEvery: 3, NaNEvery: 4,
		DelayEvery: 5, Delay: 200 * time.Microsecond,
	}
}

// chaosRun drives 3 clean tenants — and optionally a chaotic fourth —
// through one engine and returns each tenant's alarm sequence plus the
// chaotic tenant's stats.
func chaosRun(t *testing.T, artifact []byte, withChaos bool) (map[string][]core.Alarm, engine.SubscriptionStats) {
	t.Helper()
	ids := []string{"clean-0", "clean-1", "clean-2"}
	series := make([]*dataset.Series, len(ids))
	for i := range ids {
		series[i] = tenantSeries(i).Test
	}

	e := engine.New(engine.Config{Shards: 2, Workers: 2, QueueDepth: 16, BatchSize: 4, Health: chaosHealth()})
	for _, id := range ids {
		if _, err := e.SubscribeBackend(id, openFluxev(t, artifact)); err != nil {
			t.Fatal(err)
		}
	}
	var chaosSub *engine.Subscription
	var chaosSeries *dataset.Series
	if withChaos {
		chaosSeries = tenantSeries(3).Test
		det := faultinject.New(openFluxev(t, artifact), chaosPlan())
		sub, err := e.SubscribeBackend("chaos", det)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.SetFallback(openFluxev(t, artifact)); err != nil {
			t.Fatal(err)
		}
		chaosSub = sub
	}

	got, wg := collectAlarms(e)
	frame := core.Frame{Magnitudes: make([]float64, series[0].N())}
	push := func(id string, s *dataset.Series, ti int) {
		frame.Time = s.Time[ti]
		for v := 0; v < s.N(); v++ {
			frame.Magnitudes[v] = s.Data[v][ti]
		}
		if err := e.Ingest(id, frame); err != nil {
			t.Fatal(err)
		}
	}
	for ti := 0; ti < series[0].Len(); ti++ {
		for i, id := range ids {
			push(id, series[i], ti)
		}
		if withChaos {
			push("chaos", chaosSeries, ti)
		}
	}
	e.Flush()
	var st engine.SubscriptionStats
	if withChaos {
		st = chaosSub.Stats()
	}
	e.Close()
	wg.Wait()
	return got, st
}

// TestChaosGoldenCleanTenants is the headline containment claim: with a
// seeded fault-injecting co-tenant throwing panics, errors, NaN-scored
// alarms, and latency spikes, (1) the clean tenants' alarm sequences are
// bit-identical to a fault-free replay, (2) no shard worker dies — every
// clean frame is scored, (3) the faulty tenant walks the full
// healthy → quarantined → probation → healthy cycle with each transition
// visible in its stats, and (4) the whole run is deterministic: a second
// run reproduces the chaotic tenant's counters and alarms exactly.
func TestChaosGoldenCleanTenants(t *testing.T) {
	artifact := fluxevArtifact(t)

	// Golden: sequential fault-free replays of the clean tenants.
	want := map[string][]core.Alarm{}
	for i, id := range []string{"clean-0", "clean-1", "clean-2"} {
		ref := openFluxev(t, artifact)
		s := tenantSeries(i).Test
		frame := core.Frame{Magnitudes: make([]float64, s.N())}
		for ti := 0; ti < s.Len(); ti++ {
			frame.Time = s.Time[ti]
			for v := 0; v < s.N(); v++ {
				frame.Magnitudes[v] = s.Data[v][ti]
			}
			alarms, err := ref.Push(frame)
			if err != nil {
				t.Fatal(err)
			}
			want[id] = append(want[id], alarms...)
		}
	}

	got, st := chaosRun(t, artifact, true)
	for id, w := range want {
		g := got[id]
		if len(g) != len(w) {
			t.Fatalf("%s: %d alarms beside chaos, %d in fault-free replay", id, len(g), len(w))
		}
		for k := range g {
			if g[k] != w[k] {
				t.Fatalf("%s alarm %d: %+v != golden %+v", id, k, g[k], w[k])
			}
		}
	}

	// The faulty tenant's full lifecycle, visible in stats.
	if st.Panics == 0 || st.Faults == 0 {
		t.Fatalf("chaos tenant recorded no faults: %+v", st)
	}
	if st.Degradations == 0 || st.Quarantines == 0 || st.Probations == 0 || st.Recoveries == 0 {
		t.Fatalf("chaos tenant did not walk healthy→degraded→quarantined→probation→healthy: %+v", st)
	}
	if st.Health != engine.HealthHealthy {
		t.Fatalf("chaos tenant ended %v, want healthy (feed must outlast the fault window)", st.Health)
	}
	if st.FallbackFrames == 0 {
		t.Fatalf("fallback never served during quarantine: %+v", st)
	}
	// Containment of corrupted output: no NaN-scored alarm may reach the
	// consumer from any tenant.
	for id, alarms := range got {
		for _, a := range alarms {
			if math.IsNaN(a.Score) || math.IsInf(a.Score, 0) {
				t.Fatalf("%s leaked a non-finite alarm score: %+v", id, a)
			}
		}
	}

	// Determinism: replay the identical chaotic run and compare.
	got2, st2 := chaosRun(t, artifact, true)
	for id := range got {
		g, g2 := got[id], got2[id]
		if len(g) != len(g2) {
			t.Fatalf("%s: run 1 %d alarms, run 2 %d", id, len(g), len(g2))
		}
		for k := range g {
			if g[k] != g2[k] {
				t.Fatalf("%s alarm %d differs across identical chaos runs", id, k)
			}
		}
	}
	if st.Faults != st2.Faults || st.Panics != st2.Panics ||
		st.Quarantines != st2.Quarantines || st.Probations != st2.Probations ||
		st.Recoveries != st2.Recoveries || st.FallbackFrames != st2.FallbackFrames ||
		st.Health != st2.Health {
		t.Fatalf("chaos tenant counters differ across identical runs:\n%+v\n%+v", st, st2)
	}

	// Cross-check against a chaos-free engine run: the clean tenants must
	// not even notice the co-tenant existed.
	got3, _ := chaosRun(t, artifact, false)
	for id := range want {
		g, g3 := got[id], got3[id]
		if len(g) != len(g3) {
			t.Fatalf("%s: %d alarms with chaos co-tenant, %d without", id, len(g), len(g3))
		}
		for k := range g {
			if g[k] != g3[k] {
				t.Fatalf("%s alarm %d differs with/without chaos co-tenant", id, k)
			}
		}
	}
}

// TestChaosLatencyFaults pins the latency-breach signal: with a
// LatencyThreshold configured and a co-tenant whose pushes stall past it,
// the supervisor charges latency faults and quarantines the tenant onto
// its fallback.
func TestChaosLatencyFaults(t *testing.T) {
	artifact := fluxevArtifact(t)
	h := chaosHealth()
	h.LatencyThreshold = 100 * time.Microsecond
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 16, Health: h})
	det := faultinject.New(openFluxev(t, artifact), faultinject.Plan{
		Seed: 3, From: 10, Until: 16, DelayEvery: 1, Delay: 2 * time.Millisecond,
	})
	sub, err := e.SubscribeBackend("slow", det)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.SetFallback(openFluxev(t, artifact)); err != nil {
		t.Fatal(err)
	}
	got, wg := collectAlarms(e)
	s := tenantSeries(0).Test
	frame := core.Frame{Magnitudes: make([]float64, s.N())}
	for ti := 0; ti < 120; ti++ {
		frame.Time = s.Time[ti]
		for v := 0; v < s.N(); v++ {
			frame.Magnitudes[v] = s.Data[v][ti]
		}
		if err := e.Ingest("slow", frame); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	st := sub.Stats()
	e.Close()
	wg.Wait()
	_ = got
	if st.Faults == 0 || st.Quarantines == 0 {
		t.Fatalf("latency spikes were not charged as faults: %+v", st)
	}
	if st.FallbackFrames == 0 {
		t.Fatalf("fallback never served through the latency quarantine: %+v", st)
	}
}

// TestErrorsDroppedCounter pins the error-channel accounting: when the
// Errors channel is full and nobody drains it, frame-error reports are
// dropped from the channel but every drop is counted — the errors
// themselves stay visible in Errors, the lost reports in ErrorsDropped.
func TestErrorsDroppedCounter(t *testing.T) {
	artifact := fluxevArtifact(t)
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 8, ErrorBuffer: 1})
	det := faultinject.New(openFluxev(t, artifact), faultinject.Plan{Seed: 2, ErrEvery: 1})
	if _, err := e.SubscribeBackend("noisy", det); err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	s := tenantSeries(0).Test
	const n = 50
	frame := core.Frame{Magnitudes: make([]float64, s.N())}
	for ti := 0; ti < n; ti++ {
		frame.Time = s.Time[ti]
		for v := 0; v < s.N(); v++ {
			frame.Magnitudes[v] = s.Data[v][ti]
		}
		if err := e.Ingest("noisy", frame); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	tot := e.Totals()
	e.Close()
	wg.Wait()
	if tot.Errors != n {
		t.Fatalf("Errors %d, want %d (every frame errored)", tot.Errors, n)
	}
	// One report fits the channel; every further one must be counted as
	// dropped, never silently discarded.
	if tot.ErrorsDropped != n-1 {
		t.Fatalf("ErrorsDropped %d, want %d", tot.ErrorsDropped, n-1)
	}
}

// dirtyFeed derives a corrupted copy of a series: periodic NaN and ±Inf
// magnitudes after warmup, plus duplicated (stale) frames. It returns the
// frame sequence and the expected repaired replay under hold-last —
// stale frames skipped, non-finite samples held at the last finite value.
func dirtyFeed(s *dataset.Series) (feed []core.Frame, repaired []core.Frame) {
	lastGood := make([]float64, s.N())
	seen := false
	for ti := 0; ti < s.Len(); ti++ {
		mags := make([]float64, s.N())
		for v := 0; v < s.N(); v++ {
			mags[v] = s.Data[v][ti]
		}
		if ti > 10 {
			switch {
			case ti%17 == 0:
				mags[ti%s.N()] = math.NaN()
			case ti%23 == 0:
				mags[ti%s.N()] = math.Inf(1)
				mags[(ti+1)%s.N()] = math.Inf(-1)
			}
		}
		f := core.Frame{Time: s.Time[ti], Magnitudes: mags}
		feed = append(feed, f)
		if ti > 10 && ti%31 == 0 {
			// Duplicate the frame — a stale timestamp hygiene must drop.
			dup := core.Frame{Time: f.Time, Magnitudes: append([]float64(nil), mags...)}
			feed = append(feed, dup)
		}

		// Expected repair.
		rep := append([]float64(nil), mags...)
		ok := true
		for v, x := range rep {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				if !seen {
					ok = false
					break
				}
				rep[v] = lastGood[v]
			}
		}
		if ok {
			copy(lastGood, rep)
			seen = true
			repaired = append(repaired, core.Frame{Time: f.Time, Magnitudes: rep})
		}
	}
	return feed, repaired
}

// TestHygieneAcrossBackendKinds pins the hygiene stage's contract on
// every registered backend kind: an engine fed NaN/Inf-corrupted and
// duplicated frames under hold-last produces exactly the alarms a
// sequential twin produces on the pre-repaired feed — and no frame error
// escalates into a health fault.
func TestHygieneAcrossBackendKinds(t *testing.T) {
	m, _ := fixture(t)
	opts := backend.Options{AERO: fixtureConfig(), Stream: backend.SmallOptions().Stream}
	series := tenantSeries(0).Test
	feed, repairedFeed := dirtyFeed(series)
	if len(repairedFeed) >= len(feed) {
		t.Fatalf("dirty feed degenerate: %d frames, %d survive repair", len(feed), len(repairedFeed))
	}

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
				if artifact, err = m.MarshalBytes(); err != nil {
					t.Fatal(err)
				}
			} else if artifact, err = spec.Train(fixD.Train, opts); err != nil {
				t.Fatal(err)
			}

			// Sequential reference over the repaired feed.
			ref, err := spec.Open(artifact)
			if err != nil {
				t.Fatal(err)
			}
			var want []core.Alarm
			for _, f := range repairedFeed {
				alarms, err := ref.Push(f)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, alarms...)
			}

			// Engine over the dirty feed, hygiene repairing in-line.
			e := engine.New(engine.Config{
				Shards: 2, Workers: 2, QueueDepth: 16, BatchSize: 4,
				Hygiene: engine.HygieneConfig{Policy: engine.HygieneHoldLast},
			})
			twin, err := spec.Open(artifact)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := e.SubscribeBackend("dirty", twin)
			if err != nil {
				t.Fatal(err)
			}
			got, wg := collectAlarms(e)
			for _, f := range feed {
				if err := e.Ingest("dirty", f); err != nil {
					t.Fatal(err)
				}
			}
			e.Flush()
			st := sub.Stats()
			e.Close()
			wg.Wait()

			g := got["dirty"]
			if len(g) != len(want) {
				t.Fatalf("engine %d alarms on dirty feed, repaired replay %d", len(g), len(want))
			}
			for k := range g {
				if g[k] != want[k] {
					t.Fatalf("alarm %d: engine %+v != repaired replay %+v", k, g[k], want[k])
				}
			}
			wantDropped := uint64(len(feed) - len(repairedFeed))
			if st.HygieneDropped != wantDropped {
				t.Fatalf("HygieneDropped %d, want %d", st.HygieneDropped, wantDropped)
			}
			if st.HygieneRepaired == 0 {
				t.Fatalf("no repairs recorded on a dirty feed: %+v", st)
			}
			if st.Faults != 0 || st.Health != engine.HealthHealthy {
				t.Fatalf("hygiene drops escalated into health faults: %+v", st)
			}
			if st.Frames != uint64(len(repairedFeed)) {
				t.Fatalf("scored %d frames, want %d", st.Frames, len(repairedFeed))
			}
		})
	}
}

// TestSnapshotRestoreMidQuarantine pins the versioned subscription
// snapshot: a tenant checkpointed mid-quarantine restores mid-quarantine
// in a fresh engine (cursor, backoff, fallback state intact), finishes
// its backoff on clean frames, and recovers. Corrupt envelopes are
// rejected without touching state, and pre-envelope bare backend blobs
// still restore through the legacy path.
func TestSnapshotRestoreMidQuarantine(t *testing.T) {
	artifact := fluxevArtifact(t)
	s := tenantSeries(0).Test
	h := engine.HealthConfig{QuarantineAfter: 3, BackoffFrames: 16, BackoffMax: 4, BackoffJitter: -1, ProbationFrames: 4}

	push := func(t *testing.T, e *engine.Engine, id string, ti int) {
		t.Helper()
		frame := core.Frame{Time: s.Time[ti], Magnitudes: make([]float64, s.N())}
		for v := 0; v < s.N(); v++ {
			frame.Magnitudes[v] = s.Data[v][ti]
		}
		if err := e.Ingest(id, frame); err != nil {
			t.Fatal(err)
		}
	}

	// Engine A: errors on every frame from 20 on — quarantined and pinned
	// there (probation probes keep failing).
	eA := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 8, Health: h})
	subA, err := eA.SubscribeBackend("tenant",
		faultinject.New(openFluxev(t, artifact), faultinject.Plan{Seed: 1, From: 20, ErrEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := subA.SetFallback(openFluxev(t, artifact)); err != nil {
		t.Fatal(err)
	}
	gotA, wgA := collectAlarms(eA)
	const cut = 60
	for ti := 0; ti < cut; ti++ {
		push(t, eA, "tenant", ti)
	}
	eA.Flush()
	if subA.Health() != engine.HealthQuarantined {
		t.Fatalf("tenant is %v at the checkpoint, want quarantined", subA.Health())
	}
	blob, err := subA.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	lastA, okA := subA.LastTime()
	eA.Close()
	wgA.Wait()
	_ = gotA
	if !bytes.HasPrefix(blob, []byte("AEROHLTH")) {
		t.Fatalf("subscription snapshot missing envelope magic: % x", blob[:8])
	}

	// Engine B: a *healthy* twin (no chaos wrapper — the operator replaced
	// the faulty build) restored from the checkpoint must come back
	// mid-quarantine, not healthy.
	eB := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 8, Health: h})
	subB, err := eB.SubscribeBackend("tenant", openFluxev(t, artifact))
	if err != nil {
		t.Fatal(err)
	}
	if err := subB.SetFallback(openFluxev(t, artifact)); err != nil {
		t.Fatal(err)
	}
	if err := subB.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if subB.Health() != engine.HealthQuarantined {
		t.Fatalf("restored tenant is %v, want quarantined", subB.Health())
	}
	if lastB, okB := subB.LastTime(); okB != okA || lastB != lastA {
		t.Fatalf("restored cursor (%v,%v), want (%v,%v)", lastB, okB, lastA, okA)
	}

	// A restore that carries a fallback into a subscription without one
	// must fail closed.
	eC := engine.New(engine.Config{Shards: 1, Workers: 1, Health: h})
	subC, err := eC.SubscribeBackend("tenant", openFluxev(t, artifact))
	if err != nil {
		t.Fatal(err)
	}
	if err := subC.RestoreState(blob); err == nil {
		t.Fatal("restore with a fallback payload succeeded into a fallback-less subscription")
	}
	eC.Close()

	// Clean frames finish the backoff, probation passes, tenant recovers.
	gotB, wgB := collectAlarms(eB)
	for ti := cut; ti < s.Len(); ti++ {
		push(t, eB, "tenant", ti)
	}
	eB.Flush()
	stB := subB.Stats()
	if stB.Health != engine.HealthHealthy || stB.Recoveries == 0 {
		t.Fatalf("restored tenant did not recover on clean frames: %+v", stB)
	}
	eB.Close()
	wgB.Wait()
	_ = gotB

	// Corrupt envelope: flip one byte mid-blob — rejected, state untouched.
	eD := engine.New(engine.Config{Shards: 1, Workers: 1, Health: h})
	subD, err := eD.SubscribeBackend("tenant", openFluxev(t, artifact))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if err := subD.RestoreState(bad); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if subD.Health() != engine.HealthHealthy {
		t.Fatalf("failed restore mutated health state: %v", subD.Health())
	}

	// Legacy path: a bare backend blob (no envelope) restores the primary
	// and seeds the time cursor.
	warm := openFluxev(t, artifact)
	wf := core.Frame{Magnitudes: make([]float64, s.N())}
	for ti := 0; ti < 30; ti++ {
		wf.Time = s.Time[ti]
		for v := 0; v < s.N(); v++ {
			wf.Magnitudes[v] = s.Data[v][ti]
		}
		if _, err := warm.Push(wf); err != nil {
			t.Fatal(err)
		}
	}
	bare, err := warm.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := subD.RestoreState(bare); err != nil {
		t.Fatal(err)
	}
	if lt, ok := subD.LastTime(); !ok || lt != s.Time[29] {
		t.Fatalf("legacy restore cursor (%v,%v), want (%v,true)", lt, ok, s.Time[29])
	}
	eD.Close()
}

// TestChaosWrappedTenantKeepsCapabilities: the chaos harness forwards only
// the core backend interface, so the engine finds an optional capability
// by walking its Inner chain. Under an empty Plan, which injects nothing,
// a chaos-wrapped AERO+DSPOT tenant keeps everything its stage offers: a
// model swap lands, a hygiene repair invalidates the inner detector's
// incremental caches (one invalidation refresh), and the tenant's tail
// counts in aero_dspot_exceedances_total.
func TestChaosWrappedTenantKeepsCapabilities(t *testing.T) {
	m, _ := fixture(t)
	artifact, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := backend.Get(core.KindAERO)
	stage, err := backend.OpenAdaptive(spec, artifact, backend.DefaultDSPOTConfig(), fixD.Train)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	e := engine.New(engine.Config{Shards: 1, Workers: 1, Metrics: reg,
		Hygiene: engine.HygieneConfig{Policy: engine.HygieneHoldLast}})
	sub, err := e.SubscribeBackend("chaos", faultinject.New(stage, faultinject.Plan{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Swap(m); err != nil {
		t.Fatalf("model swap into a chaos-wrapped tenant: %v", err)
	}
	if st := sub.Stats(); st.Swaps != 1 {
		t.Fatalf("swap not counted: %+v", st)
	}

	_, wg := collectAlarms(e)
	series := tenantSeries(0).Test
	invalidations := func() float64 {
		e.Flush()
		v, _ := reg.Value("aero_incremental_refreshes_total", "cause", "invalidation")
		return v
	}
	frame := core.Frame{Magnitudes: make([]float64, series.N())}
	push := func(ti int) {
		frame.Time = series.Time[ti]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = series.Data[v][ti]
		}
		if ti == series.Len()/2 {
			frame.Magnitudes[0] = math.NaN() // repaired by hold-last
		}
		if err := e.Ingest("chaos", frame); err != nil {
			t.Fatal(err)
		}
	}
	for ti := 0; ti < series.Len()/2; ti++ {
		push(ti)
	}
	before := invalidations()
	for ti := series.Len() / 2; ti < series.Len(); ti++ {
		push(ti)
	}
	if got := invalidations() - before; got != 1 {
		t.Fatalf("the repaired frame caused %v invalidation refreshes, want 1", got)
	}
	exceedances, _ := reg.Value("aero_dspot_exceedances_total")
	tail, ok := sub.RefitStats()
	e.Close()
	wg.Wait()
	if want := stage.RefitStats().Exceedances; !ok || want == 0 || tail.Exceedances != want || exceedances != float64(want) {
		t.Fatalf("exceedances: series %v, Subscription.RefitStats %d (ok=%v), stage %d", exceedances, tail.Exceedances, ok, want)
	}
}
