package lifecycle_test

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aero/internal/backend"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
	"aero/internal/lifecycle"
)

// fixtureConfig is a deliberately tiny training profile: lifecycle tests
// exercise storage and orchestration, not model quality.
func fixtureConfig(seed int64) core.Config {
	c := core.SmallConfig()
	c.LongWindow = 32
	c.ShortWindow = 12
	c.ModelDim = 8
	c.FFNHidden = 16
	c.MaxEpochs = 2
	c.TrainStride = 24
	c.EvalStride = 16
	c.Seed = seed
	return c
}

func fixtureData() *dataset.Dataset {
	return dataset.SyntheticConfig{
		Name: "lifecycle", N: 4, TrainLen: 220, TestLen: 200,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 41,
	}.Generate()
}

var (
	fixOnce sync.Once
	fixM    *core.Model
	fixD    *dataset.Dataset
	fixErr  error
)

func fixture(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	fixOnce.Do(func() {
		fixD = fixtureData()
		fixM, fixErr = core.New(fixtureConfig(1), fixD.Train.N())
		if fixErr == nil {
			fixErr = fixM.Fit(fixD.Train)
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixM, fixD
}

// publish stores a fitted AERO model as the tenant's next version.
func publish(reg *lifecycle.Registry, tenant string, m *core.Model) (lifecycle.Version, error) {
	blob, err := m.MarshalBytes()
	if err != nil {
		return 0, err
	}
	return reg.PublishArtifact(tenant, core.KindAERO, blob)
}

// aeroTrainer retrains with the backend registry's AERO trainer on the
// fixture config, seeded base + round.
func aeroTrainer(base int64) func(string, int, *dataset.Series) (string, []byte, error) {
	return func(_ string, round int, series *dataset.Series) (string, []byte, error) {
		artifact, err := backend.Train(core.KindAERO, series, backend.Options{AERO: fixtureConfig(base + int64(round))})
		return core.KindAERO, artifact, err
	}
}

func TestRegistryPublishLatestVersions(t *testing.T) {
	m, d := fixture(t)
	reg, err := lifecycle.OpenRegistry(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Latest("field-1"); !errors.Is(err, lifecycle.ErrNoVersions) {
		t.Fatalf("empty tenant Latest: got %v, want ErrNoVersions", err)
	}
	v1, err := publish(reg, "field-1", m)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := publish(reg, "field-1", m)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d, %d; want monotonically 1, 2", v1, v2)
	}
	if vs := reg.Versions("field-1"); len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("manifest %v, want [1 2]", vs)
	}
	loaded, v, err := reg.Latest("field-1")
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 || loaded.Threshold() != m.Threshold() {
		t.Fatalf("Latest returned v%d thr %v, want v2 thr %v", v, loaded.Threshold(), m.Threshold())
	}
	// Specific-version load, and scoring equivalence of the stored model.
	old, err := reg.Load("field-1", v1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := old.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range want {
		for i := range want[vi] {
			if want[vi][i] != got[vi][i] {
				t.Fatalf("published model scores differ at %d,%d", vi, i)
			}
		}
	}
	if ts := reg.Tenants(); len(ts) != 1 || ts[0] != "field-1" {
		t.Fatalf("tenants %v, want [field-1]", ts)
	}
}

func TestRegistryReopenResumesVersioning(t *testing.T) {
	m, _ := fixture(t)
	dir := filepath.Join(t.TempDir(), "registry")
	reg, err := lifecycle.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := publish(reg, "field-2", m); err != nil {
		t.Fatal(err)
	}
	if _, err := publish(reg, "field-2", m); err != nil {
		t.Fatal(err)
	}

	reopened, err := lifecycle.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if vs := reopened.Versions("field-2"); len(vs) != 2 {
		t.Fatalf("reopened manifest %v, want 2 versions", vs)
	}
	v3, err := publish(reopened, "field-2", m)
	if err != nil {
		t.Fatal(err)
	}
	if v3 != 3 {
		t.Fatalf("post-reopen publish got v%d, want v3 (monotonic across restarts)", v3)
	}
}

// TestRegistryQuarantinesCorruptEntries plants garbage and truncated
// entries above a good version: Latest must quarantine them (rename aside,
// drop from the manifest) and fall back to the newest loadable model.
func TestRegistryQuarantinesCorruptEntries(t *testing.T) {
	m, _ := fixture(t)
	dir := filepath.Join(t.TempDir(), "registry")
	reg, err := lifecycle.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := publish(reg, "field-3", m); err != nil {
		t.Fatal(err)
	}
	tdir := filepath.Join(dir, "field-3")
	if err := os.WriteFile(filepath.Join(tdir, "v00000002.json"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(tdir, "v00000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tdir, "v00000003.json"), good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := lifecycle.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if vs := reopened.Versions("field-3"); len(vs) != 3 {
		t.Fatalf("scan found %v, want the 3 on-disk entries", vs)
	}
	loaded, v, err := reopened.Latest("field-3")
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || loaded.Threshold() != m.Threshold() {
		t.Fatalf("Latest fell back to v%d, want the loadable v1", v)
	}
	if vs := reopened.Versions("field-3"); len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("manifest after quarantine %v, want [1]", vs)
	}
	for _, name := range []string{"v00000002.json", "v00000003.json"} {
		if _, err := os.Stat(filepath.Join(tdir, name+".corrupt")); err != nil {
			t.Fatalf("corrupt entry %s not quarantined: %v", name, err)
		}
	}
	// Ids are never reused: the next publish continues past the
	// quarantined ids, so "v2/v3 were bad" stays true forever and the
	// preserved .corrupt evidence can never be clobbered.
	v4, err := publish(reopened, "field-3", m)
	if err != nil {
		t.Fatal(err)
	}
	if v4 != 4 {
		t.Fatalf("post-quarantine publish got v%d, want v4 (no id reuse)", v4)
	}
	if _, v, err := reopened.Latest("field-3"); err != nil || v != 4 {
		t.Fatalf("Latest after republish: v%d, %v", v, err)
	}
	// And the guarantee survives a restart: the scan counts quarantined
	// names when resuming the id space.
	again, err := lifecycle.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v5, err := publish(again, "field-3", m); err != nil || v5 != 5 {
		t.Fatalf("post-restart publish got v%d, %v; want v5", v5, err)
	}
}

func TestRegistryStateCheckpointRoundtrip(t *testing.T) {
	m, d := fixture(t)
	reg, err := lifecycle.OpenRegistry(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.LoadState("field-4"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing state: got %v, want fs.ErrNotExist", err)
	}
	det, err := core.NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Replay(d.Test); err != nil {
		t.Fatal(err)
	}
	blob, err := det.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveState("field-4", blob); err != nil {
		t.Fatal(err)
	}
	back, err := reg.LoadState("field-4")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(back); err != nil {
		t.Fatalf("checkpointed state failed to restore: %v", err)
	}
	if !restored.Ready() {
		t.Fatal("restored detector should be warm")
	}
}

func TestRegistryRejectsUnsafeTenantIDs(t *testing.T) {
	m, _ := fixture(t)
	reg, err := lifecycle.OpenRegistry(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"", ".", "..", "a/b", `a\b`, ".hidden"} {
		if _, err := publish(reg, tenant, m); err == nil {
			t.Fatalf("Publish accepted unsafe tenant id %q", tenant)
		}
		if err := reg.SaveState(tenant, []byte("x")); err == nil {
			t.Fatalf("SaveState accepted unsafe tenant id %q", tenant)
		}
	}
}

func TestRetrainerOnDemandDeterministic(t *testing.T) {
	_, d := fixture(t)
	reg, err := lifecycle.OpenRegistry(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan lifecycle.Result, 4)
	rt, err := lifecycle.NewRetrainer(lifecycle.RetrainerConfig{
		Registry: reg,
		Source:   func(string) (*dataset.Series, error) { return d.Train, nil },
		Train:    aeroTrainer(100),
		OnResult: func(r lifecycle.Result) { results <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Trigger("field-5") {
		t.Fatal("first trigger rejected")
	}
	if rt.Trigger("field-5") {
		t.Fatal("duplicate trigger not deduped while queued")
	}
	rt.Start()
	defer rt.Close()

	res := <-results
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Tenant != "field-5" || res.Round != 1 || res.Version != 1 || res.Kind != core.KindAERO {
		t.Fatalf("result %+v, want round 1 / v1 / kind aero", res)
	}
	// Reproducible from the round's seed: an independent fit of the same
	// config must produce the same artifact, byte for byte.
	manual, err := core.New(fixtureConfig(101), d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := manual.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	want, err := manual.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifact, want) {
		t.Fatal("retrain not reproducible from its seed")
	}
	// The published artifact matches what the result reported.
	kind, published, v, err := reg.LatestArtifact("field-5")
	if err != nil {
		t.Fatal(err)
	}
	if v != res.Version || kind != res.Kind || !bytes.Equal(published, res.Artifact) {
		t.Fatalf("registry holds %s v%d, result says %s v%d", kind, v, res.Kind, res.Version)
	}

	// A second round bumps version and seed.
	if !rt.Trigger("field-5") {
		t.Fatal("second trigger rejected")
	}
	res2 := <-results
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if res2.Round != 2 || res2.Version != 2 || bytes.Equal(res2.Artifact, res.Artifact) {
		t.Fatalf("second result round %d / v%d, want round 2 / v2 under a fresh seed", res2.Round, res2.Version)
	}
}

func TestRetrainerScheduleAndSourceErrors(t *testing.T) {
	_, d := fixture(t)
	reg, err := lifecycle.OpenRegistry(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan lifecycle.Result, 16)
	failing := true
	var mu sync.Mutex
	rt, err := lifecycle.NewRetrainer(lifecycle.RetrainerConfig{
		Registry: reg,
		Source: func(string) (*dataset.Series, error) {
			mu.Lock()
			defer mu.Unlock()
			if failing {
				failing = false
				return nil, errors.New("archive offline")
			}
			return d.Train, nil
		},
		Train:    aeroTrainer(0),
		Interval: 20 * time.Millisecond,
		OnResult: func(r lifecycle.Result) { results <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Register("field-6")
	rt.Register("field-6") // idempotent
	rt.Start()
	defer rt.Close()

	// First scheduled round hits the failing source; the failure must be
	// reported, not published.
	res := <-results
	if res.Err == nil || !strings.Contains(res.Err.Error(), "archive offline") {
		t.Fatalf("first result %+v, want the source failure", res)
	}
	if vs := reg.Versions("field-6"); len(vs) != 0 {
		t.Fatalf("failed retrain published %v", vs)
	}
	// The schedule keeps firing; a later round succeeds.
	deadline := time.After(30 * time.Second)
	for {
		select {
		case res = <-results:
		case <-deadline:
			t.Fatal("schedule never produced a successful retrain")
		}
		if res.Err == nil {
			if res.Version < 1 {
				t.Fatalf("successful result without a version: %+v", res)
			}
			return
		}
	}
}

// TestRetrainHotSwapLiveEngine is the end-to-end lifecycle flow the
// subsystem exists for: tenants serve a live feed while the retrainer
// refits their model in the background; on publish the new model is
// hot-swapped in mid-stream. Every frame must be scored (none dropped),
// in order, with a full warm window across the swap.
func TestRetrainHotSwapLiveEngine(t *testing.T) {
	m, d := fixture(t)
	reg, err := lifecycle.OpenRegistry(filepath.Join(t.TempDir(), "registry"))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Shards: 2, Workers: 2})
	const tenants = 3
	subs := make([]*engine.Subscription, tenants)
	ids := []string{"live-0", "live-1", "live-2"}
	for i, id := range ids {
		det, derr := core.NewStreamDetector(m)
		if derr != nil {
			t.Fatal(derr)
		}
		if subs[i], err = eng.SubscribeBackend(id, det); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range eng.Alarms() {
		}
	}()
	var frameErrs []engine.FrameError
	wg.Add(1)
	go func() {
		defer wg.Done()
		for fe := range eng.Errors() {
			frameErrs = append(frameErrs, fe)
		}
	}()

	swapped := make(chan lifecycle.Result, 1)
	var model *core.Model // the retrained model every tenant shares
	rt, err := lifecycle.NewRetrainer(lifecycle.RetrainerConfig{
		Registry: reg,
		Source:   func(string) (*dataset.Series, error) { return d.Train, nil },
		Train:    aeroTrainer(500),
		OnResult: func(r lifecycle.Result) {
			if r.Err == nil {
				model, r.Err = core.LoadBytes(r.Artifact)
			}
			if r.Err == nil {
				for _, sub := range subs {
					if err := sub.Swap(model); err != nil {
						r.Err = err
					}
				}
			}
			swapped <- r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()

	// Feed frames while the retrain runs in the background.
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < d.Test.Len(); ti++ {
		if ti == d.Test.Len()/4 {
			rt.Trigger("gwac") // retrain kicks off mid-feed
		}
		for _, id := range ids {
			frame.Time = d.Test.Time[ti]
			for v := 0; v < d.Test.N(); v++ {
				frame.Magnitudes[v] = d.Test.Data[v][ti]
			}
			if err := eng.Ingest(id, frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	res := <-swapped // retrain + swap completed
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	eng.Flush()
	eng.Close()
	wg.Wait()

	if len(frameErrs) != 0 {
		t.Fatalf("live swap produced frame errors: %v", frameErrs)
	}
	for i, sub := range subs {
		st := sub.Stats()
		if st.Frames != uint64(d.Test.Len()) {
			t.Fatalf("tenant %d scored %d frames, want %d (zero dropped)", i, st.Frames, d.Test.Len())
		}
		if st.Swaps != 1 {
			t.Fatalf("tenant %d saw %d swaps, want 1", i, st.Swaps)
		}
		if !st.Ready {
			t.Fatalf("tenant %d lost its warm window across the swap", i)
		}
		if sub.Threshold() != model.Threshold() {
			t.Fatalf("tenant %d still serves the old threshold after the swap", i)
		}
	}
	if v, _ := reg.Versions("gwac"), reg; len(v) != 1 {
		t.Fatalf("registry versions %v, want exactly the retrained v1", v)
	}
}
