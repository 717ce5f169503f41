package main

import (
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
	"aero/internal/lifecycle"
)

// serve builds aeroserve once per test binary and runs it over a tiny
// generated field, returning its exit code and stderr.
func serve(t *testing.T, args ...string) (int, string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool to build the command with")
	}
	dir := t.TempDir()
	exe := filepath.Join(dir, "aeroserve")
	if out, err := exec.Command(goTool, "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	d := dataset.SyntheticConfig{
		Name: "tiny", N: 4, TrainLen: 300, TestLen: 200,
		NoiseVariates: 2, AnomalySegments: 2, NoisePct: 2, VariableFrac: 0.5, Seed: 1,
	}.Generate()
	if err := dataset.WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-dir", dir, "-dataset", "tiny", "-backend", "fluxev", "-tenants", "2"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("run aeroserve: %v", err)
	return 0, ""
}

// -stats 0 used to panic in time.NewTicker; it means no periodic line.
func TestStatsZeroDisablesPeriodicLine(t *testing.T) {
	code, stderr := serve(t, "-stats", "0", "-testlen", "120")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}
	if strings.Contains(stderr, "\nstats: ") {
		t.Fatalf("-stats 0 still printed a periodic stats line:\n%s", stderr)
	}
	if !strings.Contains(stderr, "240 frames") {
		t.Fatalf("summary does not account for 2 tenants × 120 frames:\n%s", stderr)
	}
}

// The epilogue reads every count from the metrics registry: a run with
// chaos, a warm fallback, hygiene repair and triage prints the
// containment, triage and done lines from it. -metrics is gone: the
// registry is always built.
func TestEpilogueReadsRegistry(t *testing.T) {
	code, stderr := serve(t, "-triage", "-chaos", "1", "-fallback", "fluxev", "-hygiene", "hold", "-stats", "0")
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, stderr)
	}
	for _, want := range []string{
		"\ncontainment: health ", " panics, ", ", chaos injected ",
		"\ntriage: ", " alarms → ",
		"\ndone: 400 frames over 2 tenants",
	} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("epilogue lacks %q:\n%s", want, stderr)
		}
	}
	if code, stderr := serve(t, "-metrics=false"); code != 2 || !strings.Contains(stderr, "flag provided but not defined: -metrics") {
		t.Fatalf("-metrics: exit %d, want the undefined-flag exit 2:\n%s", code, stderr)
	}
}

// A negative -stats interval, a tenant count below one and a negative or
// NaN -rate are usage errors: exit 2 with the usage text, as for a value
// the flag package cannot parse.
func TestStatsNegativeIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-stats", "-1s"},
		// No tenants used to panic indexing the last subscription, and a
		// negative count in make.
		{"-tenants", "0"},
		{"-tenants", "-1"},
		{"-rate", "-1"},
		{"-rate", "NaN"},
	} {
		code, stderr := serve(t, args...)
		if code != 2 {
			t.Fatalf("%v: exit %d, want the usage-error exit 2:\n%s", args, code, stderr)
		}
		if !strings.Contains(stderr, "flag "+args[0]) || !strings.Contains(stderr, "Usage") {
			t.Fatalf("%v: no usage message naming %s:\n%s", args, args[0], stderr)
		}
	}
}

// TestRetrainHooksAERO drives one AERO retrain through the retrainer's
// single Train hook: the published artifact must be the bytes of a fresh
// fit of the served config with seed + round, and after the swap every
// tenant — a DSPOT-wrapped one included — must serve one shared model.
func TestRetrainHooksAERO(t *testing.T) {
	d := dataset.SyntheticConfig{
		Name: "tiny", N: 3, TrainLen: 160, TestLen: 40,
		NoiseVariates: 1, AnomalySegments: 1, NoisePct: 2, VariableFrac: 0.5, Seed: 2,
	}.Generate()
	cfg := core.SmallConfig()
	cfg.LongWindow, cfg.ShortWindow, cfg.ModelDim, cfg.FFNHidden = 24, 8, 8, 16
	cfg.MaxEpochs, cfg.TrainStride, cfg.EvalStride, cfg.Seed = 1, 16, 8, 7
	served, err := core.New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := served.Fit(d.Train); err != nil {
		t.Fatal(err)
	}

	eng := engine.New(engine.Config{})
	defer eng.Close()
	var dets []*core.StreamDetector
	var subs []*engine.Subscription
	for i := 0; i < 3; i++ {
		det, err := core.NewStreamDetector(served)
		if err != nil {
			t.Fatal(err)
		}
		dets = append(dets, det)
		var b core.StreamBackend = det
		if i == 2 {
			calib, err := baselines.StreamScores(det, d.Train)
			if err != nil {
				t.Fatal(err)
			}
			if b, err = backend.NewDSPOTStage(det, backend.DefaultDSPOTConfig(), calib); err != nil {
				t.Fatal(err)
			}
		}
		sub, err := eng.SubscribeBackend(fmt.Sprintf("field-%d", i), b)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}

	spec, _ := backend.Get(core.KindAERO)
	hooks := retrainHooks{spec: spec, opts: backend.Options{AERO: served.Config()}, subs: subs}
	reg, err := lifecycle.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type swapped struct {
		res lifecycle.Result
		n   int
	}
	done := make(chan swapped, 1)
	rt, err := lifecycle.NewRetrainer(lifecycle.RetrainerConfig{
		Registry: reg,
		Source:   func(string) (*dataset.Series, error) { return d.Train, nil },
		Train:    hooks.train,
		OnResult: func(res lifecycle.Result) {
			n := 0
			if res.Err == nil {
				n = hooks.swap(res)
			}
			done <- swapped{res, n}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Close()
	rt.Trigger("tiny")
	got := <-done
	if got.res.Err != nil {
		t.Fatal(got.res.Err)
	}

	want := cfg
	want.Seed = cfg.Seed + 1
	fresh, err := core.New(want, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := fresh.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got.res.Kind != core.KindAERO || !bytes.Equal(got.res.Artifact, wantBytes) {
		t.Fatalf("round 1 published %s bytes that are not a fresh fit with seed %d", got.res.Kind, want.Seed)
	}
	if _, published, _, err := reg.LatestArtifact("tiny"); err != nil || !bytes.Equal(published, wantBytes) {
		t.Fatalf("registry does not hold the retrained artifact (%v)", err)
	}
	if got.n != len(subs) {
		t.Fatalf("swapped into %d of %d tenants", got.n, len(subs))
	}
	shared := dets[0].Model()
	if shared == served {
		t.Fatal("tenants still serve the old model")
	}
	for i, det := range dets {
		if det.Model() != shared {
			t.Fatalf("tenant %d serves its own copy of the retrained model", i)
		}
		if st := subs[i].Stats(); st.Swaps != 1 {
			t.Fatalf("tenant %d saw %d swaps, want 1", i, st.Swaps)
		}
	}
}
