package lifecycle_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aero/internal/backend"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/lifecycle"
)

func artifactTestData() *dataset.Dataset {
	return dataset.SyntheticConfig{
		Name: "artifacts", N: 3, TrainLen: 400, TestLen: 200,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 23,
	}.Generate()
}

// TestRegistryTypedArtifacts publishes artifacts of several backend
// kinds into one registry and checks the kind tags round-trip through
// LatestArtifact/LoadArtifact, and that the model-typed accessors reject
// non-AERO entries instead of mis-parsing them. The registry is
// kind-agnostic: entries of the retired sr and tm kinds still round-trip,
// and only opening one fails, with an error that names the kind.
func TestRegistryTypedArtifacts(t *testing.T) {
	d := artifactTestData()
	reg, err := lifecycle.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fluxev, err := backend.Train("fluxev", d.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []struct {
		kind     string
		artifact []byte
	}{
		{"sr", []byte(`{"kind":"sr","version":1,"n":3,"threshold":0.5,"level":0,"q":0,"window":64,"avg_filter":3,"saliency_window":21}`)},
		{"tm", []byte(`{"kind":"tm","version":1,"n":3,"threshold":0.5,"level":0,"q":0,"template_len":32}`)},
		{"fluxev", fluxev},
	} {
		kind, artifact := entry.kind, entry.artifact
		if _, err := reg.PublishArtifact("field", kind, artifact); err != nil {
			t.Fatal(err)
		}
		gotKind, gotArt, _, err := reg.LatestArtifact("field")
		if err != nil {
			t.Fatal(err)
		}
		if gotKind != kind || string(gotArt) != string(artifact) {
			t.Fatalf("round-trip changed entry: kind %q", gotKind)
		}
		// A served kind's artifact must open into a serving backend; a
		// retired kind's must be refused by name.
		_, err = backend.Open(gotKind, gotArt)
		if kind == "fluxev" && err != nil {
			t.Fatal(err)
		}
		if want := `backend: unknown kind "` + kind + `"`; kind != "fluxev" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Fatalf("opening a %s entry: %v, want %s", kind, err, want)
		}
	}
	// Model-typed access to a non-AERO tenant names the actual kind.
	if _, _, err := reg.Latest("field"); err == nil || !strings.Contains(err.Error(), "fluxev") {
		t.Fatalf("Latest on a fluxev tenant: %v", err)
	}
	vs := reg.Versions("field")
	if len(vs) != 3 {
		t.Fatalf("expected 3 versions, have %v", vs)
	}
	if _, _, err := reg.LoadArtifact("field", vs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("field", vs[0]); err == nil {
		t.Fatal("Load mis-parsed an sr artifact as a model")
	}
	// Bad publishes are rejected up front.
	if _, err := reg.PublishArtifact("field", "", []byte("{}")); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, err := reg.PublishArtifact("field", "sr", []byte("not json")); err == nil {
		t.Fatal("non-JSON artifact accepted")
	}
}

// TestRegistryLegacyEntries pins backward compatibility: raw model JSON
// written by the pre-envelope registry (no kind tag) still loads, both
// through Latest and through LatestArtifact (as kind "aero").
func TestRegistryLegacyEntries(t *testing.T) {
	d := artifactTestData()
	cfg := core.SmallConfig()
	cfg.LongWindow = 24
	cfg.ShortWindow = 8
	cfg.ModelDim = 8
	cfg.FFNHidden = 16
	cfg.MaxEpochs = 1
	cfg.TrainStride = 24
	m, err := core.New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Write the entry the way the pre-envelope registry did: the model
	// JSON itself under the version filename.
	if err := os.MkdirAll(filepath.Join(dir, "old"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.Save(filepath.Join(dir, "old", "v00000001.json")); err != nil {
		t.Fatal(err)
	}
	reg, err := lifecycle.OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	kind, artifact, v, err := reg.LatestArtifact("old")
	if err != nil {
		t.Fatal(err)
	}
	if kind != core.KindAERO || v != 1 {
		t.Fatalf("legacy entry decoded as kind %q v%d", kind, v)
	}
	if _, err := core.LoadBytes(artifact); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Latest("old"); err != nil {
		t.Fatal(err)
	}
	// New publishes into the same tenant continue the version sequence.
	if _, err := reg.Publish("old", m); err != nil {
		t.Fatal(err)
	}
	if _, _, v, err = reg.LatestArtifact("old"); err != nil || v != 2 {
		t.Fatalf("post-legacy publish: v%d, %v", v, err)
	}
}

// TestRetrainerBackendTrainer runs the retrainer with a per-backend
// Trainer instead of the AERO path: results carry the kind + artifact,
// versions land in the registry, and the artifact swaps into a serving
// backend.
func TestRetrainerBackendTrainer(t *testing.T) {
	d := artifactTestData()
	reg, err := lifecycle.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan lifecycle.Result, 4)
	rt, err := lifecycle.NewRetrainer(lifecycle.RetrainerConfig{
		Registry: reg,
		Source:   func(string) (*dataset.Series, error) { return d.Train, nil },
		Train: func(_ string, _ int, series *dataset.Series) (string, []byte, error) {
			artifact, terr := backend.Train("fluxev", series, backend.SmallOptions())
			return "fluxev", artifact, terr
		},
		OnResult: func(res lifecycle.Result) { results <- res },
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Register("field")
	rt.Start()
	if !rt.Trigger("field") {
		t.Fatal("trigger rejected")
	}
	res := <-results
	rt.Close()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Kind != "fluxev" || res.Model != nil || len(res.Artifact) == 0 {
		t.Fatalf("result %+v: want a fluxev artifact and no model", res)
	}
	kind, artifact, v, err := reg.LatestArtifact("field")
	if err != nil || kind != "fluxev" || v != res.Version {
		t.Fatalf("registry: kind %q v%d, %v", kind, v, err)
	}
	det, err := backend.Open("fluxev", artifact)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.SwapArtifact(res.Artifact); err != nil {
		t.Fatal(err)
	}
}

// TestRetrainerRequiresTrainerOrConfig pins the validation seam.
func TestRetrainerRequiresTrainerOrConfig(t *testing.T) {
	reg, err := lifecycle.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = lifecycle.NewRetrainer(lifecycle.RetrainerConfig{
		Registry: reg,
		Source:   func(string) (*dataset.Series, error) { return nil, errors.New("unused") },
	})
	if err == nil {
		t.Fatal("retrainer accepted neither Config nor Train")
	}
}
