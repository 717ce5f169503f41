package aero_test

import (
	"math"
	"testing"

	"aero"
	"aero/internal/anomaly"
	"aero/internal/dataset"
)

// TestPublicAPIEndToEnd exercises the documented quickstart flow.
func TestPublicAPIEndToEnd(t *testing.T) {
	gen := aero.SyntheticConfig{
		Name: "api", N: 6, TrainLen: 400, TestLen: 400,
		NoiseVariates: 4, AnomalySegments: 2, NoisePct: 2.5,
		VariableFrac: 0.5, Seed: 12,
	}
	d := gen.Generate()

	cfg := aero.SmallConfig()
	cfg.MaxEpochs = 4
	model, err := aero.New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	pred, err := model.Detect(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	var c aero.Confusion
	for v := range pred {
		c.Add(aero.EvaluateAdjusted(pred[v], d.Test.Labels[v]))
	}
	// The trained detector must produce a valid confusion matrix spanning
	// the full test split.
	if got := c.TP + c.FP + c.TN + c.FN; got != d.Test.N()*d.Test.Len() {
		t.Fatalf("confusion covers %d points, want %d", got, d.Test.N()*d.Test.Len())
	}
}

func TestPresetDatasetsMatchTableI(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size dataset generation")
	}
	for _, tc := range []struct {
		name     string
		stats    aero.Stats
		variates int
	}{
		{"SyntheticMiddle", aero.ComputeStats(aero.SyntheticMiddle().Generate()), 24},
		{"AstrosetHigh", aero.ComputeStats(dataset.AstrosetHigh().Generate()), 38},
	} {
		if tc.stats.Variates != tc.variates {
			t.Fatalf("%s: %d variates, want %d", tc.name, tc.stats.Variates, tc.variates)
		}
	}
}

func TestBaselinesRoster(t *testing.T) {
	bs := aero.Baselines(aero.SmallBaselineConfig())
	if len(bs) != 11 {
		t.Fatalf("got %d baselines, want 11", len(bs))
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.Name()] = true
	}
	for _, want := range []string{"TM", "SR", "SPOT", "FluxEV", "Donut", "OA", "AT", "TranAD", "GDN", "ESG", "TimesNet"} {
		if !names[want] {
			t.Fatalf("missing baseline %s", want)
		}
	}
}

func TestPOTThresholdPublic(t *testing.T) {
	scores := make([]float64, 2000)
	for i := range scores {
		scores[i] = float64(i%100) / 100
	}
	thr, err := aero.POTThreshold(scores, 0.99, 0.001)
	if err != nil {
		t.Logf("POT fallback: %v", err)
	}
	if thr <= 0 {
		t.Fatalf("threshold %v", thr)
	}
	// A NaN q used to panic inside the quantile index arithmetic.
	if _, err := aero.POTThreshold(scores, 0.99, math.NaN()); err == nil {
		t.Fatal("NaN q accepted")
	}
}

func TestPointAdjustPublic(t *testing.T) {
	truth := []bool{false, true, true, false}
	pred := []bool{false, true, false, false}
	adj := anomaly.PointAdjust(pred, truth)
	if !adj[2] {
		t.Fatal("point adjust must credit the full segment")
	}
}

func TestDatasetRoundtripPublic(t *testing.T) {
	dir := t.TempDir()
	gen := aero.SyntheticConfig{
		Name: "rt", N: 3, TrainLen: 80, TestLen: 60, NoiseVariates: 2,
		AnomalySegments: 1, NoisePct: 2, VariableFrac: 0.5, Seed: 4,
	}
	d := gen.Generate()
	if err := dataset.WriteDataset(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := aero.ReadDataset(dir, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Test.N() != 3 || got.Test.Len() != 60 {
		t.Fatal("roundtrip shape mismatch")
	}
}
