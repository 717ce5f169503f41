package aero_test

import (
	"strings"
	"testing"

	"aero"
	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/faultinject"
	"aero/internal/metrics"
)

// lintBackend is a trivial backend so the lint test can wire an engine
// tenant without training anything.
type lintBackend struct{}

func (lintBackend) Kind() string                             { return "lint" }
func (lintBackend) Variates() int                            { return 1 }
func (lintBackend) Ready() bool                              { return true }
func (lintBackend) Threshold() float64                       { return 1 }
func (lintBackend) LastTime() (float64, bool)                { return 0, false }
func (lintBackend) PushScores(aero.Frame) ([]float64, error) { return nil, nil }
func (lintBackend) Push(aero.Frame) ([]core.Alarm, error)    { return nil, nil }
func (lintBackend) SwapArtifact([]byte) error                { return nil }
func (lintBackend) SnapshotState() ([]byte, error)           { return []byte{1}, nil }
func (lintBackend) RestoreState([]byte) error                { return nil }

// TestMetricNameLint wires every instrumented layer — engine, triage,
// ingest server, retrainer, chaos harness — onto one registry and lints the resulting
// series names: each base name must be aero_-prefixed snake case (no
// doubled or trailing underscores), and no full series key may repeat.
// A new metric with a bad name fails here before it ever reaches a
// scrape; an invalid name would additionally panic at registration.
func TestMetricNameLint(t *testing.T) {
	reg := aero.NewMetricsRegistry()
	e := aero.NewEngine(aero.EngineConfig{
		Shards: 2, Workers: 1, Metrics: reg,
		Trace: engine.TraceConfig{Depth: 8},
	})
	defer e.Close()
	if _, err := aero.AttachTriageObserved(e, aero.DefaultTriageConfig(), 0, reg); err != nil {
		t.Fatal(err)
	}
	chaos := aero.NewChaosBackend(lintBackend{}, aero.ChaosPlan{})
	faultinject.Observe(reg, []*aero.ChaosBackend{chaos})
	sub, err := e.SubscribeBackend("lint", chaos)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aero.NewIngestServer(aero.IngestServerConfig{
		Engine:  e,
		Metrics: reg,
		Lookup:  func(string) (*aero.Subscription, error) { return sub, nil },
	}); err != nil {
		t.Fatal(err)
	}
	mreg, err := aero.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := aero.NewRetrainer(aero.RetrainerConfig{
		Registry: mreg,
		Metrics:  reg,
		Source:   func(string) (*aero.Series, error) { return nil, nil },
		Train: func(string, int, *aero.Series) (string, []byte, error) {
			return "lint", []byte{1}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	names := reg.SeriesNames()
	if len(names) < 30 {
		t.Fatalf("only %d series registered; the full stack should register far more", len(names))
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate series %q", name)
		}
		seen[name] = true
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if !metrics.ValidName(base) {
			t.Errorf("series %q: base name %q is not aero_-prefixed snake case", name, base)
		}
	}
}
