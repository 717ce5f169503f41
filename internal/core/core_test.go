package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"aero/internal/ag"
	"aero/internal/anomaly"
	"aero/internal/dataset"
	"aero/internal/stats"
	"aero/internal/tensor"
)

// tinyDataset builds a small, fast synthetic dataset: concurrent noise on
// most variates plus one injected anomaly in the test split.
func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.SyntheticConfig{
		Name: "tiny", N: 6, TrainLen: 400, TestLen: 400,
		NoiseVariates: 4, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 77,
	}
	return cfg.Generate()
}

func testConfig() Config {
	c := SmallConfig()
	c.Seed = 5
	return c
}

func fitTiny(t *testing.T, cfg Config) (*Model, *dataset.Dataset) {
	t.Helper()
	d := tinyDataset(t)
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return m, d
}

// sharedModel fits the standard test configuration once and reuses it for
// all read-only assertions, keeping the package test time manageable.
var sharedOnce sync.Once
var sharedM *Model
var sharedD *dataset.Dataset
var sharedErr error

func shared(t testing.TB) (*Model, *dataset.Dataset) {
	t.Helper()
	sharedOnce.Do(func() {
		cfg := dataset.SyntheticConfig{
			Name: "tiny", N: 6, TrainLen: 400, TestLen: 400,
			NoiseVariates: 4, AnomalySegments: 1, NoisePct: 3,
			VariableFrac: 0.5, Seed: 77,
		}
		sharedD = cfg.Generate()
		sharedM, sharedErr = New(testConfig(), sharedD.Train.N())
		if sharedErr == nil {
			sharedErr = sharedM.Fit(sharedD.Train)
		}
	})
	if sharedErr != nil {
		t.Fatalf("shared fit: %v", sharedErr)
	}
	return sharedM, sharedD
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.LongWindow = 1 },
		func(c *Config) { c.ShortWindow = 0 },
		func(c *Config) { c.ShortWindow = c.LongWindow + 1 },
		func(c *Config) { c.Heads = 3 }, // does not divide ModelDim=16
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.LR = math.NaN() },
		func(c *Config) { c.POTLevel = 1.5 },
		func(c *Config) { c.POTLevel = math.NaN() },
		func(c *Config) { c.POTQ = 0 },
		func(c *Config) { c.POTQ = math.NaN() },
		func(c *Config) { c.MaxEpochs = 0 },
		func(c *Config) { c.EncoderLayers = 0 },
		func(c *Config) { c.FFNHidden = -5 },
	}
	for i, mut := range bad {
		c := SmallConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if err := SmallConfig().Validate(); err != nil {
		t.Fatalf("small config should be valid: %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config should be valid: %v", err)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(SmallConfig(), 0); err == nil {
		t.Fatal("expected error for zero variates")
	}
	c := SmallConfig()
	c.LongWindow = 0
	if _, err := New(c, 4); err == nil {
		t.Fatal("expected config error")
	}
}

func TestVariantStrings(t *testing.T) {
	seen := map[string]bool{}
	for v := VariantFull; v <= VariantDynamicGraph; v++ {
		s := v.String()
		if s == "" || seen[s] {
			t.Fatalf("variant %d has bad/duplicate name %q", v, s)
		}
		seen[s] = true
	}
}

func TestFitRejectsMismatchedSeries(t *testing.T) {
	d := tinyDataset(t)
	m, err := New(testConfig(), 3) // wrong variate count
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err == nil {
		t.Fatal("expected variate mismatch error")
	}
}

func TestScoresBeforeFitErrors(t *testing.T) {
	d := tinyDataset(t)
	m, _ := New(testConfig(), d.Train.N())
	if _, err := m.Scores(d.Test); err == nil {
		t.Fatal("expected not-fitted error")
	}
}

func TestFitAndDetectEndToEnd(t *testing.T) {
	m, d := shared(t)
	if m.Threshold() <= 0 {
		t.Fatalf("threshold %v", m.Threshold())
	}
	if m.Epochs1 < 1 {
		t.Fatal("stage 1 did not run")
	}
	if m.Epochs2 < 1 {
		t.Fatal("stage 2 did not run")
	}
	scores, err := m.Scores(d.Test)
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	if len(scores) != d.Test.N() || len(scores[0]) != d.Test.Len() {
		t.Fatal("score shape mismatch")
	}
	for v := range scores {
		for _, s := range scores[v] {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				t.Fatalf("invalid score %v", s)
			}
		}
	}
	// Anomalous points must on average score higher than normal points.
	var anom, norm []float64
	for v := range scores {
		for i, s := range scores[v] {
			if i < m.Config().LongWindow {
				continue
			}
			if d.Test.Labels[v][i] {
				anom = append(anom, s)
			} else if !d.Test.NoiseMask[v][i] {
				norm = append(norm, s)
			}
		}
	}
	if len(anom) == 0 {
		t.Skip("anomaly fell before the first full window")
	}
	if stats.Mean(anom) <= stats.Mean(norm) {
		t.Fatalf("anomaly scores (%.4f) not above normal scores (%.4f)",
			stats.Mean(anom), stats.Mean(norm))
	}

	pred, err := m.Detect(d.Test)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	var c anomaly.Confusion
	for v := range pred {
		c.Add(anomaly.EvaluateAdjusted(pred[v], d.Test.Labels[v]))
	}
	if c.Recall() == 0 {
		t.Fatal("detector missed every anomaly segment")
	}
}

func TestNoiseModuleSuppressesConcurrentNoise(t *testing.T) {
	m, d := shared(t)
	stage1, final, err := m.StageErrors(d.Test)
	if err != nil {
		t.Fatalf("StageErrors: %v", err)
	}
	// Over noise-affected points, the final error should not exceed the
	// stage-1 error on average: stage 2 exists to reconstruct exactly
	// those deviations.
	var e1, ef []float64
	for v := range stage1 {
		for i := m.Config().LongWindow; i < len(stage1[v]); i++ {
			if d.Test.NoiseMask[v][i] && !d.Test.Labels[v][i] {
				e1 = append(e1, stage1[v][i])
				ef = append(ef, final[v][i])
			}
		}
	}
	if len(e1) == 0 {
		t.Skip("no scored noise points")
	}
	if stats.Mean(ef) > stats.Mean(e1)*1.05 {
		t.Fatalf("stage 2 amplified noise errors: stage1 %.4f final %.4f",
			stats.Mean(e1), stats.Mean(ef))
	}
}

func TestGraphAtCapturesConcurrency(t *testing.T) {
	m, d := shared(t)
	// Find a timestamp with concurrent noise and a full window behind it.
	end := -1
	for i := m.Config().LongWindow; i < d.Test.Len(); i++ {
		count := 0
		for v := 0; v < d.Test.N(); v++ {
			if d.Test.NoiseMask[v][i] {
				count++
			}
		}
		if count >= 3 {
			end = i
			break
		}
	}
	if end < 0 {
		t.Skip("no concurrent noise window in test split")
	}
	g, err := m.GraphAt(d.Test, end)
	if err != nil {
		t.Fatalf("GraphAt: %v", err)
	}
	if g.Rows != d.Test.N() || g.Cols != d.Test.N() {
		t.Fatal("graph shape")
	}
	// Symmetric with unit diagonal, entries in [0, 1].
	for i := 0; i < g.Rows; i++ {
		if math.Abs(g.At(i, i)-1) > 1e-9 {
			t.Fatal("diagonal must be 1")
		}
		for j := 0; j < g.Cols; j++ {
			if g.At(i, j) < 0 || g.At(i, j) > 1+1e-9 {
				t.Fatalf("edge weight %v outside [0,1]", g.At(i, j))
			}
			if math.Abs(g.At(i, j)-g.At(j, i)) > 1e-9 {
				t.Fatal("graph must be symmetric")
			}
		}
	}
	// Noisy pair should be more similar than a noisy/quiet pair on average.
	noisy := []int{}
	quiet := []int{}
	for v := 0; v < d.Test.N(); v++ {
		if d.Test.NoiseMask[v][end] {
			noisy = append(noisy, v)
		} else {
			quiet = append(quiet, v)
		}
	}
	if len(noisy) >= 2 && len(quiet) >= 1 {
		var within, across []float64
		for _, a := range noisy {
			for _, b := range noisy {
				if a < b {
					within = append(within, g.At(a, b))
				}
			}
			for _, q := range quiet {
				across = append(across, g.At(a, q))
			}
		}
		if stats.Mean(within) <= stats.Mean(across) {
			t.Logf("warning: within-noise similarity %.3f not above cross similarity %.3f",
				stats.Mean(within), stats.Mean(across))
		}
	}
}

func TestGraphAtRangeChecks(t *testing.T) {
	m, d := shared(t)
	if _, err := m.GraphAt(d.Test, 0); err == nil {
		t.Fatal("expected range error for end before first window")
	}
	if _, err := m.GraphAt(d.Test, d.Test.Len()); err == nil {
		t.Fatal("expected range error past series end")
	}
}

func TestAllVariantsTrainAndScore(t *testing.T) {
	d := tinyDataset(t)
	for v := VariantFull; v <= VariantDynamicGraph; v++ {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.Variant = v
			cfg.MaxEpochs = 2
			m, err := New(cfg, d.Train.N())
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := m.Fit(d.Train); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			scores, err := m.Scores(d.Test)
			if err != nil {
				t.Fatalf("Scores: %v", err)
			}
			for _, row := range scores {
				for _, s := range row {
					if math.IsNaN(s) || math.IsInf(s, 0) {
						t.Fatal("invalid score")
					}
				}
			}
		})
	}
}

func TestNoShortWindowVariantUsesFullWindow(t *testing.T) {
	cfg := testConfig()
	cfg.Variant = VariantNoShortWindow
	m, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Config().ShortWindow; got != m.Config().LongWindow {
		t.Fatalf("short window %d, want %d", got, m.Config().LongWindow)
	}
}

func TestEvalStrideOneMatchesDenser(t *testing.T) {
	// Stride-1 scoring must produce scores for every timestamp after the
	// first window and agree with coarser strides at the window ends.
	cfg := testConfig()
	cfg.MaxEpochs = 1
	m, d := fitTiny(t, cfg)
	s1, err := m.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	W := m.Config().LongWindow
	for v := range s1 {
		for i := W; i < len(s1[v]); i++ {
			if s1[v][i] == 0 {
				// A zero score is possible but all-zero would be a bug.
				continue
			}
			break
		}
	}
	var nonzero int
	for v := range s1 {
		for i := W; i < len(s1[v]); i++ {
			if s1[v][i] != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no timestamps after first window were scored")
	}
}

func TestTimeEmbeddingShapeAndRange(t *testing.T) {
	te := NewTimeEmbedding(8)
	tp := ag.NewTape()
	pos := []float64{0, 1, 2, 3}
	dt := []float64{1, 1, 2, 0.5}
	out := te.Forward(tp, pos, dt)
	if out.Rows() != 4 || out.Cols() != 8 {
		t.Fatalf("shape %dx%d", out.Rows(), out.Cols())
	}
	// sin+cos is bounded by sqrt(2).
	for _, v := range out.Value.Data {
		if math.Abs(v) > math.Sqrt2+1e-9 {
			t.Fatalf("embedding value %v out of range", v)
		}
	}
}

func TestTimeEmbeddingSensitiveToIntervals(t *testing.T) {
	te := NewTimeEmbedding(8)
	tp := ag.NewTape()
	pos := []float64{0, 1, 2, 3}
	a := te.Forward(tp, pos, []float64{1, 1, 1, 1})
	b := te.Forward(tp, pos, []float64{1, 1, 5, 1})
	diff := a.Value.Sub(b.Value)
	if diff.Norm() == 0 {
		t.Fatal("time embedding ignores intervals")
	}
}

func TestWindowGraphSelfSimilarityAndClamp(t *testing.T) {
	e := tensorFromRows([][]float64{
		{1, 2, 3},
		{2, 4, 6},    // parallel to row 0 → sim 1
		{-1, -2, -3}, // anti-parallel → clamped to 0
	})
	g := windowGraph(e)
	if math.Abs(g.At(0, 1)-1) > 1e-9 {
		t.Fatalf("parallel similarity %v", g.At(0, 1))
	}
	if g.At(0, 2) != 0 {
		t.Fatalf("anti-parallel similarity should clamp to 0, got %v", g.At(0, 2))
	}
}

func TestPropagateRemovesSelfLoops(t *testing.T) {
	// Node 2 is isolated: propagation must leave its row zero.
	a := tensorFromRows([][]float64{
		{1, 1, 0},
		{1, 1, 0},
		{0, 0, 1},
	})
	y := tensorFromRows([][]float64{
		{1, 1},
		{3, 3},
		{9, 9},
	})
	h := propagateInto(a, y, tensor.New(3, 2))
	// Row 0 borrows only from node 1 (self excluded): expect 3.
	if math.Abs(h.At(0, 0)-3) > 1e-9 {
		t.Fatalf("row 0 = %v, want 3 (neighbour value)", h.At(0, 0))
	}
	if h.At(2, 0) != 0 || h.At(2, 1) != 0 {
		t.Fatal("isolated node must receive nothing")
	}
}

func TestDynamicGraphStateSmooths(t *testing.T) {
	d := newDynamicGraphState(2)
	sparse := tensorFromRows([][]float64{{1, 0}, {0, 1}})
	first := d.nextInto(sparse, tensor.New(2, 2))
	// After one step, off-diagonal should still be near the initial 1.
	if first.At(0, 1) < 0.8 {
		t.Fatalf("dynamic graph forgot history too fast: %v", first.At(0, 1))
	}
	for i := 0; i < 100; i++ {
		d.nextInto(sparse, first)
	}
	if d.a.At(0, 1) > 0.01 {
		t.Fatalf("dynamic graph should converge to observations: %v", d.a.At(0, 1))
	}
}

// tensorFromRows is a tiny test helper building a dense matrix from rows.
func tensorFromRows(rows [][]float64) *tensor.Dense { return tensor.FromRows(rows) }

// TestFitRejectsBadSeriesUpFront pins Fit's validation before any training:
// a non-finite magnitude used to train both stages and then fail the
// threshold calibration naming nothing, and a repeated time was accepted.
// Each error names what is wrong and where.
func TestFitRejectsBadSeriesUpFront(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(s *dataset.Series)
		want   string
	}{
		{"NaN magnitude", func(s *dataset.Series) { s.Data[2][40] = math.NaN() }, "variate 2 has magnitude NaN at index 40"},
		{"+Inf magnitude", func(s *dataset.Series) { s.Data[0][7] = math.Inf(1) }, "variate 0 has magnitude +Inf at index 7"},
		{"-Inf magnitude", func(s *dataset.Series) { s.Data[4][99] = math.Inf(-1) }, "variate 4 has magnitude -Inf at index 99"},
		{"repeated time", func(s *dataset.Series) { s.Time[30] = s.Time[29] }, "time 30 (29) does not follow time 29 (29)"},
		{"decreasing time", func(s *dataset.Series) { s.Time[50] = 10 }, "time 50 (10) does not follow time 49 (49)"},
		{"NaN time", func(s *dataset.Series) { s.Time[12] = math.NaN() }, "time 12 is NaN"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := trainTestDataset()
			tc.mutate(d.Train)
			m, err := New(trainTestConfig(), d.Train.N())
			if err != nil {
				t.Fatal(err)
			}
			err = m.Fit(d.Train)
			if err == nil {
				t.Fatal("Fit accepted the series")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not say %q", err, tc.want)
			}
			if m.Epochs1 != 0 || m.Epochs2 != 0 {
				t.Fatalf("Fit trained (%d, %d epochs) before rejecting the series", m.Epochs1, m.Epochs2)
			}
		})
	}
}
