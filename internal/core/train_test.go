package core

import (
	"math"
	"testing"

	"aero/internal/ag"
	"aero/internal/dataset"
	"aero/internal/nn"
	"aero/internal/window"
)

// trainTestConfig is a fast profile for training-path tests: big enough to
// exercise multiple windows and chunked variate fan-out, small enough to
// train in well under a second.
func trainTestConfig() Config {
	c := SmallConfig()
	c.LongWindow = 32
	c.ShortWindow = 12
	c.ModelDim = 8
	c.FFNHidden = 16
	c.MaxEpochs = 2
	c.TrainStride = 16
	c.EvalStride = 12
	c.Seed = 9
	return c
}

func trainTestDataset() *dataset.Dataset {
	return dataset.SyntheticConfig{
		Name: "train", N: 5, TrainLen: 160, TestLen: 120,
		NoiseVariates: 3, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 31,
	}.Generate()
}

func fitWithWorkers(t *testing.T, workers int) (*Model, [][]float64) {
	t.Helper()
	d := trainTestDataset()
	cfg := trainTestConfig()
	cfg.Workers = workers
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	scores, err := m.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	return m, scores
}

// TestTrainingDeterministicAcrossWorkers pins the fixed gradient-reduction
// order: for a given seed, training must produce bit-identical epochs,
// thresholds and scores regardless of the worker count, because parameter
// gradients are always flushed in ascending variate order no matter which
// goroutine computed them.
func TestTrainingDeterministicAcrossWorkers(t *testing.T) {
	eachKernelPath(t, testTrainingDeterministicAcrossWorkers)
}

func testTrainingDeterministicAcrossWorkers(t *testing.T) {
	ref, refScores := fitWithWorkers(t, 1)
	for _, workers := range []int{2, 3, 5, 8} {
		m, scores := fitWithWorkers(t, workers)
		if m.Epochs1 != ref.Epochs1 || m.Epochs2 != ref.Epochs2 {
			t.Fatalf("workers=%d: epochs (%d, %d) != sequential (%d, %d)",
				workers, m.Epochs1, m.Epochs2, ref.Epochs1, ref.Epochs2)
		}
		if math.Float64bits(m.Threshold()) != math.Float64bits(ref.Threshold()) {
			t.Fatalf("workers=%d: threshold %v != sequential %v", workers, m.Threshold(), ref.Threshold())
		}
		for v := range scores {
			for i := range scores[v] {
				if math.Float64bits(scores[v][i]) != math.Float64bits(refScores[v][i]) {
					t.Fatalf("workers=%d: score[%d][%d] = %v differs from sequential %v",
						workers, v, i, scores[v][i], refScores[v][i])
				}
			}
		}
	}
}

// TestStage1StepSteadyStateAllocs pins the allocation budget of one
// steady-state stage-1 training step, mirroring the streaming-push pinning:
// with the training scratch warm, a sequential step must allocate nothing
// (tapes, gradients, stashes, moments and input buffers are all reused),
// and a fanned-out step only what starting its goroutines costs — one
// closure per extra worker, whatever the variate count.
func TestStage1StepSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		for _, n := range []int{5, 9} {
			allocs := stage1StepAllocs(t, workers, n)
			t.Logf("workers %d, %d variates: %.1f allocs/step", workers, n, allocs)
			if budget := float64(workers - 1); allocs > budget {
				t.Fatalf("workers %d, %d variates: steady-state stage-1 step allocates %.1f objects, want <= %.0f",
					workers, n, allocs, budget)
			}
		}
	}
}

func stage1StepAllocs(t *testing.T, workers, n int) float64 {
	t.Helper()
	d := dataset.SyntheticConfig{
		Name: "train", N: n, TrainLen: 160, TestLen: 120,
		NoiseVariates: 3, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 31,
	}.Generate()
	cfg := trainTestConfig()
	cfg.Workers = workers
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	m.norm = window.FitNormalizer(d.Train.Data)
	p := m.prepare(d.Train)
	params := m.temporal.params()
	opt := nn.NewAdam(m.cfg.LR)
	opt.MaxGradNorm = 5
	ts := m.newTrainScratch()
	if len(ts.slots) != workers {
		t.Fatalf("%d tapes for %d workers", len(ts.slots), workers)
	}
	end := m.cfg.LongWindow - 1
	m.stage1Step(p, end, opt, params, ts) // warm arenas, stashes, moments, buffers
	for _, slot := range ts.slots {
		// A worker that claimed no variate in the warm-up step would warm
		// its tape inside the measurement.
		m.stage1Variate(p, 0, end, slot, ts)
	}
	return testing.AllocsPerRun(16, func() {
		m.stage1Step(p, end, opt, params, ts)
	})
}

// TestStage2StepSteadyStateAllocs pins the stage-2 equivalent: the frozen
// stage-1 forwards, graph build, grad tape and optimizer step must all run
// out of reused buffers.
func TestStage2StepSteadyStateAllocs(t *testing.T) {
	d := trainTestDataset()
	cfg := trainTestConfig()
	cfg.Workers = 1
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	m.norm = window.FitNormalizer(d.Train.Data)
	p := m.prepare(d.Train)
	params := m.noise.params()
	opt := nn.NewAdam(m.cfg.LR)
	opt.MaxGradNorm = 5
	sc := m.newScratch()
	tape := ag.NewTape()
	end := m.cfg.LongWindow - 1
	step := func() {
		e := m.stage1Errors(p, end, m.times(p, end, &sc.wt), m.ownState(sc), sc)
		m.stage2Step(e, nil, sc, tape, opt, params)
	}
	step() // warm
	allocs := testing.AllocsPerRun(16, step)
	if allocs > 0 {
		t.Fatalf("steady-state stage-2 step allocates %.1f objects, want 0", allocs)
	}
}
