// Package baselines implements the eleven comparison methods of the
// paper's evaluation (§IV-B): five univariate detectors (Template
// Matching, SR, SPOT, FluxEV, Donut) and six multivariate detectors
// (OmniAnomaly, AnomalyTransformer, TranAD, GDN, ESG, TimesNet).
//
// Every detector implements the same two-phase Detector contract: Fit on
// an unlabelled training series, then Scores on any series of the same
// dimensionality. Thresholding is deliberately left to the caller so that
// the experiment harness can apply the identical POT protocol to every
// method, as the paper does.
//
// The deep baselines are faithful-in-structure, scaled-in-size ports of
// the cited architectures onto this repository's autodiff substrate; each
// file documents its simplifications.
package baselines

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"aero/internal/dataset"
	"aero/internal/window"
)

// Detector is the common contract shared by all baseline methods and used
// by the experiment harness.
type Detector interface {
	// Name returns the method's display name as used in the paper's tables.
	Name() string
	// Fit trains (or calibrates) the detector on an unlabelled series.
	Fit(train *dataset.Series) error
	// Scores returns per-variate, per-timestamp anomaly scores (N×T);
	// higher means more anomalous.
	Scores(s *dataset.Series) ([][]float64, error)
}

// Config carries the hyperparameters shared by the learned baselines. Zero
// value is unusable; start from DefaultConfig or SmallConfig.
type Config struct {
	// Window is the sliding-window length fed to windowed models.
	Window int
	// Hidden is the width of hidden layers / model dims.
	Hidden int
	// Latent is the VAE latent dimensionality (Donut, OmniAnomaly).
	Latent int
	// Epochs bounds training passes.
	Epochs int
	// LR is the Adam learning rate.
	LR float64
	// TrainStride subsamples training windows.
	TrainStride int
	// EvalStride controls scoring granularity: each scored window stamps
	// the timestamps since the previous scored window.
	EvalStride int
	// Workers bounds data-parallel goroutines (0 = GOMAXPROCS). It sets
	// speed only: training and scoring give the same score bits at every
	// value.
	Workers int
	// Seed fixes initialization and shuffling.
	Seed int64
}

// DefaultConfig mirrors the paper's setup (input length 200, as for AERO).
func DefaultConfig() Config {
	return Config{
		Window: 200, Hidden: 64, Latent: 8, Epochs: 30, LR: 0.001,
		TrainStride: 10, EvalStride: 10, Seed: 1,
	}
}

// SmallConfig is the CPU-friendly profile used in tests and smoke runs.
func SmallConfig() Config {
	return Config{
		Window: 64, Hidden: 16, Latent: 4, Epochs: 14, LR: 0.002,
		TrainStride: 16, EvalStride: 12, Seed: 1,
	}
}

func (c Config) normalized() Config {
	if c.TrainStride < 1 {
		c.TrainStride = 1
	}
	if c.EvalStride < 1 {
		c.EvalStride = 1
	}
	if c.Epochs < 1 {
		c.Epochs = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Window < 2 {
		return fmt.Errorf("baselines: window %d < 2", c.Window)
	}
	if c.LR <= 0 {
		return fmt.Errorf("baselines: LR %v <= 0", c.LR)
	}
	return nil
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// checkSeries validates a series against the fitted dimensionality.
func checkSeries(s *dataset.Series, n int, w int, fitted bool) error {
	if !fitted {
		return fmt.Errorf("baselines: detector not fitted")
	}
	if s.N() != n {
		return fmt.Errorf("baselines: fitted for %d variates, series has %d", n, s.N())
	}
	if s.Len() < w {
		return fmt.Errorf("baselines: series length %d shorter than window %d", s.Len(), w)
	}
	return nil
}

// assembleWindowScores evaluates score(end) (returning one score per
// variate for the window's final timestamp) at EvalStride spacing and
// stamps each evaluated window's scores onto the timestamps since the
// previous evaluated window. Timestamps before the first full window get
// zero scores. Evaluation runs on a worker pool.
func assembleWindowScores(T, w, stride, n, workers int, score func(end int) []float64) [][]float64 {
	out := make([][]float64, n)
	for v := range out {
		out[v] = make([]float64, T)
	}
	insts := window.Indices(T, w, stride)
	results := make([][]float64, len(insts))
	parallelFor(len(insts), workers, func(i int) {
		results[i] = score(insts[i].End)
	})
	prev := insts[0].End - 1
	for i, inst := range insts {
		for t := prev + 1; t <= inst.End; t++ {
			for v := 0; v < n; v++ {
				out[v][t] = results[i][v]
			}
		}
		prev = inst.End
	}
	return out
}

// parallelFor runs f(i) for i in [0, n) across a bounded worker pool.
func parallelFor(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// windowMatrix extracts the W×N window ending at end from normalized data
// (rows are timesteps, columns variates).
func windowMatrix(data [][]float64, end, w int) [][]float64 {
	n := len(data)
	out := make([][]float64, w)
	for i := 0; i < w; i++ {
		row := make([]float64, n)
		for v := 0; v < n; v++ {
			row[v] = data[v][end-w+1+i]
		}
		out[i] = row
	}
	return out
}
