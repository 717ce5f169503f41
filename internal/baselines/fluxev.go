package baselines

import (
	"math"

	"aero/internal/dataset"
	"aero/internal/stats"
)

// FluxEV (Li et al., WSDM 2021) extends SPOT from extreme *values* to
// abnormal *patterns* with a two-step fluctuation extraction:
//
//  1. the prediction residual against an EWMA forecast isolates local
//     fluctuations from the trend; and
//  2. subtracting the recent maximum fluctuation suppresses recurring
//     (e.g. periodic) variation so only novel fluctuations remain.
//
// The remaining positive fluctuations are the anomaly scores the harness
// thresholds with the method-of-moments POT that FluxEV introduced.
type FluxEV struct {
	// Alpha is the EWMA smoothing factor of the step-1 forecast.
	Alpha float64
	// SuppressWindow is the trailing window of step 2 (s in the paper).
	SuppressWindow int

	n      int
	fitted bool
}

// NewFluxEV returns a FluxEV detector with reference settings.
func NewFluxEV() *FluxEV { return &FluxEV{Alpha: 0.25, SuppressWindow: 20} }

// Name implements Detector.
func (d *FluxEV) Name() string { return "FluxEV" }

// Fit records dimensionality; the extraction is parameter-free beyond its
// two hyperparameters.
func (d *FluxEV) Fit(train *dataset.Series) error {
	d.n = train.N()
	d.fitted = true
	return nil
}

// extract runs the two-step fluctuation extraction on one series.
func (d *FluxEV) extract(x []float64) []float64 {
	T := len(x)
	out := make([]float64, T)
	if T < 2 {
		return out
	}
	// Step 1: residual against the EWMA of *previous* points.
	ew := stats.EWMA(x, d.Alpha)
	res := make([]float64, T)
	for t := 1; t < T; t++ {
		res[t] = math.Abs(x[t] - ew[t-1])
	}
	// Step 2: subtract the recent maximum residual over res[t-w .. t-1];
	// only excess beyond recently-seen fluctuation survives. The maximum
	// is carried from one t to the next and rescanned only when the
	// residual leaving the window was it.
	w := max(d.SuppressWindow, 1)
	hi := 0.0 // windowMax(res[:1]), and res[0] is 0
	for t := 1; t < T; t++ {
		if excess := res[t] - hi; excess > 0 {
			out[t] = excess
		}
		// Slide to the window of t+1, res[t+1-w .. t].
		if lo := t - w; lo >= 0 && res[lo] == hi && hi > 0 {
			hi = windowMax(res[lo+1 : t+1])
		} else if res[t] > hi {
			hi = res[t]
		}
	}
	return out
}

// windowMax is step 2's recent maximum over one window of residuals: the
// largest value by `>` from 0, so a window of zeros, negatives or NaNs
// gives 0 and a NaN is never picked. A maximum involves no rounding, so
// carrying it across slides and rescanning only when it leaves gives the
// bits a full scan at every step would.
func windowMax(window []float64) float64 {
	m := 0.0
	for _, r := range window {
		if r > m {
			m = r
		}
	}
	return m
}

// Scores implements Detector.
func (d *FluxEV) Scores(s *dataset.Series) ([][]float64, error) {
	if err := checkSeries(s, d.n, 2, d.fitted); err != nil {
		return nil, err
	}
	out := make([][]float64, d.n)
	parallelFor(d.n, 0, func(v int) {
		out[v] = d.extract(s.Data[v])
	})
	return out, nil
}
