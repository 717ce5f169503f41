package evt

import "fmt"

// DSPOT is the drift-aware variant of SPOT (Siffer et al., KDD 2017,
// §4.4): before thresholding, each observation is re-centred on the mean
// of a trailing window, so slow level drift (e.g. atmospheric extinction
// over a night) does not inflate the tail model. Alarms are raised on the
// drift-corrected residuals.
type DSPOT struct {
	spot  *SPOT
	depth int
	win   []float64
	sum   float64
	pos   int
	full  bool
}

// NewDSPOT returns a drift-aware SPOT with the given trailing window depth,
// under the exact refit policy; use SetPolicy before Fit to amortize the
// tail refits.
func NewDSPOT(level, q float64, depth int) *DSPOT {
	if depth < 1 {
		depth = 1
	}
	return &DSPOT{spot: NewSPOT(level, q), depth: depth, win: make([]float64, depth)}
}

// SetPolicy configures the wrapped tail model's refit schedule; call it
// before Fit or SetState (the policy also caps the excess ring, which
// grows to that cap as exceedances arrive).
func (d *DSPOT) SetPolicy(p RefitPolicy) { d.spot.Policy = p }

// Policy returns the wrapped tail model's refit schedule.
func (d *DSPOT) Policy() RefitPolicy { return d.spot.Policy }

// RefitStats returns the wrapped tail model's cumulative maintenance
// counters.
func (d *DSPOT) RefitStats() RefitStats { return d.spot.RefitStats() }

// Fit calibrates on an initial batch; the first depth values seed the
// trailing window and the rest calibrate the tail model. A NaN or ±Inf
// anywhere in the batch is an error naming its index: it would leave a
// NaN baseline or threshold that never alarms.
func (d *DSPOT) Fit(init []float64) error {
	if len(init) <= d.depth+8 {
		return fmt.Errorf("evt: DSPOT needs more than depth+8=%d calibration points, got %d", d.depth+8, len(init))
	}
	// The checks ride in the loops that read each point anyway, so a
	// refused batch leaves the window part-filled: as after a Level or Q
	// error, the detector is not ready and must be discarded.
	for i, v := range init[:d.depth] {
		if !finite(v) {
			return nonFinitePoint(i, v)
		}
		d.push(v)
	}
	resid := make([]float64, 0, len(init)-d.depth)
	for i, v := range init[d.depth:] {
		if !finite(v) {
			return nonFinitePoint(d.depth+i, v)
		}
		resid = append(resid, v-d.mean())
		d.push(v)
	}
	return d.spot.Fit(resid)
}

func nonFinitePoint(i int, v float64) error {
	return fmt.Errorf("evt: DSPOT calibration point %d is %v", i, v)
}

func (d *DSPOT) push(v float64) {
	if d.full {
		d.sum -= d.win[d.pos]
	}
	d.win[d.pos] = v
	d.sum += v
	d.pos++
	if d.pos == d.depth {
		d.pos = 0
		d.full = true
	}
}

func (d *DSPOT) mean() float64 {
	n := d.depth
	if !d.full {
		n = d.pos
		if n == 0 {
			return 0
		}
	}
	return d.sum / float64(n)
}

// Threshold returns the current residual-space alarm threshold.
func (d *DSPOT) Threshold() float64 { return d.spot.Threshold() }

// Baseline returns the current drift-corrected baseline (the trailing
// window mean); Baseline()+Threshold() is the effective alarm level in
// raw score space.
func (d *DSPOT) Baseline() float64 { return d.mean() }

// DSPOTState is the serializable runtime state of a DSPOT detector (the
// wrapped SPOT tail model plus the drift window).
type DSPOTState struct {
	SPOT  SPOTState `json:"spot"`
	Depth int       `json:"depth"`
	Win   []float64 `json:"win"`
	Sum   float64   `json:"sum"`
	Pos   int       `json:"pos"`
	Full  bool      `json:"full"`
}

// State captures the detector's current runtime state.
func (d *DSPOT) State() DSPOTState {
	return DSPOTState{
		SPOT: d.spot.State(), Depth: d.depth,
		Win: append([]float64(nil), d.win...), Sum: d.sum, Pos: d.pos, Full: d.full,
	}
}

// SetState replaces the detector's runtime state with a snapshot taken by
// State. The snapshot's drift-window depth must match the detector's, and
// its window position must lie in [0, depth); otherwise the error leaves
// the detector untouched.
func (d *DSPOT) SetState(st DSPOTState) error {
	if st.Depth != d.depth || len(st.Win) != d.depth {
		return fmt.Errorf("evt: DSPOT state depth %d (win %d), detector depth %d", st.Depth, len(st.Win), d.depth)
	}
	if st.Pos < 0 || st.Pos >= d.depth {
		return fmt.Errorf("evt: DSPOT state window position %d outside [0, %d)", st.Pos, d.depth)
	}
	d.spot.SetState(st.SPOT)
	copy(d.win, st.Win)
	d.sum, d.pos, d.full = st.Sum, st.Pos, st.Full
	return nil
}

// Step consumes one observation and reports whether it is anomalous
// relative to the drift-corrected baseline. Non-anomalous observations
// update the trailing window; anomalies do not (so an alarm does not
// poison the baseline). Stepping before Fit returns ErrNotReady, a
// non-finite x ErrNonFinite (the residual of one is non-finite, and the
// tail model refuses it before the window sees x); neither changes the
// state.
func (d *DSPOT) Step(x float64) (bool, error) {
	resid := x - d.mean()
	fired, err := d.spot.Step(resid)
	if err != nil {
		return false, err
	}
	if fired {
		return true, nil
	}
	d.push(x)
	return false, nil
}
