package evt

// DSPOT is the drift-aware variant of SPOT (Siffer et al., KDD 2017,
// §4.4) for one series: before thresholding, each observation is
// re-centred on the mean of a trailing window, so slow level drift (e.g.
// atmospheric extinction over a night) does not inflate the tail model.
// Alarms are raised on the drift-corrected residuals. It is a one-star
// Bank; a stage of many stars keeps one Bank instead.
type DSPOT struct{ b Bank }

// NewDSPOT returns a drift-aware SPOT with the given trailing window depth,
// under the exact refit policy; use SetPolicy before Fit to amortize the
// tail refits.
func NewDSPOT(level, q float64, depth int) *DSPOT {
	return &DSPOT{NewBank(1, level, q, depth, ExactRefitPolicy())}
}

// SetPolicy configures the tail model's refit schedule; call it before
// Fit or SetState (the policy also caps the excess ring, which grows to
// that cap as exceedances arrive).
func (d *DSPOT) SetPolicy(p RefitPolicy) { d.b.policy = p }

// RefitStats returns the tail model's cumulative maintenance counters.
func (d *DSPOT) RefitStats() RefitStats { return d.b.RefitStats() }

// Fit calibrates on an initial batch, as Bank.Fit calibrates a star.
func (d *DSPOT) Fit(init []float64) error { return d.b.Fit(0, init) }

// DSPOTState is the serializable runtime state of one star's DSPOT (its
// SPOT tail model plus its drift window).
type DSPOTState struct {
	SPOT  SPOTState `json:"spot"`
	Depth int       `json:"depth"`
	Win   []float64 `json:"win"`
	Sum   float64   `json:"sum"`
	Pos   int       `json:"pos"`
	Full  bool      `json:"full"`
}

// State captures the detector's current runtime state.
func (d *DSPOT) State() DSPOTState { return d.b.State(0) }

// SetState replaces the detector's runtime state with a snapshot taken by
// State, refused with the detector untouched as Bank.SetState refuses.
func (d *DSPOT) SetState(st DSPOTState) error { return d.b.SetState(0, st) }

// Step consumes one observation, as Bank.Step steps a star.
func (d *DSPOT) Step(x float64) (bool, error) { return d.b.Step(0, x) }
