package evt

// DSPOT is the drift-aware variant of SPOT (Siffer et al., KDD 2017,
// §4.4) for one series: before thresholding, each observation is
// re-centred on the mean of a trailing window, so slow level drift (e.g.
// atmospheric extinction over a night) does not inflate the tail model.
// Alarms are raised on the drift-corrected residuals. It is a one-star
// Bank; a stage of many stars keeps one Bank instead.
type DSPOT struct{ b Bank }

// NewDSPOT returns a drift-aware SPOT with the given trailing window depth
// that refits its tail model on every exceedance with the full Grimshaw
// grid scan: textbook SPOT, the exact reference a serving Bank's
// amortized refits are held to.
func NewDSPOT(level, q float64, depth int) *DSPOT {
	b := NewBank(1, level, q, depth)
	b.exact = true
	return &DSPOT{b}
}

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
