package evt

import "errors"

// ErrNotReady is returned by Bank.Step when the star has
// not been calibrated yet (Fit has not run, or a restore left it
// unready). Callers that drive a detector per-score must treat it as a
// per-sample failure, not a process-fatal condition.
var ErrNotReady = errors.New("evt: Step before Fit")

// ErrNonFinite is returned by Bank.Step for a NaN or ±Inf observation,
// which is refused with the star's state untouched: one such value in a
// drift window would poison every later
// verdict (a NaN baseline never alarms again, a −Inf one alarms forever).
var ErrNonFinite = errors.New("evt: non-finite observation")

// finite reports whether x is neither NaN nor ±Inf: NaN fails the first
// comparison, ±Inf the second.
func finite(x float64) bool { return x == x && x-x == 0 }

// RefitStats are cumulative counters of a stage's tail: how many
// exceedances its stars have counted. The level is set at calibration
// and never refitted, so Refits reads 0; it stays for the readers that
// report it.
type RefitStats struct {
	// Exceedances counts scores in (t, z], calibration's included.
	Exceedances uint64 `json:"exceedances"`
	// Refits counts tail-model refits after calibration: always 0.
	Refits uint64 `json:"refits"`
}

// SPOTState is the serializable runtime state of one star's SPOT tail,
// used by streaming-backend snapshots to checkpoint its level. Floats
// survive a JSON round-trip bit-exactly (encoding/json emits the shortest
// representation that parses back to the same float64). A checkpoint
// taken while the level was refitted online also holds an excess ring and
// its bookkeeping; decoding ignores those fields, and its Z is the level
// restored.
type SPOTState struct {
	Level float64 `json:"level"`
	Q     float64 `json:"q"`
	T     float64 `json:"t"`
	Z     float64 `json:"z"`
	Model GPD     `json:"model"`
	N     int     `json:"n"`
	Ready bool    `json:"ready"`
	Peaks int     `json:"peaks"`
}

// DSPOTState is the serializable runtime state of one star's DSPOT: its
// SPOT tail plus its drift window.
type DSPOTState struct {
	SPOT  SPOTState `json:"spot"`
	Depth int       `json:"depth"`
	Win   []float64 `json:"win"`
	Sum   float64   `json:"sum"`
	Pos   int       `json:"pos"`
	Full  bool      `json:"full"`
}
