package baselines

import (
	"encoding/json"
	"fmt"
	"math"

	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/evt"
)

// This file serves FluxEV, the cheapest of the univariate baselines, to
// the core.StreamBackend contract, so the engine can run it
// frame-at-a-time alongside AERO: as a tenant's detector, as a
// quarantined AERO tenant's fallback, and as the cheap screen that ranks
// every light curve before any expensive look. Spectral Residual and
// Template Matching stay batch-only beside the deep baselines (Donut,
// OmniAnomaly, TranAD, ...): on fresh seeds FluxEV recalled at least as
// many anomaly segments in every top-scores budget at a fraction of their
// push cost (DESIGN.md, "Which baselines stream").
//
// The adapter keeps its window in fixed rings and scores into a reused
// slice, so a warm Push performs zero allocations (pinned by
// TestStreamAdapterPushAllocs) — the same steady-state budget as the AERO
// scoring path the engine was built around.

// KindFluxEV is the stream adapter's kind tag, as registered with
// internal/backend.
const KindFluxEV = "fluxev"

// StreamConfig carries the hyperparameters of the streaming FluxEV
// adapter plus the POT calibration of its static threshold. Zero value is
// unusable; start from DefaultStreamConfig.
type StreamConfig struct {
	// Level and Q parameterize the POT fit of the static threshold over
	// the pooled training scores (paper §IV-B applies the same protocol
	// to every method).
	Level, Q float64
	// FluxEVAlpha is the EWMA forecast smoothing factor; FluxEVSuppress
	// the recurring-fluctuation suppression window.
	FluxEVAlpha    float64
	FluxEVSuppress int
}

// DefaultStreamConfig mirrors the batch FluxEV's reference settings.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{Level: 0.99, Q: 1e-3, FluxEVAlpha: 0.25, FluxEVSuppress: 20}
}

const streamArtifactVersion = 1

// streamArtifact is the published form of a calibrated adapter:
// hyperparameters plus the fitted threshold. Level and Q are written as
// zero (the adapter does not keep them) and stay in the format so that
// published artifacts keep their bytes.
type streamArtifact struct {
	Kind      string  `json:"kind"`
	Version   int     `json:"version"`
	N         int     `json:"n"`
	Threshold float64 `json:"threshold"`
	Level     float64 `json:"level"`
	Q         float64 `json:"q"`
	Alpha     float64 `json:"alpha"`
	Suppress  int     `json:"suppress"`
}

const streamSnapshotVersion = 1

// streamSnapshot is the warm-state checkpoint of the adapter: everything
// accumulated at runtime (forecasts, residual rings, cursors), and
// nothing from the artifact (the threshold lives in the registry entry,
// exactly like AERO weights live in the model file).
type streamSnapshot struct {
	Kind    string      `json:"kind"`
	Version int         `json:"version"`
	N       int         `json:"n"`
	Window  int         `json:"window"`
	Count   int         `json:"count"`
	Last    float64     `json:"last"`
	Rings   [][]float64 `json:"rings"`
	EW      []float64   `json:"ew"`
}

// StreamFluxEV is the streaming adapter of FluxEV's two-step fluctuation
// extraction: the EWMA forecast, the residual ring and the ring's maximum
// are carried as running state, so a push costs O(1) per variate —
// O(SuppressWindow) only when the residual it evicts was the maximum —
// and reproduces the batch extraction bit-for-bit from the second frame
// on.
type StreamFluxEV struct {
	n        int
	alpha    float64
	suppress int
	thr      float64
	count    int // frames ingested
	last     float64
	ew       []float64   // per-variate EWMA of all points so far
	res      [][]float64 // per-variate ring of the last `suppress` residuals
	hi       []float64   // per-variate windowMax of the slots the next push reads
	cur      int         // ring slot the next push writes: count % suppress
	scores   []float64
}

// NewStreamFluxEV returns an uncalibrated streaming FluxEV adapter;
// calibrate with CalibrateStream before serving.
func NewStreamFluxEV(n int, cfg StreamConfig) (*StreamFluxEV, error) {
	if n < 1 {
		return nil, fmt.Errorf("baselines: FluxEV adapter needs >= 1 variate, got %d", n)
	}
	if cfg.FluxEVAlpha <= 0 || cfg.FluxEVAlpha > 1 {
		return nil, fmt.Errorf("baselines: FluxEV alpha %v outside (0, 1]", cfg.FluxEVAlpha)
	}
	w := max(cfg.FluxEVSuppress, 1)
	d := &StreamFluxEV{
		n:        n,
		alpha:    cfg.FluxEVAlpha,
		suppress: w,
		ew:       make([]float64, n),
		res:      make([][]float64, n),
		hi:       make([]float64, n),
		scores:   make([]float64, n),
	}
	for v := range d.res {
		d.res[v] = make([]float64, w)
	}
	return d, nil
}

// Kind implements core.StreamBackend.
func (d *StreamFluxEV) Kind() string { return KindFluxEV }

// Variates implements core.StreamBackend.
func (d *StreamFluxEV) Variates() int { return d.n }

// Ready implements core.StreamBackend: the first frame only seeds the
// forecast, so scores flow from the second.
func (d *StreamFluxEV) Ready() bool { return d.count >= 2 }

// LastTime implements core.StreamBackend.
func (d *StreamFluxEV) LastTime() (float64, bool) { return d.last, d.count > 0 }

// Threshold implements core.StreamBackend.
func (d *StreamFluxEV) Threshold() float64 { return d.thr }

// PushScores implements core.StreamBackend. A frame of the wrong width,
// a non-finite time or magnitude, or a time not after the last one is
// refused before any state moves: a NaN kept in the forecast would poison
// every later score and leave a snapshot JSON cannot encode.
func (d *StreamFluxEV) PushScores(f core.Frame) ([]float64, error) {
	if len(f.Magnitudes) != d.n {
		return nil, fmt.Errorf("baselines: frame has %d stars, fluxev adapter expects %d", len(f.Magnitudes), d.n)
	}
	if math.IsNaN(f.Time) || math.IsInf(f.Time, 0) {
		return nil, fmt.Errorf("baselines: frame time %v is not finite", f.Time)
	}
	for v, x := range f.Magnitudes {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("baselines: star %d magnitude %v is not finite", v, x)
		}
	}
	if d.count > 0 && f.Time <= d.last {
		return nil, fmt.Errorf("baselines: frame time %v not after previous %v", f.Time, d.last)
	}
	t := d.count // 0-based index of this frame
	d.count++
	d.last = f.Time
	if t == 0 {
		for v := 0; v < d.n; v++ {
			d.ew[v] = f.Magnitudes[v]
			d.res[v][0] = 0 // the batch path's implicit res[0]
			d.hi[v] = 0
		}
		d.cur = 1 % d.suppress
		return nil, nil
	}
	// hi is the recent maximum over res[t-suppress .. t-1]. The next push
	// reads res[t+1-suppress .. t]; while t < suppress that is the first
	// t+1 slots.
	next := d.suppress
	if t < next {
		next = t + 1
	}
	cur, beta := d.cur, 1-d.alpha
	for v := 0; v < d.n; v++ {
		x := f.Magnitudes[v]
		r := math.Abs(x - d.ew[v]) // residual vs the EWMA of *previous* points
		hi := d.hi[v]
		sc := r - hi
		if sc < 0 {
			sc = 0
		}
		d.scores[v] = sc
		ring := d.res[v]
		old := ring[cur]
		ring[cur] = r
		if old == hi && hi > 0 { // the maximum may have left the window
			hi = windowMax(ring[:next])
		} else if r > hi {
			hi = r
		}
		d.hi[v] = hi
		d.ew[v] = d.alpha*x + beta*d.ew[v]
	}
	if d.cur++; d.cur == d.suppress {
		d.cur = 0
	}
	return d.scores, nil
}

// Push implements core.StreamBackend: scores at or above the threshold
// are alarms.
func (d *StreamFluxEV) Push(f core.Frame) ([]core.Alarm, error) {
	scores, err := d.PushScores(f)
	if err != nil || scores == nil {
		return nil, err
	}
	var out []core.Alarm
	for v, sc := range scores {
		if sc >= d.thr {
			out = append(out, core.Alarm{Variate: v, Time: f.Time, Score: sc})
		}
	}
	return out, nil
}

// MarshalArtifact serializes the calibrated adapter — the
// registry-published form.
func (d *StreamFluxEV) MarshalArtifact() ([]byte, error) {
	return json.Marshal(streamArtifact{
		Kind: KindFluxEV, Version: streamArtifactVersion, N: d.n,
		Threshold: d.thr, Alpha: d.alpha, Suppress: d.suppress,
	})
}

// OpenStreamFluxEV reconstructs a serving adapter from a published
// artifact.
func OpenStreamFluxEV(artifact []byte) (*StreamFluxEV, error) {
	var a streamArtifact
	if err := json.Unmarshal(artifact, &a); err != nil {
		return nil, fmt.Errorf("baselines: parse fluxev artifact: %w", err)
	}
	if a.Kind != KindFluxEV {
		return nil, fmt.Errorf("baselines: artifact kind %q, want %q", a.Kind, KindFluxEV)
	}
	if a.Version != streamArtifactVersion {
		return nil, fmt.Errorf("baselines: unsupported fluxev artifact version %d", a.Version)
	}
	if a.N < 1 {
		return nil, fmt.Errorf("baselines: fluxev artifact has %d variates", a.N)
	}
	d, err := NewStreamFluxEV(a.N, StreamConfig{FluxEVAlpha: a.Alpha, FluxEVSuppress: a.Suppress})
	if err != nil {
		return nil, err
	}
	d.thr = a.Threshold
	return d, nil
}

// SwapArtifact implements core.StreamBackend: a freshly calibrated
// artifact of matching geometry replaces the threshold and forecast
// smoothing while the warm window is kept. The artifact is opened the way
// OpenStreamFluxEV opens it, so a swap compares the window the artifact
// would serve with, not the number it spells.
func (d *StreamFluxEV) SwapArtifact(artifact []byte) error {
	fresh, err := OpenStreamFluxEV(artifact)
	if err != nil {
		return err
	}
	if fresh.n != d.n || fresh.suppress != d.suppress {
		return fmt.Errorf("baselines: fluxev artifact is %d variates × window %d, adapter is %d × %d", fresh.n, fresh.suppress, d.n, d.suppress)
	}
	d.alpha = fresh.alpha
	d.thr = fresh.thr
	return nil
}

// SnapshotState implements core.StreamBackend.
func (d *StreamFluxEV) SnapshotState() ([]byte, error) {
	return json.Marshal(streamSnapshot{
		Kind: KindFluxEV, Version: streamSnapshotVersion, N: d.n, Window: d.suppress,
		Count: d.count, Last: d.last, Rings: d.res, EW: d.ew,
	})
}

// RestoreState implements core.StreamBackend. The snapshot is parsed and
// validated against the adapter's geometry in full before any of it is
// committed.
func (d *StreamFluxEV) RestoreState(blob []byte) error {
	var st streamSnapshot
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("baselines: parse fluxev state: %w", err)
	}
	if st.Kind != KindFluxEV {
		return fmt.Errorf("baselines: state kind %q, want %q", st.Kind, KindFluxEV)
	}
	if st.Version != streamSnapshotVersion {
		return fmt.Errorf("baselines: unsupported fluxev state version %d", st.Version)
	}
	if st.N != d.n || st.Window != d.suppress {
		return fmt.Errorf("baselines: state is %d variates × window %d, adapter is %d × %d", st.N, st.Window, d.n, d.suppress)
	}
	if st.Count < 0 {
		return fmt.Errorf("baselines: state frame count %d negative", st.Count)
	}
	if len(st.Rings) != d.n {
		return fmt.Errorf("baselines: state has %d rings, want %d", len(st.Rings), d.n)
	}
	for v := range st.Rings {
		if len(st.Rings[v]) != d.suppress {
			return fmt.Errorf("baselines: state ring %d has %d slots, want %d", v, len(st.Rings[v]), d.suppress)
		}
	}
	if len(st.EW) != d.n {
		return fmt.Errorf("baselines: state has %d forecast values, want %d", len(st.EW), d.n)
	}
	d.count, d.last = st.Count, st.Last
	d.cur = st.Count % d.suppress
	read := min(st.Count, d.suppress) // slots the next push reads
	for v := range d.res {
		copy(d.res[v], st.Rings[v])
		d.hi[v] = windowMax(d.res[v][:read])
	}
	copy(d.ew, st.EW)
	return nil
}

// CalibrateStream replays the training series through the adapter and
// fits its static alarm threshold with POT over the pooled post-warm
// scores — the identical protocol the batch harness applies (§IV-B).
// The adapter is left warm on the training feed; serve with a fresh
// instance opened from the calibrated artifact.
func CalibrateStream(d *StreamFluxEV, train *dataset.Series, level, q float64) error {
	if train.N() != d.n {
		return fmt.Errorf("baselines: calibration series has %d variates, adapter %d", train.N(), d.n)
	}
	scores, err := StreamScores(d, train)
	if err != nil {
		return err
	}
	total := 0
	for _, vs := range scores {
		total += len(vs)
	}
	pool := make([]float64, 0, total)
	for _, vs := range scores {
		pool = append(pool, vs...)
	}
	if len(pool) == 0 {
		return fmt.Errorf("baselines: series too short to calibrate fluxev (no post-warm scores)")
	}
	th, err := evt.POT(pool, level, q)
	if err != nil && th.N == 0 {
		return fmt.Errorf("baselines: calibrate fluxev: %w", err)
	}
	d.thr = th.Z // the empirical-quantile fallback is still usable
	return nil
}

// StreamScores replays a series through any stream backend and returns
// the per-variate score sequences of the post-warm frames — the raw
// material for POT/DSPOT calibration.
func StreamScores(b core.StreamBackend, s *dataset.Series) ([][]float64, error) {
	out := make([][]float64, b.Variates())
	for v := range out {
		out[v] = make([]float64, 0, s.Len())
	}
	frame := core.Frame{Magnitudes: make([]float64, s.N())}
	for t := 0; t < s.Len(); t++ {
		frame.Time = s.Time[t]
		for v := 0; v < s.N(); v++ {
			frame.Magnitudes[v] = s.Data[v][t]
		}
		scores, err := b.PushScores(frame)
		if err != nil {
			return nil, err
		}
		for v, sc := range scores {
			out[v] = append(out[v], sc)
		}
	}
	return out, nil
}
