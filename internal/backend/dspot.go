package backend

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/evt"
	"aero/internal/tensor"
)

// DSPOTConfig parameterizes the alarming stage: the POT level and q each
// star's threshold is calibrated at (paper §IV-B protocol, Eq. 18). The
// drift window is fixed: every star re-centres on its trailing dspotDepth
// scores (Siffer et al.'s DSPOT, §4.4) and alarms on a residual above
// that level, which stays where calibration set it.
type DSPOTConfig struct {
	Level, Q float64
}

// dspotDepth is the drift window of every star, in frames.
const dspotDepth = 20

// DefaultDSPOTConfig mirrors the paper's POT protocol, level 0.99 and
// q = 10⁻³.
func DefaultDSPOTConfig() DSPOTConfig {
	return DSPOTConfig{Level: 0.99, Q: 1e-3}
}

// DSPOTStage wraps ANY StreamBackend and replaces its pooled fitted
// threshold with per-variate streaming DSPOT: each push scores through
// the inner backend, then every raw score is re-centred on its variate's
// trailing mean and alarms when the residual exceeds the POT level
// calibrated on that variate's scores. This is the paper's thresholding
// protocol (§IV-B, Eq. 18: one static level per risk q) over a baseline
// that follows slow drift.
//
// The stage must come *after* scoring and before alarming, which is why
// it wraps the backend rather than filtering the engine's alarm channel:
// alarms derived from the inner backend's threshold would already have
// discarded the sub-threshold scores the drift baseline is made of.
type DSPOTStage struct {
	inner core.StreamBackend
	tails evt.Bank // every variate's tail state and the config, once per stage
	fired []bool   // per-variate verdicts of the newest push, reused

	// clock, when set via SetStageClock, stamps the boundary between the
	// inner score and the DSPOT steps of each push so the engine's
	// metrics layer can split "score" from "tail" latency. splitNs is
	// read by the same goroutine that pushed (behind the subscription
	// lock), so no atomics are needed.
	clock   func() int64
	splitNs int64
}

// NewDSPOTStage wraps inner with per-variate DSPOT alarmers calibrated
// on the given score sequences (one per variate, as produced by
// baselines.StreamScores over a calibration split). Every sequence must
// exceed dspotDepth+8 points, the DSPOT calibration minimum, and hold only
// finite values, and Level and Q must lie in (0, 1).
//
// A tail fit is a pure function of the config and the calibration bits,
// so a stage built from the same config and bit-equal scores as the last
// stage fitted copies that fit's bank instead of redoing it: every tenant
// of one model shares one calibration. Otherwise the variates' cold fits
// run on up to GOMAXPROCS workers, each writing only the tail models it
// fitted; every model is the one a sequential fit would build. On failure the error is the
// lowest-numbered failing variate's. Either way each stage's tail state
// is its own.
func NewDSPOTStage(inner core.StreamBackend, cfg DSPOTConfig, calib [][]float64) (*DSPOTStage, error) {
	n := inner.Variates()
	if len(calib) != n {
		return nil, fmt.Errorf("backend: dspot calibration has %d variates, backend %d", len(calib), n)
	}
	if err := evt.CheckPOTParams(cfg.Level, cfg.Q); err != nil {
		return nil, fmt.Errorf("backend: dspot config: %w", err)
	}
	d := &DSPOTStage{inner: inner, fired: make([]bool, n)}
	if fit := lastFit.Load(); fit.matches(cfg, calib) {
		d.tails = fit.tails.Clone()
		return d, nil
	}
	d.tails = evt.NewBank(n, cfg.Level, cfg.Q, dspotDepth)
	fit, err := d.fit(cfg, calib)
	if err != nil {
		return nil, err
	}
	lastFit.Store(fit)
	return d, nil
}

// fit calibrates every variate's tail model from scratch, concurrently,
// and returns the record of the fit: each worker copies the calibration
// of the variates it fitted, and the record takes a clone of the bank.
func (d *DSPOTStage) fit(cfg DSPOTConfig, calib [][]float64) (*fittedTail, error) {
	n := d.tails.Len()
	fit := &fittedTail{cfg: cfg, calib: make([][]float64, n)}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int(next.Add(1) - 1); v < n; v = int(next.Add(1) - 1) {
				if errs[v] = d.tails.Fit(v, calib[v]); errs[v] == nil {
					fit.calib[v] = append([]float64(nil), calib[v]...)
				}
			}
		}()
	}
	wg.Wait()
	for v, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("backend: dspot variate %d: %w", v, err)
		}
	}
	fit.tails = d.tails.Clone()
	return fit, nil
}

// fittedTail is the last successful NewDSPOTStage fit: its config, a
// private copy of its calibration, and a clone of the bank taken before
// the stage was returned, so never stepped. A record is immutable once
// stored; a miss replaces it whole. One record suffices — every caller
// builds all tenants of a model from one calibration — and bounds the
// memory held to one calibration.
type fittedTail struct {
	cfg   DSPOTConfig
	calib [][]float64
	tails evt.Bank
}

// lastFit holds the record of the last successful fit. Loading and
// replacing it are each one operation, so the pointer needs no lock.
var lastFit atomic.Pointer[fittedTail]

// matches reports whether a stage of config cfg on calib would fit
// exactly what f recorded: the same config and, star by star, the same
// calibration bits. It compares against the record's own copy, never a
// hash, so scores mutated in place since the record was made miss.
func (f *fittedTail) matches(cfg DSPOTConfig, calib [][]float64) bool {
	if f == nil || f.cfg != cfg || len(f.calib) != len(calib) {
		return false
	}
	for v, want := range f.calib {
		got := calib[v]
		if len(got) != len(want) {
			return false
		}
		for i, x := range want {
			if math.Float64bits(got[i]) != math.Float64bits(x) {
				return false
			}
		}
	}
	return true
}

// OpenAdaptive opens a serving backend of the given kind wrapped in a
// freshly calibrated DSPOT stage: a scratch instance replays the
// calibration series to produce the per-variate score sequences, then
// the serving instance starts cold (its window warms on the live feed,
// while the tail models start calibrated).
func OpenAdaptive(spec Spec, artifact []byte, cfg DSPOTConfig, calib *dataset.Series) (*DSPOTStage, error) {
	scratch, err := spec.Open(artifact)
	if err != nil {
		return nil, err
	}
	scores, err := baselines.StreamScores(scratch, calib)
	if err != nil {
		return nil, fmt.Errorf("backend: dspot calibration replay: %w", err)
	}
	inner, err := spec.Open(artifact)
	if err != nil {
		return nil, err
	}
	return NewDSPOTStage(inner, cfg, scores)
}

// Kind implements core.StreamBackend; the tag marks the composition.
func (d *DSPOTStage) Kind() string { return d.inner.Kind() + "+dspot" }

// Inner returns the wrapped backend.
func (d *DSPOTStage) Inner() core.StreamBackend { return d.inner }

// Variates implements core.StreamBackend.
func (d *DSPOTStage) Variates() int { return d.inner.Variates() }

// Ready implements core.StreamBackend.
func (d *DSPOTStage) Ready() bool { return d.inner.Ready() }

// LastTime implements core.StreamBackend.
func (d *DSPOTStage) LastTime() (float64, bool) { return d.inner.LastTime() }

// Threshold reports the mean effective alarm level across variates
// (drift baseline + residual-space tail threshold). The residual level is
// fixed at calibration; the baseline, and so the sum, follows the scores.
func (d *DSPOTStage) Threshold() float64 {
	var sum float64
	for v := range d.tails.Len() {
		sum += d.tails.Baseline(v) + d.tails.Threshold(v)
	}
	return sum / float64(d.tails.Len())
}

// RefitStats returns the stage's tail counters: its exceedances, scores
// in (t, z] over every variate (Refits is always 0). Call it from the
// same goroutine that pushes, or behind the engine's subscription lock
// (engine.Subscription.RefitStats does the latter).
func (d *DSPOTStage) RefitStats() evt.RefitStats { return d.tails.RefitStats() }

// PushScores implements core.StreamBackend: the inner backend's raw
// scores pass through unchanged, while each one steps its variate's
// DSPOT (the verdicts back the next Push's alarms). A frame with a NaN or
// ±Inf score steps no variate and is an error (evt.ErrNonFinite), so the
// engine counts a fault instead of a tail model silently going blind.
func (d *DSPOTStage) PushScores(f core.Frame) ([]float64, error) {
	scores, err := d.inner.PushScores(f)
	if d.clock != nil {
		d.splitNs = d.clock()
	}
	if err != nil || scores == nil {
		return nil, err
	}
	for v, sc := range scores {
		if math.IsNaN(sc) || math.IsInf(sc, 0) {
			return nil, fmt.Errorf("backend: dspot variate %d: score %v: %w", v, sc, evt.ErrNonFinite)
		}
	}
	for v, sc := range scores {
		fired, serr := d.tails.Step(v, sc)
		if serr != nil {
			return nil, fmt.Errorf("backend: dspot variate %d: %w", v, serr)
		}
		d.fired[v] = fired
	}
	return scores, nil
}

// Push implements core.StreamBackend, alarming on the DSPOT verdicts
// instead of the inner backend's static threshold.
func (d *DSPOTStage) Push(f core.Frame) ([]core.Alarm, error) {
	scores, err := d.PushScores(f)
	if err != nil || scores == nil {
		return nil, err
	}
	var alarms []core.Alarm
	for v, sc := range scores {
		if d.fired[v] {
			alarms = append(alarms, core.Alarm{Variate: v, Time: f.Time, Score: sc})
		}
	}
	return alarms, nil
}

// SwapArtifact delegates to the inner backend; the tail state is kept
// across swaps. The drift baselines follow the new scores, but every
// level stays where calibration on the old model's scores set it, so a
// swap that rescales the scores needs a stage calibrated anew.
func (d *DSPOTStage) SwapArtifact(artifact []byte) error { return d.inner.SwapArtifact(artifact) }

// Swap passes an in-memory model swap through to the inner backend when
// it accepts one (AERO), so wrapped tenants keep the shared-weights fast
// path — no per-tenant artifact re-parse under the subscription lock.
// The tail state is kept, as with SwapArtifact.
func (d *DSPOTStage) Swap(m *core.Model) error {
	sw, ok := d.inner.(interface{ Swap(m *core.Model) error })
	if !ok {
		return fmt.Errorf("backend: %s does not accept a model swap", d.inner.Kind())
	}
	return sw.Swap(m)
}

// InvalidateIncremental passes a host-side cache invalidation through to
// the inner backend when it reuses activations across frames (AERO's
// incremental streaming forward); a no-op for backends without caches.
func (d *DSPOTStage) InvalidateIncremental() {
	if inv, ok := d.inner.(core.IncrementalInvalidator); ok {
		inv.InvalidateIncremental()
	}
}

// SetStageClock installs (or, with nil, removes) the monotonic clock the
// stage uses to stamp the inner-score → tail-step boundary of each push.
// The engine sets it at subscribe time only when metrics are enabled, so
// an uninstrumented stage pays a single nil-check per push.
func (d *DSPOTStage) SetStageClock(now func() int64) { d.clock = now }

// LastSplitNanos returns the stamp taken between the newest push's inner
// score and its DSPOT steps, or 0 when no clock is installed. Valid only
// behind the same lock that serialized the push.
func (d *DSPOTStage) LastSplitNanos() int64 { return d.splitNs }

// IncrementalStats passes through the inner backend's incremental-path
// counters when it maintains them (AERO's streaming forward), so the
// engine's frame tracer can classify benign vs refresh pushes for
// wrapped tenants too. Backends without the capability report zeros.
func (d *DSPOTStage) IncrementalStats() core.IncrementalStats {
	if st, ok := d.inner.(interface{ IncrementalStats() core.IncrementalStats }); ok {
		return st.IncrementalStats()
	}
	return core.IncrementalStats{}
}

// GraphSnapshot passes through the inner backend's monitoring
// capability, when present.
func (d *DSPOTStage) GraphSnapshot() (*tensor.Dense, error) {
	if g, ok := d.inner.(core.GraphSnapshotter); ok {
		return g.GraphSnapshot()
	}
	return nil, fmt.Errorf("backend: %s does not expose a graph snapshot", d.inner.Kind())
}

// dspotSnapshotVersion 2 holds each star's calibrated level and no excess
// ring. RestoreState also reads version 1, whose stars refitted online:
// their rings are ignored and each Z is restored as the level in force.
// A build that reads only version 1 refuses a version 2 blob.
const dspotSnapshotVersion = 2

// dspotSnapshot checkpoints the composition: the inner backend's own
// snapshot plus every variate's tail state.
type dspotSnapshot struct {
	Kind    string           `json:"kind"`
	Version int              `json:"version"`
	Inner   []byte           `json:"inner"`
	Spots   []evt.DSPOTState `json:"spots"`
}

// SnapshotState implements core.StreamBackend.
func (d *DSPOTStage) SnapshotState() ([]byte, error) {
	inner, err := d.inner.SnapshotState()
	if err != nil {
		return nil, err
	}
	st := dspotSnapshot{Kind: d.Kind(), Version: dspotSnapshotVersion, Inner: inner,
		Spots: make([]evt.DSPOTState, d.tails.Len())}
	for v := range st.Spots {
		st.Spots[v] = d.tails.State(v)
	}
	return json.Marshal(st)
}

// RestoreState implements core.StreamBackend. The blob is validated —
// including against the inner backend, which itself validates before
// mutating — and the tail states are committed only after the inner
// restore succeeds.
func (d *DSPOTStage) RestoreState(blob []byte) error {
	var st dspotSnapshot
	if err := json.Unmarshal(blob, &st); err != nil {
		return fmt.Errorf("backend: parse dspot state: %w", err)
	}
	if st.Kind != d.Kind() {
		return fmt.Errorf("backend: state kind %q, want %q", st.Kind, d.Kind())
	}
	if st.Version != 1 && st.Version != dspotSnapshotVersion {
		return fmt.Errorf("backend: unsupported dspot state version %d", st.Version)
	}
	if len(st.Spots) != d.tails.Len() {
		return fmt.Errorf("backend: state has %d tail models, want %d", len(st.Spots), d.tails.Len())
	}
	fresh := d.tails.Fresh()
	for v := range st.Spots {
		if err := fresh.SetState(v, st.Spots[v]); err != nil {
			return fmt.Errorf("backend: dspot state variate %d: %w", v, err)
		}
	}
	if err := d.inner.RestoreState(st.Inner); err != nil {
		return err
	}
	d.tails = fresh
	return nil
}

var _ core.StreamBackend = (*DSPOTStage)(nil)
var _ core.IncrementalInvalidator = (*DSPOTStage)(nil)
