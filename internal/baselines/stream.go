package baselines

import (
	"encoding/json"
	"fmt"
	"math"

	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/evt"
	"aero/internal/fourier"
	"aero/internal/stats"
)

// This file adapts the cheap univariate baselines — Spectral Residual,
// Template Matching and FluxEV — to the core.StreamBackend contract, so
// the engine can serve them frame-at-a-time alongside AERO. Only the
// methods whose per-point cost is O(window) stream here; the deep
// baselines (Donut, OmniAnomaly, TranAD, ...) re-run a full network
// forward per window and stay batch-only in the experiment harness.
//
// Every adapter keeps its window in fixed rings and scores into reused
// scratch buffers, so a warm Push performs zero allocations (pinned by
// TestStreamAdapterPushAllocs) — the same steady-state budget as the
// AERO scoring path the engine was built around.

// Stream adapter kind tags, as registered with internal/backend.
const (
	KindSR     = "sr"
	KindTM     = "tm"
	KindFluxEV = "fluxev"
)

// StreamConfig carries the hyperparameters of the streaming baseline
// adapters plus the POT calibration of their static thresholds. Zero
// value is unusable; start from DefaultStreamConfig.
type StreamConfig struct {
	// Level and Q parameterize the POT fit of the static threshold over
	// the pooled training scores (paper §IV-B applies the same protocol
	// to every method).
	Level, Q float64
	// SRWindow is the spectral-residual scoring window; it must be a
	// power of two (the hot path uses the in-place radix-2 FFT).
	SRWindow int
	// SRAvgFilter is the log-amplitude moving-average width (q in Ren et
	// al.); SRSaliencyWindow the trailing saliency-normalization window.
	SRAvgFilter, SRSaliencyWindow int
	// TMTemplateLen is the template sampling length.
	TMTemplateLen int
	// FluxEVAlpha is the EWMA forecast smoothing factor; FluxEVSuppress
	// the recurring-fluctuation suppression window.
	FluxEVAlpha    float64
	FluxEVSuppress int
}

// DefaultStreamConfig mirrors the batch baselines' reference settings,
// with a 64-frame SR window (the batch method transforms the whole
// series at once, which a stream cannot).
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Level: 0.99, Q: 1e-3,
		SRWindow: 64, SRAvgFilter: 3, SRSaliencyWindow: 21,
		TMTemplateLen: 32,
		FluxEVAlpha:   0.25, FluxEVSuppress: 20,
	}
}

const streamArtifactVersion = 1

// streamArtifact is the published form of a calibrated streaming
// adapter: hyperparameters plus the fitted threshold (and, for TM, the
// template library). One struct covers all three kinds; irrelevant
// fields are omitted per kind.
type streamArtifact struct {
	Kind      string  `json:"kind"`
	Version   int     `json:"version"`
	N         int     `json:"n"`
	Threshold float64 `json:"threshold"`
	Level     float64 `json:"level"`
	Q         float64 `json:"q"`

	Window         int         `json:"window,omitempty"`          // sr
	AvgFilter      int         `json:"avg_filter,omitempty"`      // sr
	SaliencyWindow int         `json:"saliency_window,omitempty"` // sr
	TemplateLen    int         `json:"template_len,omitempty"`    // tm
	Templates      [][]float64 `json:"templates,omitempty"`       // tm
	Alpha          float64     `json:"alpha,omitempty"`           // fluxev
	Suppress       int         `json:"suppress,omitempty"`        // fluxev
}

func decodeStreamArtifact(kind string, artifact []byte) (*streamArtifact, error) {
	var a streamArtifact
	if err := json.Unmarshal(artifact, &a); err != nil {
		return nil, fmt.Errorf("baselines: parse %s artifact: %w", kind, err)
	}
	if a.Kind != kind {
		return nil, fmt.Errorf("baselines: artifact kind %q, want %q", a.Kind, kind)
	}
	if a.Version != streamArtifactVersion {
		return nil, fmt.Errorf("baselines: unsupported %s artifact version %d", kind, a.Version)
	}
	if a.N < 1 {
		return nil, fmt.Errorf("baselines: %s artifact has %d variates", kind, a.N)
	}
	return &a, nil
}

// streamSnapshot is the warm-state checkpoint of a streaming adapter:
// everything accumulated at runtime (rings, cursors), and nothing from
// the artifact (thresholds live in the registry entry, exactly like AERO
// weights live in the model file).
type streamSnapshot struct {
	Kind    string      `json:"kind"`
	Version int         `json:"version"`
	N       int         `json:"n"`
	Window  int         `json:"window"`
	Count   int         `json:"count"`
	Last    float64     `json:"last"`
	Rings   [][]float64 `json:"rings"`
	EW      []float64   `json:"ew,omitempty"` // fluxev forecast state
}

// streamBase carries the state and contract plumbing shared by the three
// adapters: dimensionality, warm-up accounting, the calibrated threshold
// and the reused per-variate score slice.
type streamBase struct {
	kind   string
	n      int
	warm   int // frames needed before scores flow
	thr    float64
	count  int
	last   float64
	scores []float64
}

func newStreamBase(kind string, n, warm int) streamBase {
	return streamBase{kind: kind, n: n, warm: warm, scores: make([]float64, n)}
}

// Kind implements core.StreamBackend.
func (b *streamBase) Kind() string { return b.kind }

// Variates implements core.StreamBackend.
func (b *streamBase) Variates() int { return b.n }

// Ready implements core.StreamBackend.
func (b *streamBase) Ready() bool { return b.count >= b.warm }

// LastTime implements core.StreamBackend.
func (b *streamBase) LastTime() (float64, bool) { return b.last, b.count > 0 }

// Threshold implements core.StreamBackend.
func (b *streamBase) Threshold() float64 { return b.thr }

// SetThreshold installs a calibrated alarm threshold (see
// CalibrateStream).
func (b *streamBase) SetThreshold(thr float64) { b.thr = thr }

// ingest validates one frame against the adapter's geometry and time
// cursor; the caller inserts into its rings and then calls advance. A
// non-finite time or magnitude is refused before any state moves: a NaN
// kept in FluxEV's forecast, or an ±Inf in a ring, would poison every
// later score and leave a snapshot JSON cannot encode.
func (b *streamBase) ingest(f core.Frame) error {
	if len(f.Magnitudes) != b.n {
		return fmt.Errorf("baselines: frame has %d stars, %s adapter expects %d", len(f.Magnitudes), b.kind, b.n)
	}
	if math.IsNaN(f.Time) || math.IsInf(f.Time, 0) {
		return fmt.Errorf("baselines: frame time %v is not finite", f.Time)
	}
	for v, x := range f.Magnitudes {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("baselines: star %d magnitude %v is not finite", v, x)
		}
	}
	if b.count > 0 && f.Time <= b.last {
		return fmt.Errorf("baselines: frame time %v not after previous %v", f.Time, b.last)
	}
	return nil
}

func (b *streamBase) advance(t float64) {
	b.count++
	b.last = t
}

// alarmsAt converts raw scores into threshold crossings.
func alarmsAt(t float64, scores []float64, thr float64) []core.Alarm {
	var out []core.Alarm
	for v, sc := range scores {
		if sc >= thr {
			out = append(out, core.Alarm{Variate: v, Time: t, Score: sc})
		}
	}
	return out
}

// zscoreInto writes the z-scored src into dst with the exact float
// operations of stats.ZScore (bit-identical to the batch path).
func zscoreInto(dst, src []float64) {
	m, s := stats.MeanStd(src)
	if s == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	for i, v := range src {
		dst[i] = (v - m) / s
	}
}

// ---------------------------------------------------------------------------
// Spectral Residual

// srExtend is the number of extrapolated points appended after the
// newest value before the transform. A point at the FFT boundary reads
// as a discontinuity (the transform is periodic) and scores high no
// matter what, so — as in Ren et al.'s reference implementation — the
// window is extended with an average-slope forecast and the newest
// *real* point, now srExtend samples away from the boundary, is the one
// scored.
const srExtend = 5

// StreamSR is the streaming adapter of the Spectral Residual detector:
// per variate, the last SRWindow−srExtend values plus srExtend
// extrapolated points are transformed in place, the saliency map of the
// window is computed, and the newest real point is scored by its
// relative elevation over the trailing saliency mean — the batch formula
// applied to a sliding window.
type StreamSR struct {
	streamBase
	w, avgFilter, salWin int
	ringLen              int // w − srExtend real points retained

	rings [][]float64 // [variate][slot]

	// scratch, reused per push
	cx                      []complex128
	logAmp, phase, avg, sal []float64
}

// NewStreamSR returns an uncalibrated streaming SR adapter for n
// variates; calibrate with CalibrateStream before serving.
func NewStreamSR(n int, cfg StreamConfig) (*StreamSR, error) {
	w := cfg.SRWindow
	if n < 1 {
		return nil, fmt.Errorf("baselines: SR adapter needs >= 1 variate, got %d", n)
	}
	if w < 16 || w&(w-1) != 0 {
		return nil, fmt.Errorf("baselines: SR window %d must be a power of two >= 16", w)
	}
	s := &StreamSR{
		streamBase: newStreamBase(KindSR, n, w-srExtend),
		w:          w,
		ringLen:    w - srExtend,
		avgFilter:  max(cfg.SRAvgFilter, 1),
		salWin:     max(cfg.SRSaliencyWindow, 1),
		rings:      make([][]float64, n),
		cx:         make([]complex128, w),
		logAmp:     make([]float64, w),
		phase:      make([]float64, w),
		avg:        make([]float64, w),
		sal:        make([]float64, w),
	}
	for v := range s.rings {
		s.rings[v] = make([]float64, s.ringLen)
	}
	return s, nil
}

// PushScores implements core.StreamBackend.
func (s *StreamSR) PushScores(f core.Frame) ([]float64, error) {
	if err := s.ingest(f); err != nil {
		return nil, err
	}
	slot := s.count % s.ringLen
	for v := 0; v < s.n; v++ {
		s.rings[v][slot] = f.Magnitudes[v]
	}
	s.advance(f.Time)
	if !s.Ready() {
		return nil, nil
	}
	head := s.count % s.ringLen // oldest retained slot
	for v := 0; v < s.n; v++ {
		ring := s.rings[v]
		for i := 0; i < s.ringLen; i++ {
			s.cx[i] = complex(ring[(head+i)%s.ringLen], 0)
		}
		s.scores[v] = s.scoreWindow()
	}
	return s.scores, nil
}

// scoreWindow computes the saliency map of the chronological window
// staged in s.cx[:ringLen], extends it with the average-slope forecast,
// and scores the newest real point. All buffers are scratch.
func (s *StreamSR) scoreWindow() float64 {
	last := s.ringLen - 1
	// Average-slope extrapolation repeated srExtend times, so the scored
	// point is not the transform boundary. As in the reference
	// implementation, the forecast is built from the points *before* the
	// newest one — an anomalous newest point must not predict its own
	// continuation, or it would read as trend and vanish from the
	// residual spectrum.
	const m = srExtend + 1 // forecast basis: cx[last-m .. last-1]
	vLast := real(s.cx[last-1])
	var sum float64
	for i := 0; i < m-1; i++ {
		sum += (vLast - real(s.cx[last-m+i])) / float64(m-1-i)
	}
	est := complex(real(s.cx[last-m+1])+sum, 0)
	for i := s.ringLen; i < s.w; i++ {
		s.cx[i] = est
	}
	fourier.FFTInPlace(s.cx)
	for i, c := range s.cx {
		amp := math.Hypot(real(c), imag(c))
		if amp < 1e-12 {
			amp = 1e-12
		}
		s.logAmp[i] = math.Log(amp)
		s.phase[i] = math.Atan2(imag(c), real(c))
	}
	movingAverageCenteredInto(s.avg, s.logAmp, s.avgFilter)
	for i := range s.cx {
		r := math.Exp(s.logAmp[i] - s.avg[i]) // residual amplitude
		s.cx[i] = complex(r*math.Cos(s.phase[i]), r*math.Sin(s.phase[i]))
	}
	fourier.IFFTInPlace(s.cx)
	for i, c := range s.cx {
		s.sal[i] = math.Hypot(real(c), imag(c))
	}
	// Trailing saliency mean ending at the newest real point (the batch
	// score's MovingMean at that index).
	lo := last + 1 - s.salWin
	if lo < 0 {
		lo = 0
	}
	var base float64
	for i := lo; i <= last; i++ {
		base += s.sal[i]
	}
	base /= float64(last + 1 - lo)
	if base < 1e-9 {
		base = 1e-9
	}
	sc := (s.sal[last] - base) / base
	if sc < 0 {
		sc = 0
	}
	return sc
}

// movingAverageCenteredInto is movingAverageCentered writing into dst.
func movingAverageCenteredInto(dst, x []float64, w int) {
	half := w / 2
	for i := range x {
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= len(x) {
			hi = len(x) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += x[j]
		}
		dst[i] = sum / float64(hi-lo+1)
	}
}

// Push implements core.StreamBackend.
func (s *StreamSR) Push(f core.Frame) ([]core.Alarm, error) {
	scores, err := s.PushScores(f)
	if err != nil || scores == nil {
		return nil, err
	}
	return alarmsAt(f.Time, scores, s.thr), nil
}

// MarshalArtifact serializes the calibrated adapter's hyperparameters
// and threshold — the registry-published form.
func (s *StreamSR) MarshalArtifact() ([]byte, error) {
	return json.Marshal(streamArtifact{
		Kind: KindSR, Version: streamArtifactVersion, N: s.n,
		Threshold: s.thr, Window: s.w, AvgFilter: s.avgFilter, SaliencyWindow: s.salWin,
	})
}

// OpenStreamSR reconstructs a serving adapter from a published artifact.
func OpenStreamSR(artifact []byte) (*StreamSR, error) {
	a, err := decodeStreamArtifact(KindSR, artifact)
	if err != nil {
		return nil, err
	}
	s, err := NewStreamSR(a.N, StreamConfig{
		SRWindow: a.Window, SRAvgFilter: a.AvgFilter, SRSaliencyWindow: a.SaliencyWindow,
	})
	if err != nil {
		return nil, err
	}
	s.thr = a.Threshold
	return s, nil
}

// SwapArtifact implements core.StreamBackend: a freshly calibrated
// artifact of matching geometry replaces the threshold and filter
// settings while the warm window is kept.
func (s *StreamSR) SwapArtifact(artifact []byte) error {
	a, err := decodeStreamArtifact(KindSR, artifact)
	if err != nil {
		return err
	}
	if a.N != s.n || a.Window != s.w {
		return fmt.Errorf("baselines: sr artifact is %d variates × window %d, adapter is %d × %d", a.N, a.Window, s.n, s.w)
	}
	s.avgFilter = max(a.AvgFilter, 1)
	s.salWin = max(a.SaliencyWindow, 1)
	s.thr = a.Threshold
	return nil
}

// SnapshotState implements core.StreamBackend. The geometry recorded is
// the ring of retained real points (the FFT window is ring + extension).
func (s *StreamSR) SnapshotState() ([]byte, error) {
	return marshalRingSnapshot(KindSR, s.n, s.ringLen, s.count, s.last, s.rings, nil)
}

// RestoreState implements core.StreamBackend.
func (s *StreamSR) RestoreState(blob []byte) error {
	st, err := decodeRingSnapshot(KindSR, blob, s.n, s.ringLen, false)
	if err != nil {
		return err
	}
	s.count, s.last = st.Count, st.Last
	for v := range s.rings {
		copy(s.rings[v], st.Rings[v])
	}
	return nil
}

// ---------------------------------------------------------------------------
// Template Matching

// StreamTM is the streaming adapter of the SciDetector-style template
// matcher: the score of the newest point is the best normalized
// cross-correlation of the trailing TemplateLen window against the fixed
// event-template library — bit-identical to the batch scores at every
// full window.
type StreamTM struct {
	streamBase
	tplLen    int
	templates [][]float64
	rings     [][]float64
	buf, zbuf []float64
}

// NewStreamTM returns an uncalibrated streaming template matcher.
func NewStreamTM(n int, cfg StreamConfig) (*StreamTM, error) {
	if n < 1 {
		return nil, fmt.Errorf("baselines: TM adapter needs >= 1 variate, got %d", n)
	}
	L := cfg.TMTemplateLen
	if L < 4 {
		return nil, fmt.Errorf("baselines: TM template length %d must be >= 4", L)
	}
	t := &StreamTM{
		streamBase: newStreamBase(KindTM, n, L),
		tplLen:     L,
		templates:  eventTemplates(L),
		rings:      make([][]float64, n),
		buf:        make([]float64, L),
		zbuf:       make([]float64, L),
	}
	for v := range t.rings {
		t.rings[v] = make([]float64, L)
	}
	return t, nil
}

// eventTemplates samples the catalogued event shapes at length L,
// z-scored — the same library TemplateMatching.Fit builds.
func eventTemplates(L int) [][]float64 {
	mk := func(f func(u float64) float64) []float64 {
		t := make([]float64, L)
		for i := range t {
			t[i] = f(float64(i) / float64(L-1))
		}
		return stats.ZScore(t)
	}
	return [][]float64{
		mk(func(u float64) float64 { return dataset.FlareShape(u*7 - 1) }),
		mk(func(u float64) float64 { return dataset.EclipseShape(u) }),
	}
}

// PushScores implements core.StreamBackend.
func (t *StreamTM) PushScores(f core.Frame) ([]float64, error) {
	if err := t.ingest(f); err != nil {
		return nil, err
	}
	slot := t.count % t.tplLen
	for v := 0; v < t.n; v++ {
		t.rings[v][slot] = f.Magnitudes[v]
	}
	t.advance(f.Time)
	if !t.Ready() {
		return nil, nil
	}
	head := t.count % t.tplLen
	for v := 0; v < t.n; v++ {
		ring := t.rings[v]
		for i := 0; i < t.tplLen; i++ {
			t.buf[i] = ring[(head+i)%t.tplLen]
		}
		zscoreInto(t.zbuf, t.buf)
		best := 0.0
		for _, tpl := range t.templates {
			if c := stats.Correlation(t.zbuf, tpl); c > best {
				best = c
			}
		}
		t.scores[v] = best
	}
	return t.scores, nil
}

// Push implements core.StreamBackend.
func (t *StreamTM) Push(f core.Frame) ([]core.Alarm, error) {
	scores, err := t.PushScores(f)
	if err != nil || scores == nil {
		return nil, err
	}
	return alarmsAt(f.Time, scores, t.thr), nil
}

// MarshalArtifact serializes the calibrated adapter, template library
// included (the artifact must be self-contained).
func (t *StreamTM) MarshalArtifact() ([]byte, error) {
	return json.Marshal(streamArtifact{
		Kind: KindTM, Version: streamArtifactVersion, N: t.n,
		Threshold: t.thr, TemplateLen: t.tplLen, Templates: t.templates,
	})
}

// OpenStreamTM reconstructs a serving adapter from a published artifact.
func OpenStreamTM(artifact []byte) (*StreamTM, error) {
	a, err := decodeStreamArtifact(KindTM, artifact)
	if err != nil {
		return nil, err
	}
	t, err := NewStreamTM(a.N, StreamConfig{TMTemplateLen: a.TemplateLen})
	if err != nil {
		return nil, err
	}
	if len(a.Templates) > 0 {
		for i, tpl := range a.Templates {
			if len(tpl) != a.TemplateLen {
				return nil, fmt.Errorf("baselines: tm artifact template %d has length %d, want %d", i, len(tpl), a.TemplateLen)
			}
		}
		t.templates = a.Templates
	}
	t.thr = a.Threshold
	return t, nil
}

// SwapArtifact implements core.StreamBackend.
func (t *StreamTM) SwapArtifact(artifact []byte) error {
	fresh, err := OpenStreamTM(artifact)
	if err != nil {
		return err
	}
	if fresh.n != t.n || fresh.tplLen != t.tplLen {
		return fmt.Errorf("baselines: tm artifact is %d variates × window %d, adapter is %d × %d", fresh.n, fresh.tplLen, t.n, t.tplLen)
	}
	t.templates = fresh.templates
	t.thr = fresh.thr
	return nil
}

// SnapshotState implements core.StreamBackend.
func (t *StreamTM) SnapshotState() ([]byte, error) {
	return marshalRingSnapshot(KindTM, t.n, t.tplLen, t.count, t.last, t.rings, nil)
}

// RestoreState implements core.StreamBackend.
func (t *StreamTM) RestoreState(blob []byte) error {
	st, err := decodeRingSnapshot(KindTM, blob, t.n, t.tplLen, false)
	if err != nil {
		return err
	}
	t.count, t.last = st.Count, st.Last
	for v := range t.rings {
		copy(t.rings[v], st.Rings[v])
	}
	return nil
}

// ---------------------------------------------------------------------------
// FluxEV

// StreamFluxEV is the streaming adapter of FluxEV's two-step fluctuation
// extraction: the EWMA forecast, the residual ring and the ring's maximum
// are carried as running state, so a push costs O(1) per variate —
// O(SuppressWindow) only when the residual it evicts was the maximum —
// and reproduces the batch extraction bit-for-bit from the second frame
// on.
type StreamFluxEV struct {
	streamBase
	alpha    float64
	suppress int
	ew       []float64   // per-variate EWMA of all points so far
	res      [][]float64 // per-variate ring of the last `suppress` residuals
	hi       []float64   // per-variate windowMax of the slots the next push reads
	cur      int         // ring slot the next push writes: count % suppress
}

// NewStreamFluxEV returns an uncalibrated streaming FluxEV adapter.
func NewStreamFluxEV(n int, cfg StreamConfig) (*StreamFluxEV, error) {
	if n < 1 {
		return nil, fmt.Errorf("baselines: FluxEV adapter needs >= 1 variate, got %d", n)
	}
	if cfg.FluxEVAlpha <= 0 || cfg.FluxEVAlpha > 1 {
		return nil, fmt.Errorf("baselines: FluxEV alpha %v outside (0, 1]", cfg.FluxEVAlpha)
	}
	w := max(cfg.FluxEVSuppress, 1)
	d := &StreamFluxEV{
		streamBase: newStreamBase(KindFluxEV, n, 2),
		alpha:      cfg.FluxEVAlpha,
		suppress:   w,
		ew:         make([]float64, n),
		res:        make([][]float64, n),
		hi:         make([]float64, n),
	}
	for v := range d.res {
		d.res[v] = make([]float64, w)
	}
	return d, nil
}

// PushScores implements core.StreamBackend.
func (d *StreamFluxEV) PushScores(f core.Frame) ([]float64, error) {
	if err := d.ingest(f); err != nil {
		return nil, err
	}
	t := d.count // 0-based index of this frame
	if t == 0 {
		for v := 0; v < d.n; v++ {
			d.ew[v] = f.Magnitudes[v]
			d.res[v][0] = 0 // the batch path's implicit res[0]
			d.hi[v] = 0
		}
		d.cur = 1 % d.suppress
		d.advance(f.Time)
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
	d.advance(f.Time)
	return d.scores, nil
}

// Push implements core.StreamBackend.
func (d *StreamFluxEV) Push(f core.Frame) ([]core.Alarm, error) {
	scores, err := d.PushScores(f)
	if err != nil || scores == nil {
		return nil, err
	}
	return alarmsAt(f.Time, scores, d.thr), nil
}

// MarshalArtifact serializes the calibrated adapter.
func (d *StreamFluxEV) MarshalArtifact() ([]byte, error) {
	return json.Marshal(streamArtifact{
		Kind: KindFluxEV, Version: streamArtifactVersion, N: d.n,
		Threshold: d.thr, Alpha: d.alpha, Suppress: d.suppress,
	})
}

// OpenStreamFluxEV reconstructs a serving adapter from a published
// artifact.
func OpenStreamFluxEV(artifact []byte) (*StreamFluxEV, error) {
	a, err := decodeStreamArtifact(KindFluxEV, artifact)
	if err != nil {
		return nil, err
	}
	d, err := NewStreamFluxEV(a.N, StreamConfig{FluxEVAlpha: a.Alpha, FluxEVSuppress: a.Suppress})
	if err != nil {
		return nil, err
	}
	d.thr = a.Threshold
	return d, nil
}

// SwapArtifact implements core.StreamBackend. The artifact is opened the
// way OpenStreamFluxEV opens it, so a swap compares the window the
// artifact would serve with, not the number it spells.
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
	return marshalRingSnapshot(KindFluxEV, d.n, d.suppress, d.count, d.last, d.res, d.ew)
}

// RestoreState implements core.StreamBackend.
func (d *StreamFluxEV) RestoreState(blob []byte) error {
	st, err := decodeRingSnapshot(KindFluxEV, blob, d.n, d.suppress, true)
	if err != nil {
		return err
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

// ---------------------------------------------------------------------------
// shared snapshot plumbing + calibration

const streamSnapshotVersion = 1

func marshalRingSnapshot(kind string, n, w, count int, last float64, rings [][]float64, ew []float64) ([]byte, error) {
	st := streamSnapshot{
		Kind: kind, Version: streamSnapshotVersion, N: n, Window: w,
		Count: count, Last: last,
		Rings: make([][]float64, len(rings)),
	}
	for v := range rings {
		st.Rings[v] = append([]float64(nil), rings[v]...)
	}
	if ew != nil {
		st.EW = append([]float64(nil), ew...)
	}
	return json.Marshal(st)
}

// decodeRingSnapshot parses and fully validates a snapshot against the
// adapter's geometry before the caller commits any of it.
func decodeRingSnapshot(kind string, blob []byte, n, w int, wantEW bool) (*streamSnapshot, error) {
	var st streamSnapshot
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("baselines: parse %s state: %w", kind, err)
	}
	if st.Kind != kind {
		return nil, fmt.Errorf("baselines: state kind %q, want %q", st.Kind, kind)
	}
	if st.Version != streamSnapshotVersion {
		return nil, fmt.Errorf("baselines: unsupported %s state version %d", kind, st.Version)
	}
	if st.N != n || st.Window != w {
		return nil, fmt.Errorf("baselines: state is %d variates × window %d, adapter is %d × %d", st.N, st.Window, n, w)
	}
	if st.Count < 0 {
		return nil, fmt.Errorf("baselines: state frame count %d negative", st.Count)
	}
	if len(st.Rings) != n {
		return nil, fmt.Errorf("baselines: state has %d rings, want %d", len(st.Rings), n)
	}
	for v := range st.Rings {
		if len(st.Rings[v]) != w {
			return nil, fmt.Errorf("baselines: state ring %d has %d slots, want %d", v, len(st.Rings[v]), w)
		}
	}
	if wantEW && len(st.EW) != n {
		return nil, fmt.Errorf("baselines: state has %d forecast values, want %d", len(st.EW), n)
	}
	return &st, nil
}

// CalibratableStream is a streaming adapter whose static threshold can be
// fitted after construction and which can publish itself as an artifact.
type CalibratableStream interface {
	core.StreamBackend
	SetThreshold(thr float64)
	MarshalArtifact() ([]byte, error)
}

// CalibrateStream replays the training series through the adapter and
// fits its static alarm threshold with POT over the pooled post-warm
// scores — the identical protocol the batch harness applies (§IV-B).
// The adapter is left warm on the training feed; serve with a fresh
// instance opened from the calibrated artifact.
func CalibrateStream(b CalibratableStream, train *dataset.Series, level, q float64) error {
	if train.N() != b.Variates() {
		return fmt.Errorf("baselines: calibration series has %d variates, adapter %d", train.N(), b.Variates())
	}
	scores, err := StreamScores(b, train)
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
		return fmt.Errorf("baselines: series too short to calibrate %s (no post-warm scores)", b.Kind())
	}
	th, err := evt.POT(pool, level, q)
	if err != nil && th.N == 0 {
		return fmt.Errorf("baselines: calibrate %s: %w", b.Kind(), err)
	}
	b.SetThreshold(th.Z) // the empirical-quantile fallback is still usable
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
