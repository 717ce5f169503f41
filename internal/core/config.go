// Package core implements AERO, the two-stage anomaly detection framework
// of "From Chaos to Clarity: Time Series Anomaly Detection in Astronomical
// Observations" (Hao et al., ICDE 2024):
//
//   - a temporal reconstruction module — a Transformer encoder–decoder
//     applied independently to each variate with an interval-aware time
//     embedding (paper Eq. 1–11), which learns normal per-star behaviour and
//     surfaces anomaly candidates as reconstruction errors; and
//   - a concurrent-noise reconstruction module — a graph convolution whose
//     adjacency matrix is re-derived for every sliding window from the
//     stage-1 errors (window-wise graph structure learning, Eq. 12–14),
//     which reconstructs errors shared across stars (clouds, dawn, drift)
//     so that only genuinely single-star events keep high anomaly scores.
//
// Training follows the paper's Algorithm 1 (two sequential stages with
// early stopping); online detection follows Algorithm 2 with POT
// thresholding (Eq. 17–18).
package core

import "fmt"

// Variant selects the model ablation used by Table IV. VariantFull is the
// complete AERO model.
type Variant int

const (
	// VariantFull is the complete two-stage AERO model.
	VariantFull Variant = iota
	// VariantNoTemporal removes the temporal reconstruction module
	// (ablation 1.i): the noise module reconstructs the raw windows.
	VariantNoTemporal
	// VariantMultivariateInput feeds the temporal module the full
	// multivariate window instead of per-variate series (ablation 1.ii).
	VariantMultivariateInput
	// VariantNoShortWindow makes the decoder reconstruct the entire long
	// window (ω = W, ablation 1.iii).
	VariantNoShortWindow
	// VariantNoNoise removes the concurrent-noise module (ablation 2.i).
	VariantNoNoise
	// VariantNoNoiseMultivariate removes the noise module and uses
	// multivariate input (ablation 2.ii).
	VariantNoNoiseMultivariate
	// VariantStaticGraph replaces window-wise graph learning with a static
	// complete graph (ablation 2.iii).
	VariantStaticGraph
	// VariantDynamicGraph replaces window-wise graph learning with a
	// temporally-evolved (EWMA-smoothed, ESG-style) dynamic graph
	// (ablation 2.iv).
	VariantDynamicGraph
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "AERO"
	case VariantNoTemporal:
		return "w/o temporal"
	case VariantMultivariateInput:
		return "w/o univariate input"
	case VariantNoShortWindow:
		return "w/o short window"
	case VariantNoNoise:
		return "w/o concurrent noise"
	case VariantNoNoiseMultivariate:
		return "w/o concurrent noise & univariate input"
	case VariantStaticGraph:
		return "w/o window-wise graph (static)"
	case VariantDynamicGraph:
		return "w/o window-wise graph (dynamic)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config holds AERO hyperparameters. The zero value is not usable; start
// from DefaultConfig (paper-faithful dimensions) or SmallConfig (scaled for
// CPU tests/benches) and override as needed.
type Config struct {
	// LongWindow is W, the context window length (paper default 200).
	LongWindow int
	// ShortWindow is ω, the reconstructed suffix length (paper default 60).
	ShortWindow int
	// ModelDim is the Transformer hidden width d_m.
	ModelDim int
	// Heads is the number of attention heads (paper default 4).
	Heads int
	// EncoderLayers is the number of encoder layers (paper default 1).
	EncoderLayers int
	// FFNHidden is the width of position-wise feed-forward blocks.
	FFNHidden int

	// LR is the Adam learning rate (paper default 0.001).
	LR float64
	// MaxEpochs bounds each training stage (paper default 100).
	MaxEpochs int
	// Patience is the early-stopping patience in epochs (paper default 5).
	Patience int
	// TrainStride subsamples training windows; 1 uses every window as in
	// the paper, larger values trade fidelity for CPU time.
	TrainStride int
	// EvalStride controls online scoring: every EvalStride-th window is
	// evaluated and its trailing EvalStride short-window errors become the
	// per-timestamp scores. 1 reproduces Algorithm 2 exactly.
	EvalStride int

	// POTLevel and POTQ parameterize the threshold selector
	// (paper: 0.99 and 1e-3).
	POTLevel float64
	POTQ     float64

	// Variant selects a Table IV ablation; VariantFull is standard AERO.
	Variant Variant

	// AttentionBand, when > 0, restricts encoder/decoder self-attention to
	// a local band of this half-width — the O(W·band) "more scalable
	// Transformer variant" the paper's conclusion proposes as future work.
	// 0 keeps the paper's full O(W²) attention.
	AttentionBand int

	// Workers bounds the data-parallel goroutines used during training and
	// scoring; 0 means GOMAXPROCS.
	Workers int
	// Seed makes weight initialization and data order deterministic.
	Seed int64
	// Logf, when non-nil, receives training progress lines.
	Logf func(format string, args ...any)
}

// DefaultConfig returns the paper's hyperparameters (§IV-B). Training at
// these sizes on pure Go is slow; see SmallConfig for tests.
func DefaultConfig() Config {
	return Config{
		LongWindow:    200,
		ShortWindow:   60,
		ModelDim:      64,
		Heads:         4,
		EncoderLayers: 1,
		FFNHidden:     128,
		LR:            0.001,
		MaxEpochs:     100,
		Patience:      5,
		TrainStride:   10,
		EvalStride:    10,
		POTLevel:      0.99,
		POTQ:          0.001,
		Seed:          1,
	}
}

// SmallConfig returns a CPU-friendly configuration used by tests and
// benchmark harness smoke runs. The architecture is identical; only sizes
// and epochs shrink.
func SmallConfig() Config {
	c := DefaultConfig()
	c.LongWindow = 64
	c.ShortWindow = 24
	c.ModelDim = 16
	c.Heads = 2
	c.FFNHidden = 32
	c.MaxEpochs = 20
	c.Patience = 4
	c.TrainStride = 12
	c.EvalStride = 12
	return c
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.LongWindow < 2:
		return fmt.Errorf("core: LongWindow %d < 2", c.LongWindow)
	case c.ShortWindow < 1 || c.ShortWindow > c.LongWindow:
		return fmt.Errorf("core: ShortWindow %d outside [1, %d]", c.ShortWindow, c.LongWindow)
	case c.ModelDim < 1:
		return fmt.Errorf("core: ModelDim %d < 1", c.ModelDim)
	case c.Heads < 1 || c.ModelDim%c.Heads != 0:
		return fmt.Errorf("core: Heads %d must divide ModelDim %d", c.Heads, c.ModelDim)
	case c.EncoderLayers < 1:
		return fmt.Errorf("core: EncoderLayers %d < 1", c.EncoderLayers)
	case c.FFNHidden < 0: // 0 means 2×ModelDim
		return fmt.Errorf("core: FFNHidden %d < 0", c.FFNHidden)
	// The float checks are written so that NaN fails them.
	case !(c.LR > 0):
		return fmt.Errorf("core: LR %v not > 0", c.LR)
	case c.MaxEpochs < 1:
		return fmt.Errorf("core: MaxEpochs %d < 1", c.MaxEpochs)
	case !(c.POTLevel > 0 && c.POTLevel < 1):
		return fmt.Errorf("core: POTLevel %v outside (0,1)", c.POTLevel)
	case !(c.POTQ > 0 && c.POTQ < 1):
		return fmt.Errorf("core: POTQ %v outside (0,1)", c.POTQ)
	}
	return nil
}

// normalized fills in derived/defaulted fields.
func (c Config) normalized() Config {
	if c.FFNHidden == 0 {
		c.FFNHidden = 2 * c.ModelDim
	}
	if c.TrainStride < 1 {
		c.TrainStride = 1
	}
	if c.EvalStride < 1 {
		c.EvalStride = 1
	}
	if c.Patience < 1 {
		c.Patience = 1
	}
	if c.Variant == VariantNoShortWindow {
		c.ShortWindow = c.LongWindow
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// usesTemporal reports whether the variant trains stage 1.
func (c Config) usesTemporal() bool { return c.Variant != VariantNoTemporal }

// usesNoise reports whether the variant trains stage 2.
func (c Config) usesNoise() bool {
	return c.Variant != VariantNoNoise && c.Variant != VariantNoNoiseMultivariate
}

// multivariateInput reports whether the temporal module sees all variates
// jointly.
func (c Config) multivariateInput() bool {
	return c.Variant == VariantMultivariateInput || c.Variant == VariantNoNoiseMultivariate
}
