package backend

import (
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
)

// The built-in kinds. AERO is the paper's two-stage model; sr/tm/fluxev
// are the cheap univariate baselines whose per-point cost is O(window),
// the only ones that can keep up at survey rates — the deep baselines
// (Donut, OmniAnomaly, TranAD, ...) re-run a full network forward per
// window and remain batch-only in the experiment harness.
func init() {
	Register(Spec{
		Kind:     core.KindAERO,
		Describe: "two-stage AERO model (temporal Transformer + window-wise graph)",
		Train: func(train *dataset.Series, opts Options) ([]byte, error) {
			m, err := core.New(opts.AERO, train.N())
			if err != nil {
				return nil, err
			}
			if err := m.Fit(train); err != nil {
				return nil, err
			}
			return m.MarshalBytes()
		},
		Open: func(artifact []byte) (core.StreamBackend, error) {
			m, err := core.LoadBytes(artifact)
			if err != nil {
				return nil, err
			}
			return core.NewStreamDetector(m)
		},
	})
	Register(Spec{
		Kind:     baselines.KindSR,
		Describe: "spectral residual saliency over a sliding power-of-two window",
		Train: trainStream(func(n int, cfg baselines.StreamConfig) (baselines.CalibratableStream, error) {
			return baselines.NewStreamSR(n, cfg)
		}),
		Open: func(a []byte) (core.StreamBackend, error) { return baselines.OpenStreamSR(a) },
	})
	Register(Spec{
		Kind:     baselines.KindTM,
		Describe: "template matching against the catalogued event library",
		Train: trainStream(func(n int, cfg baselines.StreamConfig) (baselines.CalibratableStream, error) {
			return baselines.NewStreamTM(n, cfg)
		}),
		Open: func(a []byte) (core.StreamBackend, error) { return baselines.OpenStreamTM(a) },
	})
	Register(Spec{
		Kind:     baselines.KindFluxEV,
		Describe: "FluxEV two-step fluctuation extraction over an EWMA forecast",
		Train: trainStream(func(n int, cfg baselines.StreamConfig) (baselines.CalibratableStream, error) {
			return baselines.NewStreamFluxEV(n, cfg)
		}),
		Open: func(a []byte) (core.StreamBackend, error) { return baselines.OpenStreamFluxEV(a) },
	})
}

// trainStream builds the shared adapter training flow: construct, replay
// the training series to calibrate the POT threshold, serialize.
func trainStream(mk func(n int, cfg baselines.StreamConfig) (baselines.CalibratableStream, error)) func(*dataset.Series, Options) ([]byte, error) {
	return func(train *dataset.Series, opts Options) ([]byte, error) {
		b, err := mk(train.N(), opts.Stream)
		if err != nil {
			return nil, err
		}
		if err := baselines.CalibrateStream(b, train, opts.Stream.Level, opts.Stream.Q); err != nil {
			return nil, err
		}
		return b.MarshalArtifact()
	}
}
