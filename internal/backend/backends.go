package backend

import (
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
)

// The built-in kinds. AERO is the paper's two-stage model; fluxev is the
// cheap univariate baseline whose per-point cost is O(1), the screen that
// keeps up at survey rates. The other baselines stay batch-only in the
// experiment harness: the deep ones (Donut, OmniAnomaly, TranAD, ...)
// re-run a full network forward per window, and SR and TM recalled no
// more anomalies than FluxEV at tens to hundreds of times its push cost.
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
		Kind:     baselines.KindFluxEV,
		Describe: "FluxEV two-step fluctuation extraction over an EWMA forecast",
		Train: func(train *dataset.Series, opts Options) ([]byte, error) {
			d, err := baselines.NewStreamFluxEV(train.N(), opts.Stream)
			if err != nil {
				return nil, err
			}
			if err := baselines.CalibrateStream(d, train, opts.Stream.Level, opts.Stream.Q); err != nil {
				return nil, err
			}
			return d.MarshalArtifact()
		},
		Open: func(a []byte) (core.StreamBackend, error) { return baselines.OpenStreamFluxEV(a) },
	})
}
