package core

import (
	"math"

	"aero/internal/ag"
	"aero/internal/nn"
	"aero/internal/stats"
	"aero/internal/tensor"
)

// noiseModule is the stage-2 concurrent-noise reconstruction module
// (paper §III-D): a single graph convolution over the window-wise learned
// graph,
//
//	Ŷ2 = σ((D̃⁻¹ Ã Y_t) W_θ + b_θ)                    (Eq. 14)
//
// where Ã removes self-loops so a variate can only be reconstructed from
// *other* variates' behaviour — concurrent noise (shared across stars) is
// reconstructable, a genuine single-star event is not.
//
// The activation is tanh rather than an unspecified σ: the module's target
// is the signed stage-1 residual Y − Ŷ1 ∈ (−1, 1), which a sigmoid could
// not reach.
type noiseModule struct {
	nn.Linear // W_θ (ω×ω) and b_θ (1×ω)
}

func newNoiseModule(omega int, seed int64) *noiseModule {
	// Small symmetric init keeps early Ŷ2 near zero so stage 2 starts from
	// "no correction".
	rngW := tensor.New(omega, omega)
	s := 1 / math.Sqrt(float64(omega))
	r := newRand(seed)
	for i := range rngW.Data {
		rngW.Data[i] = (r.Float64()*2 - 1) * s * 0.1
	}
	return &noiseModule{nn.Linear{
		W: ag.NewParam("gcn.W", rngW),
		B: ag.NewParam("gcn.b", tensor.New(1, omega)),
	}}
}

// forward applies the graph convolution to the pre-propagated features
// H = D̃⁻¹ÃY (N×ω) on a tape, returning Ŷ2 (N×ω). Training runs it;
// noiseScores computes the same rows with Linear.ApplyRow and tanh.
func (nm *noiseModule) forward(t *ag.Tape, h *tensor.Dense) *ag.Node {
	return t.Tanh(nm.Linear.Forward(t, t.Const(h)))
}

func (nm *noiseModule) params() []*ag.Param { return nm.Params() }

// windowGraph computes the window-wise learned graph structure (Eq. 12–13):
// the adjacency A_t whose entries are the pairwise cosine similarities of
// the stage-1 error windows E_t ∈ R^{N×ω}. Similarities are clamped to
// [0, 1]: anti-correlated errors carry no evidence of *concurrent* noise.
func windowGraph(e *tensor.Dense) *tensor.Dense {
	return windowGraphInto(e, tensor.New(e.Rows, e.Rows))
}

// windowGraphInto computes the window-wise graph into the caller-supplied
// N×N buffer (every cell is overwritten) and returns it.
func windowGraphInto(e, a *tensor.Dense) *tensor.Dense {
	n := e.Rows
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			sim := stats.CosineSimilarity(e.Row(i), e.Row(j))
			if sim < 0 {
				sim = 0
			}
			a.Set(i, j, sim)
			a.Set(j, i, sim)
		}
	}
	return a
}

// completeGraph returns the all-ones adjacency used by the static-graph
// ablation (Table IV 2.iii).
func completeGraph(n int) *tensor.Dense {
	a := tensor.New(n, n)
	a.Fill(1)
	return a
}

// dynamicGraphState carries the EWMA-evolved adjacency used by the
// dynamic-graph ablation (Table IV 2.iv). It stands in for ESG's evolving
// graph layer: the graph at window t is a temporally smoothed version of
// the similarity graphs, encoding the "predictable evolution" assumption
// that the paper argues is wrong for concurrent noise.
type dynamicGraphState struct {
	a     *tensor.Dense
	decay float64
}

// graphDecay is the evolving graph's EWMA weight on its past.
const graphDecay = 0.9

func newDynamicGraphState(n int) *dynamicGraphState {
	return &dynamicGraphState{a: completeGraph(n), decay: graphDecay}
}

// nextInto evolves the state with the current window similarities and
// writes the smoothed adjacency into dst, which may alias sim (sim is fully
// consumed before dst is written).
func (d *dynamicGraphState) nextInto(sim, dst *tensor.Dense) *tensor.Dense {
	for i := range d.a.Data {
		d.a.Data[i] = d.decay*d.a.Data[i] + (1-d.decay)*sim.Data[i]
	}
	dst.CopyFrom(d.a)
	return dst
}

// propagateInto computes H = D̃⁻¹ Ã Y with self-loops removed (Ã = A − I)
// and degrees clamped away from zero into the caller-supplied N×ω buffer h.
// Rows whose total similarity to other variates is ~0 (isolated variates,
// e.g. a lone true anomaly) produce a zero feature row: nothing can be
// borrowed from neighbours, which is exactly the mechanism that keeps true
// anomalies badly reconstructed.
func propagateInto(a, y, h *tensor.Dense) *tensor.Dense {
	n := a.Rows
	h.Zero()
	for i := 0; i < n; i++ {
		var deg float64
		for j := 0; j < n; j++ {
			if j != i {
				deg += a.At(i, j)
			}
		}
		if deg < 1e-8 {
			continue // isolated: leave zero row
		}
		dst := h.Row(i)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			w := a.At(i, j) / deg
			if w == 0 {
				continue
			}
			src := y.Row(j)
			for k, v := range src {
				dst[k] += w * v
			}
		}
	}
	return h
}
