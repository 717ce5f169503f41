package core

import (
	"math"
	"testing"

	"aero/internal/ag"
	"aero/internal/tensor"
)

// The tape chain training recorded per star before the shared embedding,
// kept as the oracle of ag.Tape.TimeEmbed and of sinCos.

// Forward produces the L×d_m embedding for absolute positions pos and
// intervals dt (both length L) as the chain Add(Sin(θ), Cos(θ)) over
// θ = Add(phase, MatMul(dtCol, α)).
func (te *TimeEmbedding) Forward(t *ag.Tape, pos, dt []float64) *ag.Node {
	phase := te.phase(t, pos)
	// Learnable part: dtCol (L×1) · α (1×d_m).
	dtCol := tensor.New(len(pos), 1)
	copy(dtCol.Data, dt)
	theta := t.Add(phase, t.MatMul(t.Const(dtCol), t.Param(te.Alpha)))
	return t.Add(t.Sin(theta), t.Cos(theta))
}

// phase returns the constant matrix phase[l][j] = f_j·pos_l as a tape node,
// served from the per-shape cache when the positions are contiguous and
// filled afresh otherwise.
func (te *TimeEmbedding) phase(t *ag.Tape, pos []float64) *ag.Node {
	if cached := te.cachedPhase(pos); cached != nil {
		return t.Const(cached)
	}
	phase := tensor.New(len(pos), te.dm)
	te.fillPhase(phase, pos)
	return t.Const(phase)
}

// forward is forwardEmbedded on an embedding of its own: one window's
// stage-1 tape forward, the code training runs, in the shape the row-forward
// oracle calls it.
func (m *temporalModule) forward(t *ag.Tape, long, short *tensor.Dense, wt windowTimes) *ag.Node {
	e := m.newStepEmbedding(len(wt.posL), len(wt.posS))
	m.embed(e, wt)
	return m.forwardEmbedded(t, long, short, e)
}

// TestTimeEmbedRecordMatchesChain holds the TimeEmbed record to the chain it
// replaced, on both kernel paths: the value, α's gradient and the gradient of
// an input the embedding is added to are the same bits. The upstream
// gradient G = w ⊙ ∂loss reaches the embedding through Add(x, TE) and a
// weighted sum with weights w that include ±0, so G holds −0 cells (the
// chain's zeroed gradient buffers turn them into +0 before Sin's and Cos's
// steps). Δt runs regular, jittered, gapped and 0; α runs positive and
// negative.
func TestTimeEmbedRecordMatchesChain(t *testing.T) {
	eachKernelPath(t, testTimeEmbedRecordMatchesChain)
}

func testTimeEmbedRecordMatchesChain(t *testing.T) {
	const dm, l = 12, 9
	rng := newRand(71)
	pos := make([]float64, l)
	for i := range pos {
		pos[i] = float64(i)
	}
	dts := map[string][]float64{
		"regular":  {1, 1, 1, 1, 1, 1, 1, 1, 1},
		"jittered": {1, 0.5, 1.7, 0.8, 1.3, 1, 0.5, 1.7, 0.8},
		"gapped":   {1, 1, 0.5, 40, 1, 1.7, 1, 12, 1},
		"zero":     {1, 0, 0.5, 0, 0, 1, 0, 2, 0},
	}
	alphas := map[string]func(j int) float64{
		"positive": func(j int) float64 { return 0.1 + 0.03*float64(j) },
		"negative": func(j int) float64 { return -0.2 + 0.05*float64(j) },
	}
	x := tensor.Randn(l, dm, 1, rng)
	w := tensor.Randn(l, dm, 1, rng)
	for i := range w.Data {
		switch i % 5 {
		case 0:
			w.Data[i] = math.Copysign(0, -1)
		case 3:
			w.Data[i] = 0
		}
	}
	for dtName, dt := range dts {
		for alphaName, alpha := range alphas {
			t.Run(dtName+"/"+alphaName, func(t *testing.T) {
				te := NewTimeEmbedding(dm)
				for j := range te.Alpha.Value.Data {
					te.Alpha.Value.Data[j] = alpha(j)
				}
				run := func(embed func(tp *ag.Tape) *ag.Node) (value, gAlpha, gx *tensor.Dense) {
					tp := ag.NewTape()
					xn := tp.Const(x)
					e := embed(tp)
					loss := tp.SumAll(tp.Mul(tp.Add(xn, e), tp.Const(w)))
					tp.Backward(loss)
					value, gAlpha, gx = e.Value.Clone(), te.Alpha.Grad.Clone(), xn.Grad.Clone()
					te.Alpha.ZeroGrad()
					return value, gAlpha, gx
				}
				wantV, wantA, wantX := run(func(tp *ag.Tape) *ag.Node { return te.Forward(tp, pos, dt) })
				e := newWindowEmbedding(l, dm)
				te.fill(&e, pos, dt)
				gotV, gotA, gotX := run(func(tp *ag.Tape) *ag.Node { return te.record(tp, &e) })
				sameBits(t, "value", gotV, wantV)
				sameBits(t, "α gradient", gotA, wantA)
				sameBits(t, "input gradient", gotX, wantX)
			})
		}
	}
}
