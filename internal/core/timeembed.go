package core

import (
	"math"
	"sync"

	"aero/internal/ag"
	"aero/internal/tensor"
)

// TimeEmbedding is the interval-aware positional encoding of paper Eq. (1):
//
//	TE_t^j = sin(f_j·pos_t + α_j·Δt) + cos(f_j·pos_t + α_j·Δt)
//
// where f_j = (1/10000)^{j/d_m} are fixed angular frequencies, pos_t is the
// absolute position, Δt the (normalized) interval to the previous
// observation, and α_j are learnable phase shifts. Summing the sin and cos
// terms follows the TranAD practice the paper adopts; the learnable α makes
// the embedding sensitive to the irregular cadences of astronomical
// observations.
type TimeEmbedding struct {
	// Alpha holds the learnable per-dimension phase shifts (1×d_m).
	Alpha *ag.Param
	freq  []float64
	dm    int

	// phases caches the constant matrices phase[l][j] = f_j·pos_l per
	// (length, first position). Positions in this codebase are always
	// window-local and contiguous (model.times emits 0..W−1 for the long
	// window and w−ω..w−1 for its suffix), so the matrix is a pure
	// function of the window shape and can be computed once and shared by
	// every forward pass, the tape's and the row kernels' alike.
	// Lock-free reads, like nn's band-mask cache.
	phases sync.Map // phaseKey -> *tensor.Dense
}

// phaseKey identifies one cached constant phase matrix.
type phaseKey struct {
	l  int
	p0 float64
}

// NewTimeEmbedding returns a time embedding of width dm with α initialised
// to small values.
func NewTimeEmbedding(dm int) *TimeEmbedding {
	a := tensor.New(1, dm)
	for j := range a.Data {
		a.Data[j] = 0.1
	}
	freq := make([]float64, dm)
	for j := 0; j < dm; j++ {
		freq[j] = math.Pow(1.0/10000, float64(j)/float64(dm))
	}
	return &TimeEmbedding{Alpha: ag.NewParam("te.alpha", a), freq: freq, dm: dm}
}

// sinCos writes sin(θ) and cos(θ) (L×d_m each) for θ[l][j] = f_j·pos_l +
// dt_l·α_j, the same per-cell arithmetic as the tape chain Add(phase,
// MatMul(dt, α)) → Sin, Cos (TimeEmbedding.Forward in the tests). Training
// and scoring both embed time through it; the streaming detector's benign
// path writes the entering row's cells with the same arithmetic.
func (te *TimeEmbedding) sinCos(sin, cos *tensor.Dense, pos, dt []float64) {
	phase := te.cachedPhase(pos)
	if phase == nil {
		// Scattered positions have no shared matrix: stage the products in
		// sin, whose cells are each read before they are overwritten.
		te.fillPhase(sin, pos)
		phase = sin
	}
	alpha := te.Alpha.Value.Data
	for l := range pos {
		sr, cr, ph := sin.Row(l), cos.Row(l), phase.Row(l)
		d := dt[l]
		for j := range sr {
			th := ph[j] + d*alpha[j]
			sr[j] = math.Sin(th)
			cr[j] = math.Cos(th)
		}
	}
}

// cachedPhase returns the shared constant phase matrix for a contiguous
// position vector, or nil when the positions are non-contiguous (no model
// path emits that shape; callers fill their own). The matrix is shared
// across passes — callers must treat it as read-only.
func (te *TimeEmbedding) cachedPhase(pos []float64) *tensor.Dense {
	L := len(pos)
	p0 := pos[0]
	for l := 1; l < L; l++ {
		if pos[l] != p0+float64(l) {
			return nil
		}
	}
	key := phaseKey{l: L, p0: p0}
	if cached, ok := te.phases.Load(key); ok {
		return cached.(*tensor.Dense)
	}
	phase := tensor.New(L, te.dm)
	te.fillPhase(phase, pos)
	cached, _ := te.phases.LoadOrStore(key, phase)
	return cached.(*tensor.Dense)
}

func (te *TimeEmbedding) fillPhase(phase *tensor.Dense, pos []float64) {
	for l := range pos {
		row := phase.Row(l)
		for j := 0; j < te.dm; j++ {
			row[j] = te.freq[j] * pos[l]
		}
	}
}

// windowEmbedding is one window's time embedding as the training tape
// records it: sin θ and cos θ (L×d_m), their sum TE and the L×1 column of
// Δt. It depends on the window alone, so stage 1 fills it once per step and
// every star's tape reads it; ag.Tape.TimeEmbed never writes it.
type windowEmbedding struct {
	sin, cos, sum, dt *tensor.Dense
}

func newWindowEmbedding(l, dm int) windowEmbedding {
	return windowEmbedding{
		sin: tensor.New(l, dm), cos: tensor.New(l, dm), sum: tensor.New(l, dm),
		dt: tensor.New(l, 1),
	}
}

// fill computes e for positions pos and intervals dt: θ's halves through
// sinCos, then TE = sin θ + cos θ cell by cell, the chain's final Add.
func (te *TimeEmbedding) fill(e *windowEmbedding, pos, dt []float64) {
	te.sinCos(e.sin, e.cos, pos, dt)
	sum := e.sum.Data
	sin, cos := e.sin.Data[:len(sum)], e.cos.Data[:len(sum)]
	for i := range sum {
		sum[i] = sin[i] + cos[i]
	}
	copy(e.dt.Data, dt)
}

// record puts e on tape t as one TimeEmbed op over a fresh α parameter node.
func (te *TimeEmbedding) record(t *ag.Tape, e *windowEmbedding) *ag.Node {
	return t.TimeEmbed(t.Const(e.dt), t.Param(te.Alpha), e.sin, e.cos, e.sum)
}

// Params implements nn.Module.
func (te *TimeEmbedding) Params() []*ag.Param { return []*ag.Param{te.Alpha} }
