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

// Forward produces the L×d_m embedding for absolute positions pos and
// intervals dt (both length L).
func (te *TimeEmbedding) Forward(t *ag.Tape, pos, dt []float64) *ag.Node {
	L := len(pos)
	phase := te.phase(t, pos)
	// Learnable part: dtCol (L×1) · α (1×d_m).
	dtCol := t.Buffer(L, 1)
	copy(dtCol.Data, dt)
	theta := t.Add(phase, t.MatMul(t.Const(dtCol), t.Param(te.Alpha)))
	return t.Add(t.Sin(theta), t.Cos(theta))
}

// sinCos is Forward without a tape, keeping the two halves apart: it writes
// sin(θ) and cos(θ) (L×d_m each) for θ[l][j] = f_j·pos_l + dt_l·α_j, the
// same per-cell arithmetic as Forward's Add/MatMul/Sin/Cos chain. The
// streaming detector keeps the halves because a window-local position shift
// of −1 rotates every retained θ by exactly −f_j, so (sinθ, cosθ) advance by
// the angle-difference identities without re-evaluating any trigonometry.
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

// phase returns the constant matrix phase[l][j] = f_j·pos_l as a tape node,
// served from the per-shape cache when the positions are contiguous (the
// only pattern the model emits) and rebuilt per pass otherwise. The cached
// values are the same products the per-pass fill computed, so hoisting the
// matrix is bit-identical.
func (te *TimeEmbedding) phase(t *ag.Tape, pos []float64) *ag.Node {
	if cached := te.cachedPhase(pos); cached != nil {
		return t.Const(cached)
	}
	phase := t.Buffer(len(pos), te.dm)
	te.fillPhase(phase, pos)
	return t.Const(phase)
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

// Params implements nn.Module.
func (te *TimeEmbedding) Params() []*ag.Param { return []*ag.Param{te.Alpha} }
