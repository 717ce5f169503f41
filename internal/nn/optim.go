package nn

import (
	"math"

	"aero/internal/ag"
	"aero/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) with optional
// gradient clipping. Moment buffers are index-aligned slices bound to the
// parameter list on the first Step, and the whole update — clipping,
// moment update, bias correction, parameter write and gradient zeroing —
// is fused into a single in-place pass over each parameter's data, so a
// steady-state step allocates nothing.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// MaxGradNorm, when > 0, rescales the global gradient norm before each
	// step (gradient clipping).
	MaxGradNorm float64

	step  int
	bound []*ag.Param     // parameter list the moment slices are aligned to
	m, v  []*tensor.Dense // first/second moments, index-aligned with bound
}

// NewAdam returns an Adam optimizer with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// bind aligns the moment slices with params. The first call allocates; later
// calls only verify the parameter list has not changed, since the moment
// history is meaningless for a different set.
func (a *Adam) bind(params []*ag.Param) {
	if a.bound != nil {
		if len(a.bound) != len(params) {
			panic("nn: Adam.Step called with a different parameter set")
		}
		for i, p := range params {
			if a.bound[i] != p {
				panic("nn: Adam.Step called with a different parameter set")
			}
		}
		return
	}
	a.bound = append([]*ag.Param(nil), params...)
	a.m = make([]*tensor.Dense, len(params))
	a.v = make([]*tensor.Dense, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Rows, p.Value.Cols)
		a.v[i] = tensor.New(p.Value.Rows, p.Value.Cols)
	}
}

// Step applies one Adam update to params using their accumulated gradients,
// then zeroes the gradients. The clip scale is folded into the moment
// update rather than rewriting the gradients first, which produces
// bit-identical results to clip-then-update in one fewer pass.
func (a *Adam) Step(params []*ag.Param) {
	a.bind(params)
	scale := 1.0
	if a.MaxGradNorm > 0 {
		if norm := math.Sqrt(sumSquaredGrads(params)); norm > a.MaxGradNorm && norm > 0 {
			scale = a.MaxGradNorm / norm
		}
	}
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range params {
		md, vd := a.m[i].Data, a.v[i].Data
		gd := p.Grad.Data
		pd := p.Value.Data
		for j, g := range gd {
			g *= scale
			md[j] = a.Beta1*md[j] + (1-a.Beta1)*g
			vd[j] = a.Beta2*vd[j] + (1-a.Beta2)*g*g
			mh := md[j] / bc1
			vh := vd[j] / bc2
			pd[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			gd[j] = 0
		}
	}
}

// sumSquaredGrads walks the gradients once, in param order, and returns the
// sum of squares: Adam's fused clip and clipGradNorm both take its root.
func sumSquaredGrads(params []*ag.Param) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	return total
}

// clipGradNorm rescales all gradients so their global L2 norm is at most
// max. Adam folds the scale into its fused update instead; this standalone
// pass is the reference optim_test holds that fused clip to, bit for bit.
func clipGradNorm(params []*ag.Param, max float64) {
	norm := math.Sqrt(sumSquaredGrads(params))
	if norm <= max || norm == 0 {
		return
	}
	scale := max / norm
	for _, p := range params {
		p.Grad.ScaleInPlace(scale)
	}
}
