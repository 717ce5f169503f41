package core

import (
	"fmt"
	"math/rand"

	"aero/internal/ag"
	"aero/internal/nn"
	"aero/internal/tensor"
)

// encoderLayer is one post-norm Transformer encoder block (paper Eq. 7):
// M = LN(x + MHA(x,x,x)); out = LN(M + FFN(M)).
type encoderLayer struct {
	attn *nn.MultiHeadAttention
	ln1  *nn.LayerNorm
	ffn  *nn.FFN
	ln2  *nn.LayerNorm
}

func newEncoderLayer(name string, dm, heads, hidden, band int, rng *rand.Rand) *encoderLayer {
	attn := nn.NewMultiHeadAttention(name+".attn", dm, heads, rng)
	attn.Band = band
	return &encoderLayer{
		attn: attn,
		ln1:  nn.NewLayerNorm(name+".ln1", dm),
		ffn:  nn.NewFFN(name+".ffn", dm, hidden, dm, rng),
		ln2:  nn.NewLayerNorm(name+".ln2", dm),
	}
}

func (e *encoderLayer) forward(t *ag.Tape, x *ag.Node) *ag.Node {
	m := e.ln1.Forward(t, t.Add(x, e.attn.Forward(t, x, x, x)))
	return e.ln2.Forward(t, t.Add(m, e.ffn.Forward(t, m)))
}

func (e *encoderLayer) params() []*ag.Param {
	return nn.CollectParams(e.attn, e.ln1, e.ffn, e.ln2)
}

// temporalModule is the stage-1 Transformer encoder–decoder (paper §III-C).
// It embeds the long window (length W) through the encoder and reconstructs
// the short window (length ω) through a decoder with self- and
// cross-attention, finishing with a sigmoid so outputs live in the
// normalized [0, 1] magnitude space. The same weights are shared across all
// variates (variate independence is expressed by feeding variates
// separately, not by separate models).
type temporalModule struct {
	inDim, outDim int

	te      *TimeEmbedding
	encProj *nn.Linear // input embedding W_E (Eq. 4)
	decProj *nn.Linear // input embedding W_D (Eq. 4)
	enc     []*encoderLayer

	decSelf  *nn.MultiHeadAttention
	decLN1   *nn.LayerNorm
	decCross *nn.MultiHeadAttention
	decLN2   *nn.LayerNorm
	outFFN   *nn.FFN // FFN + sigmoid output head (Eq. 9)
}

// newTemporalModule builds the module. inDim is 1 for the paper's
// univariate-per-variate mode, or N for the multivariate-input ablation.
func newTemporalModule(cfg Config, inDim int, rng *rand.Rand) *temporalModule {
	dm := cfg.ModelDim
	m := &temporalModule{
		inDim:    inDim,
		outDim:   inDim,
		te:       NewTimeEmbedding(dm),
		encProj:  nn.NewLinear("enc.proj", inDim, dm, rng),
		decProj:  nn.NewLinear("dec.proj", inDim, dm, rng),
		decSelf:  nn.NewMultiHeadAttention("dec.self", dm, cfg.Heads, rng),
		decLN1:   nn.NewLayerNorm("dec.ln1", dm),
		decCross: nn.NewMultiHeadAttention("dec.cross", dm, cfg.Heads, rng),
		decLN2:   nn.NewLayerNorm("dec.ln2", dm),
		outFFN:   nn.NewFFN("dec.out", dm, cfg.FFNHidden, inDim, rng),
	}
	m.decSelf.Band = cfg.AttentionBand
	for i := 0; i < cfg.EncoderLayers; i++ {
		m.enc = append(m.enc, newEncoderLayer(fmt.Sprintf("enc%d", i), dm, cfg.Heads, cfg.FFNHidden, cfg.AttentionBand, rng))
	}
	return m
}

// windowTimes carries the temporal metadata of one window: absolute
// positions and normalized inter-observation intervals for the long window
// and its short suffix.
type windowTimes struct {
	posL, dtL []float64
	posS, dtS []float64
}

// newWindowTimes allocates the slices for long/short window lengths w and
// omega; Model.times fills them.
func newWindowTimes(w, omega int) windowTimes {
	return windowTimes{
		posL: make([]float64, w), dtL: make([]float64, w),
		posS: make([]float64, omega), dtS: make([]float64, omega),
	}
}

// capLayer holds one encoder layer's key/value projection rings of the
// layer's input: K = x·W_K key-major (d_m×W, one column per window slot) and
// V = x·W_V row-major (W×d_m).
type capLayer struct {
	k, v *tensor.Dense
}

// temporalCapture holds the intermediate activations of one stage-1 forward
// (stage1Rows) that the incremental streaming path reuses across pushes: the
// attention keys and values of every window row, which the benign path
// writes for the entering row only. The input projections encProj(x) and
// decProj(x) are not kept: each is one projection of a row of the normalized
// window the detector already holds, so the forward recomputes them where it
// reads them.
//
// Every matrix is a ring over window positions: logical position r sits in
// physical slot (head+r) mod L, with one head per window length L kept by the
// owning stage1State. Key rings are key-major — d_m rows, one column per slot,
// so a query's scores over a run of slots are one column-dot leaf call
// (tensor.DotCols) — and value rings row-major, one row per slot, so a
// context is one row-combination call. An exact forward overwrites every ring
// in full at head 0 (logical = physical); the benign incremental path
// advances the heads by one and rewrites only the entering slot, a column of
// each key ring and a row of each value ring, through the same projectKV.
// The two uses share storage by design, so a refresh is also a cache rebuild.
type temporalCapture struct {
	enc          []capLayer    // per encoder layer K/V rings
	oeK, oeV     *tensor.Dense // decoder cross-attention K (d_m×W) and V (W×d_m) of the encoder output
	selfK, selfV *tensor.Dense // decoder self-attention K (d_m×ω) and V (ω×d_m)
}

// timeEmbedCache holds sin(θ) and cos(θ) of the time embedding for the long
// window (W×d_m) in logical row order. θ is data-independent, so one cache
// serves every variate of a window. The short window is the long window's
// suffix, with the same positions and intervals, so sinS/cosS are views of
// the last ω rows of sinL/cosL, not a second cache. It lives in the borrowed
// scratch: an exact pass rewrites every row; the incremental path rewrites
// only the entering row W−1, the one row it reads (embedEnteringRow), so it
// reads nothing another call left. Its rows are not a ring.
type timeEmbedCache struct {
	sinL, cosL *tensor.Dense
	sinS, cosS *tensor.Dense
}

// newTemporalCapture allocates a capture for the module's geometry. w and
// omega are the long/short window lengths.
func (m *temporalModule) newTemporalCapture(w, omega int) *temporalCapture {
	dm := m.te.dm
	c := &temporalCapture{
		oeK: tensor.New(dm, w), oeV: tensor.New(w, dm),
		selfK: tensor.New(dm, omega), selfV: tensor.New(omega, dm),
	}
	for range m.enc {
		c.enc = append(c.enc, capLayer{k: tensor.New(dm, w), v: tensor.New(w, dm)})
	}
	return c
}

// stepEmbedding is the time embedding of one training window — the long
// window's and its short suffix's — computed once per step and read by every
// tape of the step.
type stepEmbedding struct {
	long, short windowEmbedding
}

func (m *temporalModule) newStepEmbedding(w, omega int) *stepEmbedding {
	return &stepEmbedding{long: newWindowEmbedding(w, m.te.dm), short: newWindowEmbedding(omega, m.te.dm)}
}

// embed fills e for the window wt describes.
func (m *temporalModule) embed(e *stepEmbedding, wt windowTimes) {
	m.te.fill(&e.long, wt.posL, wt.dtL)
	m.te.fill(&e.short, wt.posS, wt.dtS)
}

// forwardEmbedded reconstructs the short window on a tape. long is W×inDim,
// short is ω×inDim (rows are timesteps), e the window's time embedding; the
// result is ω×inDim in [0, 1]. Training runs it; inference runs the same
// arithmetic through stage1Rows, which TestRowForwardMatchesTape holds to
// this function bit for bit.
func (m *temporalModule) forwardEmbedded(t *ag.Tape, long, short *tensor.Dense, e *stepEmbedding) *ag.Node {
	// Input embeddings IE/ID = proj(x) + TE (Eq. 4).
	ie := t.Add(m.encProj.Forward(t, t.Const(long)), m.te.record(t, &e.long))
	id := t.Add(m.decProj.Forward(t, t.Const(short)), m.te.record(t, &e.short))

	// Encoder over the long context (Eq. 5–7).
	oe := ie
	for _, layer := range m.enc {
		oe = layer.forward(t, oe)
	}

	// Decoder: masked-free self-attention on the short window, then
	// cross-attention using the encoder output as keys/values (Eq. 8).
	md := m.decLN1.Forward(t, t.Add(id, m.decSelf.Forward(t, id, id, id)))
	od := m.decLN2.Forward(t, t.Add(md, m.decCross.Forward(t, md, oe, oe)))

	// Output head with sigmoid normalization (Eq. 9).
	return t.Sigmoid(m.outFFN.Forward(t, od))
}

// params returns all trainable parameters of the module.
func (m *temporalModule) params() []*ag.Param {
	ps := nn.CollectParams(m.te, m.encProj, m.decProj, m.decSelf, m.decLN1, m.decCross, m.decLN2, m.outFFN)
	for _, layer := range m.enc {
		ps = append(ps, layer.params()...)
	}
	return ps
}
