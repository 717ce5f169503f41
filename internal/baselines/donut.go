package baselines

import (
	"math/rand"

	"aero/internal/ag"
	"aero/internal/dataset"
	"aero/internal/nn"
	"aero/internal/tensor"
	"aero/internal/window"
)

// Donut (Xu et al., WWW 2018) is a variational auto-encoder over sliding
// windows of a univariate series; anomalies are points the decoder cannot
// reconstruct from the learned latent manifold of normal windows.
//
// Faithful structure, two scale concessions: one VAE is shared across all
// variates (Donut trains one per KPI; sharing is the standard adaptation
// when hundreds of stars share morphology), and the Monte-Carlo
// reconstruction probability is replaced by the deterministic (z = μ)
// reconstruction error, its standard surrogate.
type Donut struct {
	cfg Config

	encH, encMu, encLV *nn.Linear
	decH, decOut       *nn.Linear
	params             []*ag.Param

	norm   *window.Normalizer
	n      int
	fitted bool
}

// NewDonut returns an untrained Donut with the given configuration.
func NewDonut(cfg Config) *Donut { return &Donut{cfg: cfg.normalized()} }

// Name implements Detector.
func (d *Donut) Name() string { return "Donut" }

func (d *Donut) build(rng *rand.Rand) {
	w, h, k := d.cfg.Window, d.cfg.Hidden, d.cfg.Latent
	d.encH = nn.NewLinear("donut.encH", w, h, rng)
	d.encMu = nn.NewLinear("donut.mu", h, k, rng)
	d.encLV = nn.NewLinear("donut.lv", h, k, rng)
	d.decH = nn.NewLinear("donut.decH", k, h, rng)
	d.decOut = nn.NewLinear("donut.out", h, w, rng)
	d.params = nn.CollectParams(d.encH, d.encMu, d.encLV, d.decH, d.decOut)
}

// encode returns μ and logσ² for a 1×W window node.
func (d *Donut) encode(t *ag.Tape, x *ag.Node) (mu, logvar *ag.Node) {
	h := t.ReLU(d.encH.Forward(t, x))
	return d.encMu.Forward(t, h), d.encLV.Forward(t, h)
}

// decode reconstructs a 1×W window from a latent code.
func (d *Donut) decode(t *ag.Tape, z *ag.Node) *ag.Node {
	return t.Sigmoid(d.decOut.Forward(t, t.ReLU(d.decH.Forward(t, z))))
}

// elbo builds the negative ELBO (reconstruction MSE + KL) for one window.
func (d *Donut) elbo(t *ag.Tape, win *tensor.Dense, rng *rand.Rand) *ag.Node {
	x := t.Const(win)
	mu, logvar := d.encode(t, x)
	// Reparameterization: z = μ + ε·exp(logσ²/2).
	eps := tensor.Randn(1, d.cfg.Latent, 1, rng)
	z := t.Add(mu, t.Mul(t.Const(eps), t.Exp(t.Scale(logvar, 0.5))))
	recon := t.MSE(d.decode(t, z), x)
	// KL(q‖N(0,I)) = −½ Σ (1 + logσ² − μ² − σ²).
	kl := t.Scale(t.MeanAll(t.Sub(t.Sub(t.Exp(logvar), t.AddConst(logvar, 1)), t.Neg(t.Square(mu)))), 0.5)
	return t.Add(recon, t.Scale(kl, 0.01))
}

// Fit trains the shared VAE on all variates' windows.
func (d *Donut) Fit(train *dataset.Series) error {
	if err := d.cfg.validate(); err != nil {
		return err
	}
	if train.Len() < d.cfg.Window {
		return checkSeries(train, train.N(), d.cfg.Window, true)
	}
	rng := newRand(d.cfg.Seed)
	d.n = train.N()
	d.norm = window.FitNormalizer(train.Data)
	d.build(rng)
	data := d.norm.Transform(train.Data)
	insts := window.Indices(train.Len(), d.cfg.Window, d.cfg.TrainStride)
	opt := nn.NewAdam(d.cfg.LR)
	opt.MaxGradNorm = 5

	// One tape per star: the backward passes run concurrently, and the
	// parameter gradients are flushed after the join in ascending star
	// order, so the float additions never depend on the scheduler.
	tapes := make([]*ag.Tape, d.n)
	for v := range tapes {
		tapes[v] = ag.NewTape()
	}
	for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
		rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
		for _, inst := range insts {
			parallelFor(d.n, d.cfg.Workers, func(v int) {
				seedRng := rand.New(rand.NewSource(d.cfg.Seed ^ int64(epoch*1000+inst.End*10+v)))
				t := tapes[v]
				t.Reset()
				win := tensor.FromSlice(1, d.cfg.Window, window.Slice(data[v], inst.End, d.cfg.Window))
				t.BackwardGrads(d.elbo(t, win, seedRng))
			})
			for _, t := range tapes {
				t.FlushParamGrads()
			}
			opt.Step(d.params)
		}
	}
	d.fitted = true
	return nil
}

// Scores implements Detector: the deterministic reconstruction error at the
// window's last point.
func (d *Donut) Scores(s *dataset.Series) ([][]float64, error) {
	if err := checkSeries(s, d.n, d.cfg.Window, d.fitted); err != nil {
		return nil, err
	}
	data := d.norm.Transform(s.Data)
	w := d.cfg.Window
	return assembleWindowScores(s.Len(), w, d.cfg.EvalStride, d.n, d.cfg.Workers, func(end int) []float64 {
		scores := make([]float64, d.n)
		for v := 0; v < d.n; v++ {
			t := ag.NewTape()
			win := tensor.FromSlice(1, w, window.Slice(data[v], end, w))
			mu, _ := d.encode(t, t.Const(win))
			recon := d.decode(t, mu)
			diff := win.Data[w-1] - recon.Value.Data[w-1]
			if diff < 0 {
				diff = -diff
			}
			scores[v] = diff
		}
		return scores
	}), nil
}
