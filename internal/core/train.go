package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"aero/internal/ag"
	"aero/internal/nn"
	"aero/internal/stats"
	"aero/internal/tensor"
	"aero/internal/window"
)

// trainScratch bundles every reusable buffer of one training run so
// steady-state steps allocate nothing: the window-time slices and the step's
// time embedding, one gradient-recording tape plus input buffers per worker,
// and per variate a loss and — when steps fan out — a parameter-gradient
// stash. Training holds one tape per worker however many variates there are.
type trainScratch struct {
	wt      windowTimes
	emb     *stepEmbedding
	slots   []*varSlot     // grad tape + long/short input buffers, one per worker
	stashes []ag.GradStash // per variate, between its backward and the ordered flush
	losses  []float64

	next atomic.Int64   // the fan-out's next unclaimed variate
	wg   sync.WaitGroup // the fan-out's join
}

// varSlot is the per-goroutine state of one stage-1 training pass: a tape
// plus the long/short input windows.
type varSlot struct {
	tape  *ag.Tape
	long  *tensor.Dense
	short *tensor.Dense
}

// trainWorkers resolves the stage-1 training fan-out: the configured worker
// count (GOMAXPROCS when unset), clamped to the variate count; multivariate
// input forces 1 (its single forward pass has nothing to fan out).
func (m *Model) trainWorkers() int {
	workers := m.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.n {
		workers = m.n
	}
	if m.cfg.multivariateInput() {
		workers = 1
	}
	return workers
}

// newTrainScratch sizes a training scratch for the model's window geometry
// and configured worker count.
func (m *Model) newTrainScratch() *trainScratch {
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	inDim := 1
	if m.cfg.multivariateInput() {
		inDim = m.n
	}
	workers := m.trainWorkers()
	ts := &trainScratch{
		wt:     newWindowTimes(w, omega),
		emb:    m.temporal.newStepEmbedding(w, omega),
		losses: make([]float64, m.n),
	}
	if workers > 1 {
		ts.stashes = make([]ag.GradStash, m.n)
	}
	for i := 0; i < workers; i++ {
		ts.slots = append(ts.slots, &varSlot{
			tape:  ag.NewTape(),
			long:  tensor.New(w, inDim),
			short: tensor.New(omega, inDim),
		})
	}
	return ts
}

// trainStage1 trains the temporal reconstruction module and returns the
// number of epochs run.
func (m *Model) trainStage1(p *prepared) int {
	params := m.temporal.params()
	opt := nn.NewAdam(m.cfg.LR)
	opt.MaxGradNorm = 5
	insts := window.Indices(len(p.time), m.cfg.LongWindow, m.cfg.TrainStride)
	rng := newRand(m.cfg.Seed + 2)
	ts := m.newTrainScratch()

	best := math.Inf(1)
	wait := 0
	epoch := 0
	for ; epoch < m.cfg.MaxEpochs; epoch++ {
		rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
		var epochLoss float64
		for _, inst := range insts {
			epochLoss += m.stage1Step(p, inst.End, opt, params, ts)
		}
		epochLoss /= float64(len(insts))
		m.cfg.Logf("stage1 epoch %d loss %.6f", epoch, epochLoss)
		if epochLoss < best-1e-6 {
			best = epochLoss
			wait = 0
		} else if wait++; wait >= m.cfg.Patience {
			epoch++
			break
		}
	}
	return epoch
}

// stage1Step runs one optimizer step over all variates of one window and
// returns the mean reconstruction loss. The window's time embedding is
// computed once, here, and every variate's tape reads it. Every buffer and
// tape comes from ts, so a steady-state step allocates nothing beyond the
// goroutines of its fan-out.
//
// Parameter gradients reach Param.Grad in ascending variate order, each
// variate's in reverse tape order — straight from the tape on one worker,
// from the variates' stashes after the join on several. The float
// accumulation sequence into every Param.Grad is therefore fixed: training
// results are bit-identical for a given seed regardless of worker count.
func (m *Model) stage1Step(p *prepared, end int, opt *nn.Adam, params []*ag.Param, ts *trainScratch) float64 {
	m.temporal.embed(ts.emb, m.times(p, end, &ts.wt))
	switch {
	case m.cfg.multivariateInput():
		// One pass reconstructs every variate; its loss is the step's.
		m.stage1Variate(p, 0, end, ts.slots[0], ts)
		ts.slots[0].tape.FlushParamGrads()
		opt.Step(params)
		return ts.losses[0]
	case len(ts.slots) == 1:
		// The goroutine fan-out lives in stage1FanOut so this sequential
		// path carries no closure: captured variables would otherwise be
		// heap-boxed on every step even when the fan-out never runs.
		for v := 0; v < m.n; v++ {
			m.stage1Variate(p, v, end, ts.slots[0], ts)
			ts.slots[0].tape.FlushParamGrads()
		}
	default:
		m.stage1FanOut(p, end, ts)
	}
	opt.Step(params)
	return stats.Mean(ts.losses)
}

// stage1FanOut runs every variate of the step on one goroutine per worker
// slot (this one included), each pulling the next unclaimed variate until
// none is left and stashing its parameter gradients. After the join it
// flushes the stashes in ascending variate order.
func (m *Model) stage1FanOut(p *prepared, end int, ts *trainScratch) {
	ts.next.Store(0)
	ts.wg.Add(len(ts.slots) - 1)
	for _, slot := range ts.slots[1:] {
		go func() {
			defer ts.wg.Done()
			m.stage1Worker(p, end, slot, ts)
		}()
	}
	m.stage1Worker(p, end, ts.slots[0], ts)
	ts.wg.Wait()
	for v := range ts.stashes {
		ts.stashes[v].Flush()
	}
}

// stage1Worker claims variates until none is left, leaving each one's
// parameter gradients in its stash.
func (m *Model) stage1Worker(p *prepared, end int, slot *varSlot, ts *trainScratch) {
	for v := int(ts.next.Add(1)) - 1; v < m.n; v = int(ts.next.Add(1)) - 1 {
		m.stage1Variate(p, v, end, slot, ts)
		slot.tape.StashParamGrads(&ts.stashes[v])
	}
}

// stage1Variate runs forward + backward for one variate on one worker
// slot, leaving the parameter-gradient contributions on the slot's tape
// for an ordered flush. In multivariate mode v is 0 and the pass covers
// every variate.
func (m *Model) stage1Variate(p *prepared, v, end int, slot *varSlot, ts *trainScratch) {
	t := slot.tape
	t.Reset()
	m.longShort(p, v, end, slot.long, slot.short)
	pred := m.temporal.forwardEmbedded(t, slot.long, slot.short, ts.emb)
	loss := t.MSE(pred, t.Const(slot.short))
	t.BackwardGrads(loss)
	ts.losses[v] = loss.Value.Data[0]
}

// trainStage2 trains the concurrent-noise module with stage 1 frozen and
// returns the number of epochs run.
func (m *Model) trainStage2(p *prepared) int {
	params := m.noise.params()
	opt := nn.NewAdam(m.cfg.LR)
	opt.MaxGradNorm = 5
	insts := window.Indices(len(p.time), m.cfg.LongWindow, m.cfg.TrainStride)
	// Stage 1 is frozen during stage 2 (Algorithm 1, line 7), so a window's
	// error matrix E = Y − Ŷ1 is the same in every epoch: the frozen forward
	// runs once per window, here, and the epochs index the copies. They are
	// windows·N·ω float64s together, and garbage once training returns. Each
	// window's E is a function of the window alone, so the windows run on the
	// scoring worker pool.
	errs := make([]*tensor.Dense, len(insts))
	m.parallelWindows(len(insts), func(i int, sc *scratch) {
		end := insts[i].End
		errs[i] = m.stage1Errors(p, end, m.times(p, end, &sc.wt), m.ownState(sc), sc).Clone()
	})
	sc := m.borrowScratch()
	defer m.returnScratch(sc)
	// Graph building reuses the scratch across all windows, and the stage-2
	// backward reuses one tape; each window's tensors are consumed (forward
	// + backward) before the next window overwrites them.
	tape := ag.NewTape()

	best := math.Inf(1)
	wait := 0
	epoch := 0
	for ; epoch < m.cfg.MaxEpochs; epoch++ {
		var dyn *dynamicGraphState
		if m.cfg.Variant == VariantDynamicGraph {
			dyn = newDynamicGraphState(m.n)
		}
		var epochLoss float64
		for _, e := range errs {
			epochLoss += m.stage2Step(e, dyn, sc, tape, opt, params)
		}
		epochLoss /= float64(len(insts))
		m.cfg.Logf("stage2 epoch %d loss %.6f", epoch, epochLoss)
		if epochLoss < best-1e-6 {
			best = epochLoss
			wait = 0
		} else if wait++; wait >= m.cfg.Patience {
			epoch++
			break
		}
	}
	return epoch
}

// stage2Step runs one optimizer step of the noise module on one window's
// stage-1 errors e — a constant to the tape — and returns the loss. Every
// buffer comes from sc and tape, so a steady-state step allocates nothing.
func (m *Model) stage2Step(e *tensor.Dense, dyn *dynamicGraphState, sc *scratch, tape *ag.Tape, opt *nn.Adam, params []*ag.Param) float64 {
	a := m.adjacency(e, dyn, sc)
	h := propagateInto(a, e, sc.h)
	tape.Reset()
	pred := m.noise.forward(tape, h)
	loss := tape.MSE(pred, tape.Const(e)) // loss2 = Y − Ŷ1 − Ŷ2 (Eq. 16)
	tape.Backward(loss)
	opt.Step(params)
	return loss.Value.Data[0]
}
