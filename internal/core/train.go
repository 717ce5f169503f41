package core

import (
	"math"
	"runtime"
	"sync"

	"aero/internal/ag"
	"aero/internal/nn"
	"aero/internal/stats"
	"aero/internal/tensor"
	"aero/internal/window"
)

// trainScratch bundles every reusable buffer of one training run so
// steady-state steps allocate nothing: the window-time slices, one
// gradient-recording tape plus input buffers per worker, and the
// per-variate loss accumulator. Slots are pinned to variates by index
// (variate v runs on slot v mod workers), so a slot is never shared
// between goroutines within a step.
type trainScratch struct {
	wt     windowTimes
	slots  []*varSlot // grad tape + long/short input buffers, one per worker
	losses []float64
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
		losses: make([]float64, m.n),
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
// returns the mean reconstruction loss. Every buffer and tape comes from
// ts, so a steady-state step allocates nothing beyond goroutine fan-out.
//
// Univariate variates are processed in chunks of len(ts.slots): each chunk
// runs its backward passes concurrently (BackwardGrads touches only
// tape-local gradients), then parameter gradients are flushed in ascending
// variate order from this goroutine. The float accumulation sequence into
// every Param.Grad is therefore fixed — training results are bit-identical
// for a given seed regardless of worker count.
func (m *Model) stage1Step(p *prepared, end int, opt *nn.Adam, params []*ag.Param, ts *trainScratch) float64 {
	wt := m.times(p, end, &ts.wt)
	if m.cfg.multivariateInput() {
		slot := ts.slots[0]
		t := slot.tape
		t.Reset()
		m.longShort(p, 0, end, slot.long, slot.short)
		pred := m.temporal.forward(t, slot.long, slot.short, wt)
		loss := t.MSE(pred, t.Const(slot.short))
		t.Backward(loss)
		opt.Step(params)
		return loss.Value.Data[0]
	}
	workers := len(ts.slots)
	for base := 0; base < m.n; base += workers {
		hi := base + workers
		if hi > m.n {
			hi = m.n
		}
		if hi-base == 1 {
			// The goroutine fan-out lives in stage1Chunk so this sequential
			// path carries no closure: captured variables would otherwise be
			// heap-boxed on every step even when the fan-out never runs.
			m.stage1Variate(p, base, end, wt, ts.slots[0], ts.losses)
			ts.slots[0].tape.FlushParamGrads()
			continue
		}
		m.stage1Chunk(p, base, hi, end, wt, ts)
	}
	opt.Step(params)
	return stats.Mean(ts.losses)
}

// stage1Chunk runs variates [base, hi) concurrently, one per worker slot,
// then flushes their parameter gradients in ascending variate order.
func (m *Model) stage1Chunk(p *prepared, base, hi, end int, wt windowTimes, ts *trainScratch) {
	var wg sync.WaitGroup
	for v := base; v < hi; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			m.stage1Variate(p, v, end, wt, ts.slots[v-base], ts.losses)
		}(v)
	}
	wg.Wait()
	for v := base; v < hi; v++ {
		ts.slots[v-base].tape.FlushParamGrads()
	}
}

// stage1Variate runs forward + backward for one variate on one worker
// slot, leaving the parameter-gradient contributions on the slot's tape
// for an ordered flush.
func (m *Model) stage1Variate(p *prepared, v, end int, wt windowTimes, slot *varSlot, losses []float64) {
	t := slot.tape
	t.Reset()
	m.longShort(p, v, end, slot.long, slot.short)
	pred := m.temporal.forward(t, slot.long, slot.short, wt)
	loss := t.MSE(pred, t.Const(slot.short))
	t.BackwardGrads(loss)
	losses[v] = loss.Value.Data[0]
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
	// windows·N·ω float64s together, and garbage once training returns.
	sc := m.newScratch(1)
	errs := make([]*tensor.Dense, len(insts))
	for i, inst := range insts {
		errs[i] = m.stage1Errors(p, inst.End, m.times(p, inst.End, &sc.wt), sc).Clone()
	}
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
