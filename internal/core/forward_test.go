package core

import (
	"fmt"
	"math"
	"testing"

	"aero/internal/ag"
	"aero/internal/dataset"
	"aero/internal/tensor"
	"aero/internal/window"
)

// sameBits fails unless a and b hold the same float64 bits cell for cell.
func sameBits(t *testing.T, name string, rows, tape *tensor.Dense) {
	t.Helper()
	if rows.Rows != tape.Rows || rows.Cols != tape.Cols {
		t.Fatalf("%s: rows %dx%d, tape %dx%d", name, rows.Rows, rows.Cols, tape.Rows, tape.Cols)
	}
	for i := range rows.Data {
		if math.Float64bits(rows.Data[i]) != math.Float64bits(tape.Data[i]) {
			t.Fatalf("%s[%d]: rows %v != tape %v", name, i, rows.Data[i], tape.Data[i])
		}
	}
}

// tapeWindow is one window's two-stage forward computed on tapes: what the
// row forward must reproduce.
type tapeWindow struct {
	tm       *temporalModule
	e, final *tensor.Dense
	te       timeEmbedCache
	caps     []tapeCapture // one per stage-1 pass
}

// tapeCapture is one stage-1 pass on tapes: the rings the row forward keeps,
// plus the pass's inputs and input embeddings, which it recomputes instead.
type tapeCapture struct {
	*temporalCapture
	long, short *tensor.Dense // the inputs x
	ie, id      *tensor.Dense // IE = encProj(x) + TE and ID = decProj(x) + TE
}

// tapeSinCos is the two halves of TimeEmbedding.Forward, whose sum is
// checked against Forward itself.
func tapeSinCos(t *testing.T, te *TimeEmbedding, pos, dt []float64) (sin, cos *tensor.Dense) {
	t.Helper()
	tp := ag.NewTape()
	dtCol := tensor.New(len(dt), 1)
	copy(dtCol.Data, dt)
	theta := tp.Add(te.phase(tp, pos), tp.MatMul(tp.Const(dtCol), tp.Param(te.Alpha)))
	s, c := tp.Sin(theta), tp.Cos(theta)
	sameBits(t, "sin+cos against TimeEmbedding.Forward", tp.Add(s, c).Value, te.Forward(ag.NewTape(), pos, dt).Value)
	return s.Value, c.Value
}

// tapeStage1 runs one stage-1 pass through temporalModule.forward — the code
// training runs — and returns its prediction (ω×inDim) plus the activations
// the row forward keeps or recomputes. forward hands out no intermediate nodes, so the
// rings come from a second tape that composes the same layers piecewise and
// projects each K/V itself; that tape's prediction must equal forward's.
func tapeStage1(t *testing.T, tm *temporalModule, long, short *tensor.Dense, wt windowTimes) (*tensor.Dense, tapeCapture) {
	t.Helper()
	pred := tm.forward(ag.NewTape(), long, short, wt).Value

	tp := ag.NewTape()
	c := &temporalCapture{}
	ie := tp.Add(tm.encProj.Forward(tp, tp.Const(long)), tm.te.Forward(tp, wt.posL, wt.dtL))
	id := tp.Add(tm.decProj.Forward(tp, tp.Const(short)), tm.te.Forward(tp, wt.posS, wt.dtS))
	oe := ie
	// The rows' key rings are key-major: the tape's K, transposed.
	for _, layer := range tm.enc {
		c.enc = append(c.enc, capLayer{
			k: layer.attn.Wk.Forward(tp, oe).Value.T(),
			v: layer.attn.Wv.Forward(tp, oe).Value,
		})
		oe = layer.forward(tp, oe)
	}
	c.selfK, c.selfV = tm.decSelf.Wk.Forward(tp, id).Value.T(), tm.decSelf.Wv.Forward(tp, id).Value
	c.oeK, c.oeV = tm.decCross.Wk.Forward(tp, oe).Value.T(), tm.decCross.Wv.Forward(tp, oe).Value
	md := tm.decLN1.Forward(tp, tp.Add(id, tm.decSelf.Forward(tp, id, id, id)))
	od := tm.decLN2.Forward(tp, tp.Add(md, tm.decCross.Forward(tp, md, oe, oe)))
	sameBits(t, "piecewise tape against temporalModule.forward", tp.Sigmoid(tm.outFFN.Forward(tp, od)).Value, pred)
	return pred, tapeCapture{temporalCapture: c, long: long, short: short, ie: ie.Value, id: id.Value}
}

// tapeForward computes the window ending at end on tapes. dyn, when non-nil,
// is advanced exactly as a scoring pass would advance it.
func tapeForward(t *testing.T, m *Model, p *prepared, end int, wt windowTimes, dyn *dynamicGraphState) tapeWindow {
	t.Helper()
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	ref := tapeWindow{tm: m.temporal, e: tensor.New(m.n, omega), final: tensor.New(m.n, omega)}
	switch {
	case !m.cfg.usesTemporal():
		for v := 0; v < m.n; v++ {
			copy(ref.e.Row(v), window.Slice(p.data[v], end, omega))
		}
	case m.cfg.multivariateInput():
		long, short := tensor.New(w, m.n), tensor.New(omega, m.n)
		m.longShort(p, 0, end, long, short)
		pred, c := tapeStage1(t, m.temporal, long, short, wt)
		ref.caps = append(ref.caps, c)
		for v := 0; v < m.n; v++ {
			for i := 0; i < omega; i++ {
				ref.e.Set(v, i, short.At(i, v)-pred.At(i, v))
			}
		}
	default:
		for v := 0; v < m.n; v++ {
			long, short := tensor.New(w, 1), tensor.New(omega, 1)
			m.longShort(p, v, end, long, short)
			pred, c := tapeStage1(t, m.temporal, long, short, wt)
			ref.caps = append(ref.caps, c)
			for i := 0; i < omega; i++ {
				ref.e.Set(v, i, short.Data[i]-pred.Data[i])
			}
		}
	}
	if m.cfg.usesTemporal() {
		ref.te.sinL, ref.te.cosL = tapeSinCos(t, m.temporal.te, wt.posL, wt.dtL)
		ref.te.sinS, ref.te.cosS = tapeSinCos(t, m.temporal.te, wt.posS, wt.dtS)
	}
	if !m.cfg.usesNoise() {
		for i, ev := range ref.e.Data {
			ref.final.Data[i] = math.Abs(ev)
		}
		return ref
	}
	// The graph has one implementation; the reconstruction over it is the
	// tape's.
	a := m.adjacency(ref.e, dyn, m.newScratch())
	yhat2 := m.noise.forward(ag.NewTape(), propagateInto(a, ref.e, tensor.New(m.n, omega))).Value
	for i, ev := range ref.e.Data {
		ref.final.Data[i] = math.Abs(ev - yhat2.Data[i])
	}
	return ref
}

// matches compares everything a row forward left in st and sc with the
// tape window: stage-1 errors, final scores (when final is set: a streaming
// refresh scores the newest column alone, and its caller compares that), the
// TE cache, every ring (at head 0, where logical and physical slots
// coincide) and, recomputed from each pass's inputs, every input-embedding
// row. A one-capture state holds the last stage-1 pass's rings.
func (ref tapeWindow) matches(t *testing.T, st *stage1State, sc *scratch, final bool) {
	t.Helper()
	sameBits(t, "e", st.e, ref.e)
	if final {
		sameBits(t, "final", sc.final, ref.final)
	}
	if len(ref.caps) == 0 {
		return
	}
	if st.headL != 0 || st.headS != 0 {
		t.Fatalf("ring heads %d/%d after an exact forward, want 0/0", st.headL, st.headS)
	}
	sameBits(t, "sinL", sc.te.sinL, ref.te.sinL)
	sameBits(t, "cosL", sc.te.cosL, ref.te.cosL)
	sameBits(t, "sinS", sc.te.sinS, ref.te.sinS)
	sameBits(t, "cosS", sc.te.cosS, ref.te.cosS)
	for i, rc := range st.caps {
		tc := ref.caps[i]
		if len(st.caps) == 1 {
			tc = ref.caps[len(ref.caps)-1]
		}
		sameBits(t, "oeK", rc.oeK, tc.oeK)
		sameBits(t, "oeV", rc.oeV, tc.oeV)
		sameBits(t, "selfK", rc.selfK, tc.selfK)
		sameBits(t, "selfV", rc.selfV, tc.selfV)
		for li := range rc.enc {
			sameBits(t, "enc.k", rc.enc[li].k, tc.enc[li].k)
			sameBits(t, "enc.v", rc.enc[li].v, tc.enc[li].v)
		}
	}
	dm := ref.tm.te.dm
	row := make([]float64, dm)
	for i, tc := range ref.caps {
		for r := 0; r < tc.long.Rows; r++ {
			sc.embed(ref.tm.encProj, row, tc.long.Row(r), 1, sc.te.sinL, sc.te.cosL, r)
			sameBits(t, fmt.Sprintf("pass %d ie row %d", i, r), tensor.FromSlice(1, dm, row), tensor.FromSlice(1, dm, tc.ie.Row(r)))
		}
		for r := 0; r < tc.short.Rows; r++ {
			sc.embed(ref.tm.decProj, row, tc.short.Row(r), 1, sc.te.sinS, sc.te.cosS, r)
			sameBits(t, fmt.Sprintf("pass %d id row %d", i, r), tensor.FromSlice(1, dm, row), tensor.FromSlice(1, dm, tc.id.Row(r)))
		}
	}
}

// jittered returns s on an irregular cadence: intervals cycle through 0.5, 1
// and 1.7 medians with a 12-median gap every eighth step, so dt·α is not the
// constant every other golden feeds the time embedding.
func jittered(s *dataset.Series, median float64) *dataset.Series {
	out := *s
	out.Time = make([]float64, s.Len())
	steps := []float64{0.5, 1, 1.7, 1, 12, 1, 0.5, 1.7}
	at := s.Time[0]
	for i := range out.Time {
		out.Time[i] = at
		at += steps[i%len(steps)] * median
	}
	return &out
}

// TestRowForwardMatchesTape is the oracle of the single inference forward:
// for every variant, on both kernel paths, the row forward's stage-1 errors,
// final scores, TE cache and activation rings equal, bit for bit, a tape
// forward through temporalModule.forward and noiseModule.forward — the code
// training runs. It covers batch windows at several ends with one reused
// scratch, a refresh from a mid-ring streaming state, a series on a jittered
// cadence with gaps, and scattered window positions (the uncached-phase
// branch no model path emits).
func TestRowForwardMatchesTape(t *testing.T) {
	type fit struct {
		m *Model
		d *dataset.Dataset
	}
	fits := map[Variant]fit{}
	for v := VariantFull; v <= VariantDynamicGraph; v++ {
		m, d := fitIncVariant(t, v)
		fits[v] = fit{m, d}
	}
	eachKernelPath(t, func(t *testing.T) {
		for v := VariantFull; v <= VariantDynamicGraph; v++ {
			m, d := fits[v].m, fits[v].d
			t.Run(v.String(), func(t *testing.T) {
				for _, series := range []struct {
					name string
					s    *dataset.Series
				}{
					{"regular", d.Test},
					{"jittered", jittered(d.Test, m.dtScale)},
				} {
					t.Run(series.name+"/batch", func(t *testing.T) { rowForwardBatch(t, m, series.s) })
					t.Run(series.name+"/stream", func(t *testing.T) { rowForwardStream(t, m, series.s) })
				}
				if m.cfg.usesTemporal() {
					t.Run("scattered", func(t *testing.T) { rowForwardScattered(t, m, d.Test) })
				}
			})
		}
	})
}

// newDynFor returns a fresh evolving-graph state when the model uses one.
func newDynFor(m *Model) *dynamicGraphState {
	if m.cfg.Variant != VariantDynamicGraph {
		return nil
	}
	return newDynamicGraphState(m.n)
}

func rowForwardBatch(t *testing.T, m *Model, s *dataset.Series) {
	p := m.prepare(s)
	w := m.cfg.LongWindow
	sc := m.newScratch()
	wt := newWindowTimes(w, m.cfg.ShortWindow)
	dyn, refDyn := newDynFor(m), newDynFor(m)
	for _, end := range []int{w - 1, w + 7, w + 8, s.Len() - 1} {
		ref := tapeForward(t, m, p, end, m.times(p, end, &wt), refDyn)
		m.windowScores(p, end, dyn, sc)
		ref.matches(t, sc.own, sc, true)
		if dyn != nil {
			sameBits(t, "dyn.a", dyn.a, refDyn.a)
		}
	}
}

func rowForwardStream(t *testing.T, m *Model, s *dataset.Series) {
	det, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	// Stop on the first frame past W+5 that the benign path served, so the
	// refresh below starts from rings whose heads have moved.
	frame := Frame{Magnitudes: make([]float64, s.N())}
	for i, benign := 0, false; i < w+5 || !benign; i++ {
		if i == s.Len() {
			t.Fatal("no frame past W+5 took the benign path: the refresh does not start mid-stream")
		}
		frame.Time = s.Time[i]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = s.Data[v][i]
		}
		before := det.IncrementalStats().Incremental
		if _, err := det.PushScores(frame); err != nil {
			t.Fatal(err)
		}
		benign = det.IncrementalStats().Incremental > before
	}
	st := &det.inc.st
	if m.cfg.usesTemporal() && (st.headL == 0 || st.headS == 0) {
		t.Fatalf("ring heads %d/%d did not advance; the rebuild is not exercised mid-ring", st.headL, st.headS)
	}
	var refDyn *dynamicGraphState
	if det.dyn != nil {
		refDyn = newDynamicGraphState(m.n)
		refDyn.a.CopyFrom(det.dyn.a)
	}
	wt := newWindowTimes(w, omega)
	p := det.window(m.newScratch())
	ref := tapeForward(t, m, p, w-1, m.times(p, w-1, &wt), refDyn)
	sc := m.newScratch()
	scores := det.inc.refresh(det, sc)
	ref.matches(t, st, sc, false)
	for v, got := range scores {
		if want := ref.final.At(v, omega-1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("variate %d: refresh score %v != tape score %v", v, got, want)
		}
	}
	if refDyn != nil {
		sameBits(t, "dyn.a", det.dyn.a, refDyn.a)
	}
}

func rowForwardScattered(t *testing.T, m *Model, s *dataset.Series) {
	p := m.prepare(s)
	w, omega := m.cfg.LongWindow, m.cfg.ShortWindow
	end := w + 3
	sc, st := m.newScratch(), m.newStage1State(m.n)
	wt := m.times(p, end, &sc.wt)
	// Positions with holes: no contiguous run the phase cache could serve,
	// in the long window or in its suffix.
	for i := range wt.posL {
		wt.posL[i] = float64(i + i/3)
	}
	copy(wt.posS, wt.posL[w-omega:])
	if m.temporal.te.cachedPhase(wt.posL) != nil || m.temporal.te.cachedPhase(wt.posS) != nil {
		t.Fatal("scattered positions were served from the phase cache")
	}
	dyn, refDyn := newDynFor(m), newDynFor(m)
	ref := tapeForward(t, m, p, end, wt, refDyn)
	m.noiseScores(m.stage1Errors(p, end, wt, st, sc), dyn, sc)
	ref.matches(t, st, sc, true)
}

// TestStageErrorsGraphAtValidate holds Scores, StageErrors and GraphAt to
// one validation: each malformed input is an error from all three, never a
// panic.
func TestStageErrorsGraphAtValidate(t *testing.T) {
	m, d := shared(t)
	w := m.Config().LongWindow
	unfitted, err := New(testConfig(), d.Test.N())
	if err != nil {
		t.Fatal(err)
	}
	short := *d.Test
	short.Time = d.Test.Time[:w-1]
	short.Data = make([][]float64, d.Test.N())
	for v := range short.Data {
		short.Data[v] = d.Test.Data[v][:w-1]
	}
	fewer := *d.Test
	fewer.Data = d.Test.Data[:d.Test.N()-1]
	ragged := *d.Test
	ragged.Data = append([][]float64{d.Test.Data[0][:w+1]}, d.Test.Data[1:]...)

	inputs := []struct {
		name string
		m    *Model
		s    *dataset.Series
	}{
		{"unfitted model", unfitted, d.Test},
		{"series shorter than the window", m, &short},
		{"wrong variate count", m, &fewer},
		{"row shorter than Time", m, &ragged},
	}
	entries := []struct {
		name string
		call func(*Model, *dataset.Series) error
	}{
		{"Scores", func(m *Model, s *dataset.Series) error { _, err := m.Scores(s); return err }},
		{"StageErrors", func(m *Model, s *dataset.Series) error { _, _, err := m.StageErrors(s); return err }},
		{"GraphAt", func(m *Model, s *dataset.Series) error { _, err := m.GraphAt(s, w-1); return err }},
	}
	for _, in := range inputs {
		for _, e := range entries {
			t.Run(e.name+"/"+in.name, func(t *testing.T) {
				if err := e.call(in.m, in.s); err == nil {
					t.Fatal("malformed input accepted")
				}
			})
		}
	}
	for _, e := range entries {
		if err := e.call(m, d.Test); err != nil {
			t.Fatalf("%s on a well-formed series: %v", e.name, err)
		}
	}
}
