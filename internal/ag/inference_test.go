package ag

import (
	"math/rand"
	"testing"

	"aero/internal/tensor"
)

// buildForward exercises every operator family a Transformer forward
// relies on: matmuls, broadcasts, slices, concatenation, softmax,
// layernorm and pointwise nonlinearities.
func buildForward(t *Tape, x *tensor.Dense, w, gain, bias *Param) *tensor.Dense {
	h := t.MatMul(t.Const(x), t.Param(w))
	h = t.AddRow(h, t.Param(bias))
	h = t.LayerNormRows(h, t.Param(gain), t.Param(bias), 1e-5)
	a := t.SliceCols(h, 0, 2)
	b := t.SliceCols(h, 2, 4)
	att := t.SoftmaxRows(t.Scale(t.MatMulT(a, b), 0.5))
	mix := t.MatMul(att, b)
	cat := t.ConcatCols(a, mix)
	return t.Sigmoid(t.Add(cat, t.Tanh(h))).Value
}

func inferenceFixture() (*tensor.Dense, *Param, *Param, *Param) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.Randn(5, 4, 1, rng)
	w := NewParam("w", tensor.Randn(4, 4, 0.5, rng))
	g := tensor.New(1, 4)
	g.Fill(1)
	gain := NewParam("gain", g)
	bias := NewParam("bias", tensor.Randn(1, 4, 0.1, rng))
	return x, w, gain, bias
}

// TestInferenceTapeSteadyStateAllocs asserts that re-running a fixed-shape
// forward-only pass after Reset allocates nothing: every operation output
// comes back out of the tape's arena.
func TestInferenceTapeSteadyStateAllocs(t *testing.T) {
	x, w, gain, bias := inferenceFixture()
	inf := NewTape()
	buildForward(inf, x, w, gain, bias) // warm the arena and node chunks
	allocs := testing.AllocsPerRun(32, func() {
		inf.Reset()
		buildForward(inf, x, w, gain, bias)
	})
	if allocs > 0 {
		t.Fatalf("steady-state inference pass allocates %.1f objects, want 0", allocs)
	}
}

// TestArenaReusesBuffers checks positional reuse and regrowth semantics.
func TestArenaReusesBuffers(t *testing.T) {
	a := tensor.NewArena()
	first := a.Get(3, 4)
	first.Fill(7)
	a.Reset()
	second := a.Get(3, 4)
	if &second.Data[0] != &first.Data[0] {
		t.Fatal("arena did not reuse the buffer at the same position")
	}
	for _, v := range second.Data {
		if v != 0 {
			t.Fatal("arena buffer not zeroed on reuse")
		}
	}
	a.Reset()
	bigger := a.Get(6, 6) // forces regrowth at position 0
	if len(bigger.Data) != 36 {
		t.Fatalf("regrown buffer has %d elements, want 36", len(bigger.Data))
	}
	a.Reset()
	smaller := a.Get(2, 2) // shrinks in place, reusing the regrown buffer
	if &smaller.Data[0] != &bigger.Data[0] {
		t.Fatal("arena did not reuse the regrown buffer for a smaller shape")
	}
	if a.Len() != 1 {
		t.Fatalf("arena owns %d buffers, want 1", a.Len())
	}
}
