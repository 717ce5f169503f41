package aero_test

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	_ "unsafe" // go:linkname

	"aero"
)

// tensorUseVector is internal/tensor's kernel dispatch variable. It is
// unexported there on purpose (no knob); the golden reaches it by linkname
// to hold both kernel paths to one set of expected values.
//
//go:linkname tensorUseVector aero/internal/tensor.useVector
var tensorUseVector bool

// eachKernelPath runs f twice: on tensor's vector leaves (skipped where its
// init probe said no — every host but an AVX2+FMA amd64) and on its Go loops.
func eachKernelPath(t *testing.T, f func(t *testing.T)) {
	probed := tensorUseVector
	defer func() { tensorUseVector = probed }()
	t.Run("vector", func(t *testing.T) {
		if !probed {
			t.Skip("internal/tensor's probe chose the Go loops on this host: nothing to compare")
		}
		f(t)
	})
	tensorUseVector = false
	t.Run("scalar", f)
}

// trainFingerprint fits the benchmark model with the given worker count
// and returns (epochs1, epochs2, threshold bits, FNV-1a hash of all test
// score bits) — a complete fingerprint of the training outcome.
func trainFingerprint(t *testing.T, workers int) (int, int, uint64, uint64) {
	t.Helper()
	return trainFingerprintOn(t, benchDataset(), workers)
}

// trainFingerprintOn is trainFingerprint on a caller-chosen dataset.
func trainFingerprintOn(t *testing.T, d *aero.Dataset, workers int) (int, int, uint64, uint64) {
	t.Helper()
	cfg := benchConfig()
	cfg.Workers = workers
	m, err := aero.New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	scores, err := m.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range scores {
		for _, s := range row {
			bits := math.Float64bits(s)
			for i := 0; i < 8; i++ {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return m.Epochs1, m.Epochs2, math.Float64bits(m.Threshold()), h.Sum64()
}

// TestTrainingBitIdentityGolden pins the end-to-end training outcome to
// the fingerprint captured from the pre-refactor closure-tape + map-Adam
// implementation (sequential training, same seed): the op-record gradient
// tapes, fused Adam, restructured epoch loops and the row kernels under the
// tape's matmuls and softmax — vector leaves and Go loops alike — must not
// change a single bit of the losses, threshold or scores. The golden bits
// were recorded on amd64; other architectures may contract floating-point
// expressions differently (FMA), so the comparison is gated.
//
// There are two columns because math.Exp is two functions on amd64 (see
// core's TestStreamScoreBitsPinned): the first is that original fingerprint,
// the second was recorded under GODEBUG=cpu.fma=off at the commit before the
// tape ran on the kernels, when every training matmul was a scalar loop.
func TestTrainingBitIdentityGolden(t *testing.T) {
	const (
		goldenEpochs1 = 3
		goldenEpochs2 = 3
		expProbe      = -0.1875
	)
	golden := map[uint64]struct {
		exp         string
		thr, scores uint64
	}{
		0x3fea876812c0877b: {"math.Exp with FMA", 0x3fda8e3d75baa011, 0x530ada4bb79b4e18},
		0x3fea876812c0877c: {"math.Exp without FMA", 0x3fda8e3d75baa00e, 0xd9e20c29fce45ed2},
	}
	if testing.Short() {
		t.Skip("training fingerprint is not fast")
	}
	eachKernelPath(t, func(t *testing.T) {
		e1, e2, thr, scores := trainFingerprint(t, 1)
		if runtime.GOARCH != "amd64" {
			t.Skipf("golden bits recorded on amd64, running on %s", runtime.GOARCH)
		}
		want, ok := golden[math.Float64bits(math.Exp(expProbe))]
		if !ok {
			t.Skipf("math.Exp(%v) is neither implementation the fingerprints were recorded with", expProbe)
		}
		t.Log(want.exp)
		if e1 != goldenEpochs1 || e2 != goldenEpochs2 {
			t.Fatalf("epochs (%d, %d) != golden (%d, %d)", e1, e2, goldenEpochs1, goldenEpochs2)
		}
		if thr != want.thr {
			t.Fatalf("threshold bits %#x != golden %#x", thr, want.thr)
		}
		if scores != want.scores {
			t.Fatalf("score hash %#x != golden %#x", scores, want.scores)
		}
	})
}

// jitteredBenchDataset is benchDataset on an irregular cadence: intervals
// cycle through 0.5, 1, 1.7, 0.8 and 1.3 time units, and each split has one
// gap of 40 units, so every training window's Δt column differs from the
// unit cadence and the time embedding's α gradient is not the same product
// at every row.
func jitteredBenchDataset() *aero.Dataset {
	d := benchDataset()
	steps := []float64{0.5, 1, 1.7, 0.8, 1.3}
	for _, s := range []*aero.Series{d.Train, d.Test} {
		at, gap := s.Time[0], s.Len()/2
		for i := range s.Time {
			s.Time[i] = at
			at += steps[i%len(steps)]
			if i == gap {
				at += 40
			}
		}
	}
	return d
}

// TestTrainingBitIdentityJitteredGolden is TestTrainingBitIdentityGolden off
// the unit cadence (jitteredBenchDataset), where Δt ≠ 1 reaches the time
// embedding's backward. Both columns were recorded before stage 1 shared one
// embedding per step across stars, the second under GODEBUG=cpu.fma=off.
func TestTrainingBitIdentityJitteredGolden(t *testing.T) {
	const (
		goldenEpochs1 = 3
		goldenEpochs2 = 3
		expProbe      = -0.1875
	)
	golden := map[uint64]struct {
		exp         string
		thr, scores uint64
	}{
		0x3fea876812c0877b: {"math.Exp with FMA", 0x3fda56288d5c87b2, 0x7d1014a97712f35f},
		0x3fea876812c0877c: {"math.Exp without FMA", 0x3fda56288d5c87b1, 0xf23c4340eb0b87f0},
	}
	if testing.Short() {
		t.Skip("training fingerprint is not fast")
	}
	eachKernelPath(t, func(t *testing.T) {
		e1, e2, thr, scores := trainFingerprintOn(t, jitteredBenchDataset(), 1)
		if runtime.GOARCH != "amd64" {
			t.Skipf("golden bits recorded on amd64, running on %s", runtime.GOARCH)
		}
		want, ok := golden[math.Float64bits(math.Exp(expProbe))]
		if !ok {
			t.Skipf("math.Exp(%v) is neither implementation the fingerprints were recorded with", expProbe)
		}
		t.Log(want.exp)
		if e1 != goldenEpochs1 || e2 != goldenEpochs2 {
			t.Fatalf("epochs (%d, %d) != golden (%d, %d)", e1, e2, goldenEpochs1, goldenEpochs2)
		}
		if thr != want.thr {
			t.Fatalf("threshold bits %#x != golden %#x", thr, want.thr)
		}
		if scores != want.scores {
			t.Fatalf("score hash %#x != golden %#x", scores, want.scores)
		}
	})
}
