package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"aero/internal/dataset"
)

// TestStreamScoreBitsPinned pins every bit of every score PushScores returns
// over fitIncVariant's 240-frame test split — benign incremental frames
// included, which the golden tests (alarms against the exact twin) never see.
// The hashes were recorded at the commit before the row kernels were blocked
// and the activation caches became rings; a kernel that reorders one float64
// operation in one output cell changes them, and they hold on tensor's vector
// leaves and on its Go loops alike.
//
// There are two columns because math.Exp is two functions on amd64: with
// cpu.X86.HasFMA it runs a fused sequence, without (an older CPU, or
// GODEBUG=cpu.fma=off) separate multiplies and adds, and the two differ in
// the last bit on about one argument in ten. The noFMA column was recorded
// at the commit before the vector leaves landed, under GODEBUG=cpu.fma=off;
// expProbe tells which math.Exp this process has. amd64 only: other
// architectures may fuse multiply-adds in compiled code too.
func TestStreamScoreBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("score bits are pinned on amd64")
	}
	const (
		expProbe      = -0.1875
		expProbeFMA   = 0x3fea876812c0877b
		expProbeNoFMA = 0x3fea876812c0877c
	)
	var column int
	switch got := math.Float64bits(math.Exp(expProbe)); got {
	case expProbeFMA:
		t.Log("math.Exp with FMA")
		column = 0
	case expProbeNoFMA:
		t.Log("math.Exp without FMA")
		column = 1
	default:
		t.Skipf("math.Exp(%v) = %#x is neither implementation the hashes were recorded with", expProbe, got)
	}
	cases := []struct {
		name    string
		variant Variant
		want    [2]uint64 // math.Exp with FMA, without
	}{
		{"full", VariantFull, [2]uint64{0x1ddf56a290768f87, 0xfed0b2ae0500bd4a}},
		{"multivariate-input", VariantMultivariateInput, [2]uint64{0x2bd17dfdc474e6ed, 0x82b81358b09a97a8}},
		{"dynamic-graph", VariantDynamicGraph, [2]uint64{0x6a93851a44398a45, 0x74d975340a4b9669}},
		{"no-short-window", VariantNoShortWindow, [2]uint64{0xb686f6dab50f9ed7, 0x548eb59b582b590a}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, d := fitIncVariant(t, tc.variant)
			eachKernelPath(t, func(t *testing.T) { scoreBitsCase(t, m, d, tc.want[column]) })
		})
	}
}

func scoreBitsCase(t *testing.T, m *Model, d *dataset.Dataset, want uint64) {
	det, err := NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	frame := Frame{Magnitudes: make([]float64, d.Test.N())}
	for i := 0; i < d.Test.Len(); i++ {
		frame.Time = d.Test.Time[i]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = d.Test.Data[v][i]
		}
		scores, err := det.PushScores(frame)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range scores {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
			h.Write(b[:])
		}
	}
	st := det.IncrementalStats()
	if st.Frames == 0 || st.Incremental*5 < st.Frames*4 {
		t.Fatalf("incremental path served %d of %d frames; the pin is vacuous", st.Incremental, st.Frames)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("score bits hash %#016x, pinned %#016x (%d of %d frames incremental)",
			got, want, st.Incremental, st.Frames)
	}
}
