package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// TestStreamScoreBitsPinned pins every bit of every score PushScores returns
// over fitIncVariant's 240-frame test split — benign incremental frames
// included, which the golden tests (alarms against the exact twin) never see.
// The hashes were recorded at the commit before the row kernels were blocked
// and the activation caches became rings; a kernel that reorders one float64
// operation in one output cell changes them. amd64 only: other architectures
// may fuse multiply-adds.
func TestStreamScoreBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("score bits are pinned on amd64")
	}
	cone := DefaultIncrementalPolicy()
	cone.Cone, cone.ShortCone = 3, 2
	cases := []struct {
		name    string
		variant Variant
		pol     IncrementalPolicy
		want    uint64
	}{
		{"full", VariantFull, DefaultIncrementalPolicy(), 0x1ddf56a290768f87},
		{"multivariate-input", VariantMultivariateInput, DefaultIncrementalPolicy(), 0x2bd17dfdc474e6ed},
		{"dynamic-graph", VariantDynamicGraph, DefaultIncrementalPolicy(), 0x6a93851a44398a45},
		{"no-short-window", VariantNoShortWindow, DefaultIncrementalPolicy(), 0xb686f6dab50f9ed7},
		// Cone > 1 walks several ring rows per layer per frame, the path no
		// benchmark workload exercises.
		{"full-cone3", VariantFull, cone, 0xef2b299e3ce77ab8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, d := fitIncVariant(t, tc.variant)
			det, err := NewStreamDetector(m)
			if err != nil {
				t.Fatal(err)
			}
			det.SetIncrementalPolicy(tc.pol)
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
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("score bits hash %#016x, pinned %#016x (%d of %d frames incremental)",
					got, tc.want, st.Incremental, st.Frames)
			}
		})
	}
}
