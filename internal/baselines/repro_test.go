package baselines

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

// donutScoresHash holds the FNV-1a hashes of Donut's reproConfig scores as
// the lock-guarded backward pass left them at Workers 1, where the stars'
// gradients reached the shared parameters in ascending star order. The
// ordered flush must keep exactly those sums, at every Workers value. There
// is a column per math.Exp on amd64: with FMA, and without (an older CPU, or
// GODEBUG=cpu.fma=off), as in core's TestStreamScoreBitsPinned.
var donutScoresHash = [2]uint64{0x9c64288c8c87425e, 0x631980da417fa2fe}

// expColumn picks donutScoresHash's column from the bits of one math.Exp
// value; ok is false off amd64 or on a math.Exp that is neither.
func expColumn() (column int, ok bool) {
	if runtime.GOARCH != "amd64" {
		return 0, false
	}
	switch math.Float64bits(math.Exp(-0.1875)) {
	case 0x3fea876812c0877b:
		return 0, true
	case 0x3fea876812c0877c:
		return 1, true
	}
	return 0, false
}

// scoresHash folds every score's bits into one FNV-1a hash.
func scoresHash(scores [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range scores {
		for _, s := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// reproConfig is tinyConfig cut to two epochs, so every deep baseline fits
// in well under a second even under the race detector.
func reproConfig(workers int) Config {
	c := tinyConfig()
	c.Epochs = 2
	c.Workers = workers
	return c
}

func fitScores(t *testing.T, det Detector) [][]float64 {
	t.Helper()
	d := tiny()
	if err := det.Fit(d.Train); err != nil {
		t.Fatal(err)
	}
	s, err := det.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDeepBaselinesReproducible fits every trained baseline twice with four
// workers on four Ps and requires bit-equal scores: training must not let
// the scheduler choose the order of the parameter-gradient additions.
func TestDeepBaselinesReproducible(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctors := []func(Config) Detector{
		func(c Config) Detector { return NewDonut(c) },
		func(c Config) Detector { return NewOmniAnomaly(c) },
		func(c Config) Detector { return NewAnomalyTransformer(c) },
		func(c Config) Detector { return NewTranAD(c) },
		func(c Config) Detector { return NewGDN(c) },
		func(c Config) Detector { return NewESG(c) },
		func(c Config) Detector { return NewTimesNet(c) },
	}
	for _, ctor := range ctors {
		name := ctor(reproConfig(4)).Name()
		t.Run(name, func(t *testing.T) {
			first := fitScores(t, ctor(reproConfig(4)))
			second := fitScores(t, ctor(reproConfig(4)))
			diff := 0
			for v := range first {
				for i := range first[v] {
					if math.Float64bits(first[v][i]) != math.Float64bits(second[v][i]) {
						diff++
					}
				}
			}
			if diff != 0 {
				t.Fatalf("%d of %d scores differ between two fits", diff, len(first)*len(first[0]))
			}
		})
	}
	t.Run("DonutPinned", func(t *testing.T) {
		column, ok := expColumn()
		if !ok {
			t.Skip("Donut's score hash is pinned on amd64, for the two math.Exp implementations")
		}
		want := donutScoresHash[column]
		for _, workers := range []int{1, 4} {
			if got := scoresHash(fitScores(t, NewDonut(reproConfig(workers)))); got != want {
				t.Fatalf("Donut scores at Workers %d hash %#x, want %#x", workers, got, want)
			}
		}
	})
}
