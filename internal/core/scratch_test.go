package core

import (
	"math"
	"sync"
	"testing"
)

// TestSharedScratchConcurrentScores holds the model's scratch free list to
// what a scratch per detector gave: eight detectors on one model are pushed
// from four goroutines while two more take graph snapshots of them, each
// push and snapshot under the detector's own lock as the engine's
// subscription lock serializes them, and Model.Scores runs on the same
// model. Every score bit must equal the same detectors' scores pushed one at
// a time, and Scores must equal its own sequential result. Run it under
// -race: the forwards in flight borrow scratches from one list.
func TestSharedScratchConcurrentScores(t *testing.T) {
	const detectors, pushers, observers = 8, 4, 2
	m, d := fitIncVariant(t, VariantFull)
	frames := d.Test.Len()
	// Detector i replays the test split rotated by 7·i frames, on the
	// split's own times, so the detectors score different windows.
	frame := func(i, ti int) Frame {
		f := Frame{Time: d.Test.Time[ti], Magnitudes: make([]float64, d.Test.N())}
		for v := range f.Magnitudes {
			f.Magnitudes[v] = d.Test.Data[v][(ti+7*i)%frames]
		}
		return f
	}
	push := func(det *StreamDetector, f Frame) []float64 {
		scores, err := det.PushScores(f)
		if err != nil {
			t.Error(err)
			return nil
		}
		return append([]float64(nil), scores...)
	}
	newDetectors := func() []*StreamDetector {
		dets := make([]*StreamDetector, detectors)
		for i := range dets {
			var err error
			if dets[i], err = NewStreamDetector(m); err != nil {
				t.Fatal(err)
			}
		}
		return dets
	}

	want := make([][][]float64, detectors)
	for i, det := range newDetectors() {
		for ti := 0; ti < frames; ti++ {
			want[i] = append(want[i], push(det, frame(i, ti)))
		}
	}
	wantBatch, err := m.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}

	dets := newDetectors()
	locks := make([]sync.Mutex, detectors)
	got := make([][][]float64, detectors)
	var pushing, observing sync.WaitGroup
	for g := 0; g < pushers; g++ {
		pushing.Add(1)
		go func(g int) {
			defer pushing.Done()
			for ti := 0; ti < frames; ti++ {
				for i := g; i < detectors; i += pushers {
					locks[i].Lock()
					got[i] = append(got[i], push(dets[i], frame(i, ti)))
					locks[i].Unlock()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	snapshots := make([]int, observers)
	for g := 0; g < observers; g++ {
		observing.Add(1)
		go func(g int) {
			defer observing.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i := g; i < detectors; i += observers {
					locks[i].Lock()
					if dets[i].Ready() {
						if _, err := dets[i].GraphSnapshot(); err != nil {
							t.Error(err)
						}
						snapshots[g]++
					}
					locks[i].Unlock()
				}
			}
		}(g)
	}
	var gotBatch [][]float64
	var batchErr error
	observing.Add(1)
	go func() {
		defer observing.Done()
		gotBatch, batchErr = m.Scores(d.Test)
	}()
	pushing.Wait()
	close(done)
	observing.Wait()
	if t.Failed() {
		return
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}

	for i := range want {
		for ti := range want[i] {
			for v, w := range want[i][ti] {
				if g := got[i][ti][v]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("detector %d frame %d variate %d: score %v concurrently, %v alone", i, ti, v, g, w)
				}
			}
		}
	}
	for v := range wantBatch {
		for ti, w := range wantBatch[v] {
			if g := gotBatch[v][ti]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Scores variate %d time %d: %v concurrently, %v alone", v, ti, g, w)
			}
		}
	}
	for g, n := range snapshots {
		if n == 0 {
			t.Fatalf("observer %d took no snapshot; the check is vacuous", g)
		}
	}
}
