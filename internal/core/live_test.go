package core

import (
	"runtime"
	"testing"

	"aero/internal/dataset"
)

// detectorLiveBytes is the most live heap an AERO detector at the serving
// benchmark's geometry may hold once warm, its share of the model's scratch
// free list included: 237,870 B as measured on amd64 (stage-1 activation
// rings 229 KB, eight stars × six rings; raw window rings, rolling errors
// and the free list's one scratch over 32 detectors the rest) plus 10 %.
// It was 346,474 B while the input projections were kept, and 273,615 B
// while every detector held its own forward scratch and normalized ring.
const detectorLiveBytes = 261657

// liveDetectors is the live-bytes tests' fixture: 32 detectors on one model
// at the benchmark's geometry (8 stars, W 48, ω 16, d_m 16, one encoder
// layer), each warmed on 64 scored frames that take both the exact and the
// benign path, and the model's scratch free list emptied before the
// detectors were built, so every scratch the warm-up borrowed is counted
// in before's delta.
func liveDetectors(t *testing.T) (m *Model, held []*StreamDetector, before uint64) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("live bytes are measured on amd64")
	}
	const detectors = 32
	cfg := testConfig()
	cfg.LongWindow, cfg.ShortWindow = 48, 16
	cfg.MaxEpochs, cfg.TrainStride = 1, 24
	warm := cfg.LongWindow + 64
	d := dataset.SyntheticConfig{
		Name: "live", N: 8, TrainLen: 200, TestLen: warm,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 23,
	}.Generate()
	m, err := New(cfg, d.Train.N())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ModelDim != 16 || cfg.EncoderLayers != 1 {
		t.Fatalf("d_m %d, %d encoder layers: not the benchmark's geometry", cfg.ModelDim, cfg.EncoderLayers)
	}
	if err := m.Fit(d.Train); err != nil {
		t.Fatal(err)
	}

	m.scratches.free = nil // training's scratches
	before = liveHeap()
	held = make([]*StreamDetector, detectors)
	for i := range held {
		if held[i], err = NewStreamDetector(m); err != nil {
			t.Fatal(err)
		}
		for ti := 0; ti < warm; ti++ {
			pushAt(t, held[i], d, ti)
		}
		if st := held[i].IncrementalStats(); st.Incremental == 0 || st.Incremental == st.Frames {
			t.Fatalf("warm-up took one path only: %+v", st)
		}
	}
	return m, held, before
}

// liveHeap is the live heap after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStreamDetectorLiveBytes counts what an AERO tenant's detector costs:
// the live heap 32 warm detectors and their model's free list hold, per
// detector. The stage-1 activation captures, one per star, are most of it;
// a layout change that grows them back, or moves bytes into the shared
// scratch, fails it.
func TestStreamDetectorLiveBytes(t *testing.T) {
	_, held, before := liveDetectors(t)
	after := liveHeap()
	runtime.KeepAlive(held)
	perDetector := (int64(after) - int64(before)) / int64(len(held))
	t.Logf("%d B live per warm eight-star AERO detector", perDetector)
	if perDetector > detectorLiveBytes {
		t.Fatalf("a warm eight-star AERO detector holds %d B live, bound %d B", perDetector, detectorLiveBytes)
	}
}

// TestGraphSnapshotHoldsNothing pins GraphSnapshot as an observation in
// memory too: a dashboard that snapshots every warm tenant's graph leaves
// the detectors' live heap as it found it. Only the model's free list may
// grow (a scratch's own stage-1 state, sized on a snapshot's first use), so
// it is emptied before both measurements.
func TestGraphSnapshotHoldsNothing(t *testing.T) {
	m, held, _ := liveDetectors(t)
	m.scratches.free = nil
	before := liveHeap()
	for _, det := range held {
		if _, err := det.GraphSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	m.scratches.free = nil
	after := liveHeap()
	runtime.KeepAlive(held)
	grown := (int64(after) - int64(before)) / int64(len(held))
	t.Logf("%d B more live per detector after one graph snapshot each", grown)
	if grown > 1024 {
		t.Fatalf("a graph snapshot leaves %d B live behind per detector", grown)
	}
}
