package core

import (
	"runtime"
	"testing"

	"aero/internal/dataset"
)

// detectorLiveBytes is the most live heap an AERO detector at the serving
// benchmark's geometry may hold once warm: 274,735 B as measured on amd64
// (stage-1 activation rings 229 KB, eight stars × six rings; window rings,
// forward scratch and time-embedding cache the rest) plus 10 %. Before the
// input projections were recomputed instead of kept it was 346,474 B.
const detectorLiveBytes = 302209

// TestStreamDetectorLiveBytes counts what an AERO tenant's detector costs:
// 32 detectors on one model at the benchmark's geometry (8 stars, W 48,
// ω 16, d_m 16, one encoder layer), each warmed on 64 scored frames that
// take both the exact and the benign path, then the live heap they hold after a collection, per detector.
// The stage-1 activation captures, one per star, are most of it; a layout
// change that grows them back fails it.
func TestStreamDetectorLiveBytes(t *testing.T) {
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

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*StreamDetector, detectors)
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
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	perDetector := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / detectors
	t.Logf("%d B live per warm eight-star AERO detector", perDetector)
	if perDetector > detectorLiveBytes {
		t.Fatalf("a warm eight-star AERO detector holds %d B live, bound %d B", perDetector, detectorLiveBytes)
	}
}
