package backend_test

import (
	"runtime"
	"testing"

	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
)

// idleStageBytes is the most live heap an idle eight-star fluxev+dspot
// stage may hold after its warm-up: 3,498 B as measured on amd64 (tail
// bank 1.8 KB — eight 64 B stars and eight 20-score drift windows —,
// FluxEV window and stage 1.7 KB) plus 10 %. Before the tail bank it was
// 7,562 B; with an excess ring per star it was 6,378 B.
const idleStageBytes = 3848

// TestDSPOTStageIdleLiveBytes counts what an idle tenant costs, as the
// serving benchmark builds its idle tenants: 512 eight-star fluxev+dspot
// stages from one fitted-tail record, each warmed on 64 frames, then the
// live heap they hold after a collection, per stage. A layout change that
// grows a tenant's tail or window state back fails it.
func TestDSPOTStageIdleLiveBytes(t *testing.T) {
	const stages, warm = 512, 64
	d := dataset.SyntheticConfig{
		Name: "idle", N: 8, TrainLen: 400, TestLen: warm,
		NoiseVariates: 2, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: 23,
	}.Generate()
	spec, _ := backend.Get(baselines.KindFluxEV)
	artifact, err := spec.Train(d.Train, backend.SmallOptions())
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := spec.Open(artifact)
	if err != nil {
		t.Fatal(err)
	}
	calib, err := baselines.StreamScores(scratch, d.Train)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *backend.DSPOTStage {
		inner, err := spec.Open(artifact)
		if err != nil {
			t.Fatal(err)
		}
		stage, err := backend.NewDSPOTStage(inner, backend.DefaultDSPOTConfig(), calib)
		if err != nil {
			t.Fatal(err)
		}
		return stage
	}
	build() // fits the tails and leaves the record every stage below copies
	frames := make([]core.Frame, warm)
	for ti := range frames {
		frames[ti] = core.Frame{Time: d.Test.Time[ti], Magnitudes: make([]float64, d.Test.N())}
		for v := range frames[ti].Magnitudes {
			frames[ti].Magnitudes[v] = d.Test.Data[v][ti]
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*backend.DSPOTStage, stages)
	for i := range held {
		held[i] = build()
		for _, f := range frames {
			if _, err := held[i].Push(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	perStage := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / stages
	t.Logf("%d B live per idle eight-star stage", perStage)
	if perStage > idleStageBytes {
		t.Fatalf("an idle eight-star stage holds %d B live, bound %d B", perStage, idleStageBytes)
	}
}
