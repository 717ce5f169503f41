// Benchmarks regenerating every table and figure of the paper at
// ScaleTiny (shape-preserving smoke profile; run cmd/aerobench with
// -scale small or -scale paper for meaningful numbers), plus targeted
// benchmarks for AERO's training/inference cost and the EvalStride
// approximation called out in DESIGN.md.
package aero_test

import (
	"fmt"
	"io"
	"math"
	"testing"

	"aero"
	"aero/internal/backend"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
	"aero/internal/experiments"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Scale: experiments.ScaleTiny}
}

// BenchmarkTable1DatasetStats regenerates Table I (dataset statistics).
func BenchmarkTable1DatasetStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunTable1(io.Discard, tinyOpts())
	}
}

// BenchmarkTable2Synthetic regenerates Table II (12 methods × 3 synthetic
// datasets).
func BenchmarkTable2Synthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable2(io.Discard, tinyOpts())
	}
}

// BenchmarkTable3Astrosets regenerates Table III (12 methods × 3 simulated
// GWAC Astrosets).
func BenchmarkTable3Astrosets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable3(io.Discard, tinyOpts())
	}
}

// BenchmarkTable4Ablation regenerates Table IV (8 AERO variants × 3
// datasets).
func BenchmarkTable4Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunTable4(io.Discard, tinyOpts())
	}
}

// BenchmarkFig5AnomalyShapes regenerates Fig. 5 (injected anomaly shapes).
func BenchmarkFig5AnomalyShapes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.RunFig5(io.Discard, tinyOpts())
	}
}

// BenchmarkFig6Efficiency regenerates Fig. 6 (train/inference time per
// method).
func BenchmarkFig6Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig6(io.Discard, tinyOpts())
	}
}

// BenchmarkFig7Scalability regenerates Fig. 7 (memory + inference time vs
// number of stars).
func BenchmarkFig7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig7(io.Discard, tinyOpts())
	}
}

// BenchmarkFig8GraphStructure regenerates Fig. 8 (window-wise graphs vs
// ground truth).
func BenchmarkFig8GraphStructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig8(io.Discard, tinyOpts())
	}
}

// BenchmarkFig9StageErrors regenerates Fig. 9 (stage-1 vs final errors).
func BenchmarkFig9StageErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig9(io.Discard, tinyOpts())
	}
}

// BenchmarkFig10Sensitivity regenerates Fig. 10 (hyperparameter sweeps).
func BenchmarkFig10Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunFig10(io.Discard, tinyOpts())
	}
}

// benchDataset builds the small field reused by the targeted benchmarks.
func benchDataset() *dataset.Dataset {
	return dataset.SyntheticConfig{
		Name: "bench", N: 6, TrainLen: 350, TestLen: 300,
		NoiseVariates: 4, AnomalySegments: 1, NoisePct: 2,
		VariableFrac: 0.5, Seed: 3,
	}.Generate()
}

func benchConfig() aero.Config {
	c := aero.SmallConfig()
	c.LongWindow = 48
	c.ShortWindow = 16
	c.MaxEpochs = 3
	c.TrainStride = 24
	c.EvalStride = 16
	return c
}

// BenchmarkAEROTraining measures two-stage training cost (stage 1 + stage
// 2 at the ScaleTiny profile): one op is a full Fit — both training stages
// plus threshold calibration. The training path reuses per-worker grad
// tapes, arena-backed gradients and fused Adam moment slices, so allocs/op
// here is the regression signal for the allocation-free training path
// (DESIGN.md "Training path"); TestStage1StepSteadyStateAllocs and
// TestStage2StepSteadyStateAllocs in internal/core pin the per-step budget
// at zero.
func BenchmarkAEROTraining(b *testing.B) {
	d := benchDataset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := aero.New(benchConfig(), d.Train.N())
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Fit(d.Train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAEROInference measures online scoring cost over a test split.
func BenchmarkAEROInference(b *testing.B) {
	d := benchDataset()
	m, err := aero.New(benchConfig(), d.Train.N())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Scores(d.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEvalStride quantifies the cost of the stride-k online
// scoring approximation vs the paper-exact stride 1 (DESIGN.md deviation).
func BenchmarkAblationEvalStride(b *testing.B) {
	d := benchDataset()
	for _, stride := range []int{1, 8, 16} {
		stride := stride
		b.Run(map[int]string{1: "stride1-paper-exact", 8: "stride8", 16: "stride16"}[stride], func(b *testing.B) {
			cfg := benchConfig()
			cfg.EvalStride = stride
			m, err := aero.New(cfg, d.Train.N())
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Fit(d.Train); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Scores(d.Test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamPush measures the steady-state cost of one online frame
// through StreamDetector.Push — the per-frame hot path of §III-F. The
// detector is warmed past one full long window before timing so the
// numbers reflect the scoring path, not the warmup appends. Which row-kernel
// path the host took is decided once at internal/tensor's init: the AVX2 leaves
// on amd64 with AVX2+FMA, the Go loops anywhere else and under
// GODEBUG=cpu.fma=off (internal/nn's BenchmarkAttendRow/BenchmarkApplyRow
// time both side by side).
func BenchmarkStreamPush(b *testing.B) { benchStreamPush(b, false) }

// BenchmarkStreamPushExact is BenchmarkStreamPush with the incremental
// caches invalidated before every push, so every frame is an exact refresh:
// the stage-1 window pass over every star, then stage 2's newest column —
// what a guard or invalidation refresh costs.
func BenchmarkStreamPushExact(b *testing.B) { benchStreamPush(b, true) }

func benchStreamPush(b *testing.B, exact bool) {
	d := benchDataset()
	m, err := aero.New(benchConfig(), d.Train.N())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		b.Fatal(err)
	}
	s, err := aero.NewStreamDetector(m)
	if err != nil {
		b.Fatal(err)
	}
	frame := aero.Frame{Magnitudes: make([]float64, d.Test.N())}
	t := 0
	push := func() {
		idx := t % d.Test.Len()
		frame.Time = float64(t)
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][idx]
		}
		if exact {
			s.InvalidateIncremental()
		}
		if _, err := s.Push(frame); err != nil {
			b.Fatal(err)
		}
		t++
	}
	for i := 0; i < m.Config().LongWindow+8; i++ {
		push()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		push()
	}
}

// BenchmarkBackendStreamPush measures the steady-state per-frame cost of
// every registered backend kind behind the StreamBackend contract —
// static fitted threshold and DSPOT-wrapped — on the same field the AERO
// benchmarks use. The streaming FluxEV adapter is the row that justifies
// multi-backend serving: its push costs well under a microsecond against
// AERO's milliseconds, at the same zero-alloc budget (pinned in
// internal/baselines and internal/backend).
func BenchmarkBackendStreamPush(b *testing.B) {
	d := benchDataset()
	aeroModel, err := aero.New(benchConfig(), d.Train.N())
	if err != nil {
		b.Fatal(err)
	}
	if err := aeroModel.Fit(d.Train); err != nil {
		b.Fatal(err)
	}
	aeroArtifact, err := aeroModel.MarshalBytes()
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range aero.BackendKinds() {
		spec, ok := aero.LookupBackend(kind)
		if !ok {
			b.Fatalf("kind %s not registered", kind)
		}
		artifact := aeroArtifact
		if kind != "aero" {
			if artifact, err = spec.Train(d.Train, aero.SmallBackendOptions()); err != nil {
				b.Fatal(err)
			}
		}
		for _, adaptive := range []bool{false, true} {
			var det aero.StreamBackend
			if adaptive {
				det, err = backend.OpenAdaptive(spec, artifact, aero.DefaultDSPOTConfig(), d.Train)
			} else {
				det, err = spec.Open(artifact)
			}
			if err != nil {
				b.Fatal(err)
			}
			// The time cursor and warm-up live outside the closure: the
			// framework re-invokes it with growing b.N against the same
			// warm backend, and a reset cursor would violate the
			// monotonic frame-time check.
			frame := aero.Frame{Magnitudes: make([]float64, d.Test.N())}
			t := 0
			push := func(b *testing.B) {
				idx := t % d.Test.Len()
				frame.Time = float64(t)
				for v := 0; v < d.Test.N(); v++ {
					frame.Magnitudes[v] = d.Test.Data[v][idx]
				}
				if _, err := det.Push(frame); err != nil {
					b.Fatal(err)
				}
				t++
			}
			b.Run(det.Kind(), func(b *testing.B) {
				for t < 2*128 { // past the largest adapter window, once
					push(b)
				}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					push(b)
				}
			})
		}
	}
}

// BenchmarkTriagePush measures the benign-path cost of one alarm
// through the four-stage triage pipeline — dedup probe, episode
// extension, watermark bookkeeping — across 8 tenants with open
// episodes. This is the per-alarm overhead -triage adds on top of the
// engine's fan-in channel, and it must hold the same steady-state
// budget as every other hot path: zero allocations
// (TestTriagePushAllocs in internal/alerts pins it).
func BenchmarkTriagePush(b *testing.B) {
	cfg := aero.TriageConfig{BucketWidth: 1, EpisodeGap: 4, MaxEpisodeLen: math.MaxFloat64 / 4, Window: 2}
	p := aero.NewTriagePipeline(cfg)
	const tenants = 8
	var ids [tenants]string
	for i := range ids {
		ids[i] = fmt.Sprintf("field-%d", i)
	}
	t, i := 0, 0
	push := func() {
		a := engine.Alarm{Sub: ids[i%tenants], Alarm: core.Alarm{Variate: 0, Time: float64(t), Score: 1}}
		if len(p.Push(a)) != 0 {
			b.Fatal("benign push emitted incidents")
		}
		if i++; i%tenants == 0 {
			t++ // one dedup bucket per round: every push survives and extends
		}
	}
	for k := 0; k < 8*tenants; k++ {
		push()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for k := 0; k < b.N; k++ {
		push()
	}
}

// warmBenchDetector trains the bench model and pushes one full window plus
// a margin, returning the warm detector ready for lifecycle benchmarks.
func warmBenchDetector(b *testing.B) (*aero.StreamDetector, *aero.Model, *dataset.Dataset) {
	b.Helper()
	d := benchDataset()
	m, err := aero.New(benchConfig(), d.Train.N())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		b.Fatal(err)
	}
	s, err := aero.NewStreamDetector(m)
	if err != nil {
		b.Fatal(err)
	}
	frame := aero.Frame{Magnitudes: make([]float64, d.Test.N())}
	for t := 0; t < m.Config().LongWindow+8; t++ {
		frame.Time = float64(t)
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][t%d.Test.Len()]
		}
		if _, err := s.Push(frame); err != nil {
			b.Fatal(err)
		}
	}
	return s, m, d
}

// BenchmarkDetectorSnapshot measures serializing one warm detector state —
// the per-tenant cost of a lifecycle checkpoint. The snapshot size is
// reported as the snapshot-bytes metric.
func BenchmarkDetectorSnapshot(b *testing.B) {
	s, _, _ := warmBenchDetector(b)
	b.ResetTimer()
	b.ReportAllocs()
	var blob []byte
	for i := 0; i < b.N; i++ {
		var err error
		if blob, err = s.SnapshotState(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "snapshot-bytes")
}

// BenchmarkDetectorRestore measures installing a warm snapshot into a
// detector — the per-tenant cost of a zero-warmup restart.
func BenchmarkDetectorRestore(b *testing.B) {
	s, m, _ := warmBenchDetector(b)
	blob, err := s.SnapshotState()
	if err != nil {
		b.Fatal(err)
	}
	fresh, err := aero.NewStreamDetector(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := fresh.RestoreState(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "snapshot-bytes")
}

// BenchmarkSubscriptionSwap measures engine-level hot-swap latency: the
// frame-boundary installation of a new model into a warm serving tenant.
// Twins share the detector's state shape, so the swap keeps its buffers.
func BenchmarkSubscriptionSwap(b *testing.B) {
	d := benchDataset()
	m, err := aero.New(benchConfig(), d.Train.N())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/twin.json"
	if err := m.Save(path); err != nil {
		b.Fatal(err)
	}
	twin, err := aero.Load(path)
	if err != nil {
		b.Fatal(err)
	}
	e := aero.NewEngine(aero.EngineConfig{Shards: 1, Workers: 1})
	defer e.Close()
	go func() {
		for range e.Alarms() {
		}
	}()
	det, err := aero.NewStreamDetector(m)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := e.SubscribeBackend("swap-bench", det)
	if err != nil {
		b.Fatal(err)
	}
	frame := aero.Frame{Magnitudes: make([]float64, d.Test.N())}
	for t := 0; t < m.Config().LongWindow+8; t++ {
		frame.Time = float64(t)
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][t%d.Test.Len()]
		}
		if err := e.Ingest("swap-bench", frame); err != nil {
			b.Fatal(err)
		}
	}
	e.Flush()
	models := [2]*aero.Model{twin, m}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sub.Swap(models[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures multi-tenant engine throughput: one
// op is one frame ingested, routed through a shard queue, and scored by
// the worker pool. Tenants share one trained model; alarms are drained
// concurrently as a real deployment would.
func BenchmarkEngineThroughput(b *testing.B) {
	d := benchDataset()
	m, err := aero.New(benchConfig(), d.Train.N())
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Fit(d.Train); err != nil {
		b.Fatal(err)
	}
	e := aero.NewEngine(aero.EngineConfig{})
	const tenants = 4
	ids := make([]string, tenants)
	next := make([]int, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%d", i)
		det, err := aero.NewStreamDetector(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.SubscribeBackend(ids[i], det); err != nil {
			b.Fatal(err)
		}
	}
	go func() {
		for range e.Alarms() {
		}
	}()
	frame := aero.Frame{Magnitudes: make([]float64, d.Test.N())}
	push := func(tenant int) {
		idx := next[tenant] % d.Test.Len()
		frame.Time = float64(next[tenant])
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][idx]
		}
		if err := e.Ingest(ids[tenant], frame); err != nil {
			b.Fatal(err)
		}
		next[tenant]++
	}
	for i := 0; i < tenants*(m.Config().LongWindow+4); i++ {
		push(i % tenants)
	}
	e.Flush()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		push(i % tenants)
	}
	e.Flush()
	b.StopTimer()
	e.Close()
}

// BenchmarkAblationGraphVariants compares the window-wise graph against
// the static and dynamic graph ablations at equal budget.
func BenchmarkAblationGraphVariants(b *testing.B) {
	d := benchDataset()
	for _, v := range []core.Variant{core.VariantFull, core.VariantStaticGraph, core.VariantDynamicGraph} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchConfig()
				cfg.Variant = v
				m, err := aero.New(cfg, d.Train.N())
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Fit(d.Train); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
