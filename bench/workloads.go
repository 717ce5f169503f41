package main

import (
	"fmt"
	"math/rand"
	"time"

	"aero"
	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
)

const (
	variates  = 8
	warmCount = 64 // frames every tenant scores before the measured phase

	// skySeed fixes the sky every run observes and the model trained on
	// it. The run's --seed draws what changes from night to night: where
	// in the sky's cycle each field starts and the photometric noise on
	// every frame. Skies and models drawn from seeds 1..10 raise the
	// boundary guard on anything from 4 % to 18 % of frames, which moves
	// throughput by 2.5x; that is a property of the draw, not of the code,
	// and a benchmark that has to repeat across seeds cannot carry it. Sky
	// 6 is the draw with the widest gap between the quiet mix (4.5 % of
	// frames recomputed) and the storm mix (10.5 %).
	skySeed = 6
	// obsNoise is the sd of the per-frame noise, a quarter of the sky's
	// own (0.2): enough to decorrelate seeds, too little to move the
	// score distribution the tail models were calibrated on.
	obsNoise    = 0.05
	noisePeriod = 1021 // prime, so sky (2000) x noise never realigns within a run
)

// How a workload offers its frames.
const (
	loopClosed = "closed" // one generator, next frame as soon as Ingest returns
	loopOpen   = "open"   // all tenants emit one frame per tick, on a schedule
	loopWire   = "wire"   // one sender per loopback connection, closed loop
)

// spec is one workload: which backend serves, what the sky looks like,
// how frames are offered, and how much work one block is. A block is
// blockPerTenant frames on every streaming tenant; throughput and CPU are
// taken per block and reported as the median block, so a host stall
// costs one block, not the run.
type spec struct {
	name, why string
	kind      string // backend kind of the streaming tenants: "aero" or "fluxev"
	loop      string

	tenants int // streaming tenants
	idle    int // tenants subscribed and warm that receive nothing

	segments int     // anomaly segments in the 2000-frame test split
	noisePct float64 // share of points under concurrent noise
	trainLen int     // training split length, what sizes set-up

	blockPerTenant int
	tick           time.Duration // open loop only
	// capRate bounds frames per second per tenant, only to size the
	// preallocated sample arrays; reaching it ends the phase early.
	capRate int
}

var workloads = []spec{
	{
		name: "aero-sat", kind: core.KindAERO, loop: loopClosed,
		why:     "32 AERO+DSPOT fields fed as fast as the engine takes them on a quiet sky: core's incremental forward does the work, so this is capacity",
		tenants: 32, segments: 3, noisePct: 2, trainLen: 1300,
		blockPerTenant: 64, capRate: 2000,
	},
	{
		name: "aero-storm", kind: core.KindAERO, loop: loopClosed,
		why:     "same fields under an alarm-dense sky: core's exact-recompute guard, DSPOT refits, fan-in and triage carry twice the load, so a gain bought on the benign path shows its cost",
		tenants: 32, segments: 40, noisePct: 20, trainLen: 1300,
		blockPerTenant: 64, capRate: 2000,
	},
	{
		name: "aero-open", kind: core.KindAERO, loop: loopOpen,
		why:     "same fields on a 20 ms survey tick at a quarter of capacity: verdict latency without a standing queue, set by refreshes that share a tick",
		tenants: 32, segments: 3, noisePct: 2, trainLen: 1300,
		blockPerTenant: 25, tick: 20 * time.Millisecond, capRate: 100,
	},
	{
		name: "wire-cheap", kind: baselines.KindFluxEV, loop: loopWire,
		why:     "2 fluxev+dspot fields over loopback TCP among 2048 idle ones: scoring is sub-microsecond, so ingest and engine overhead are the work and core does none",
		tenants: 2, idle: 2048, segments: 3, noisePct: 2, trainLen: 2000,
		blockPerTenant: 32768, capRate: 600000,
	},
}

// smoke shrinks a workload to test size: same code paths, seconds of
// work turned into milliseconds.
func (sp spec) smoke() spec {
	sp.trainLen = 150
	if sp.tenants > 2 {
		sp.tenants = 2
	}
	if sp.idle > 8 {
		sp.idle = 8
	}
	switch {
	case sp.loop == loopOpen:
		sp.blockPerTenant, sp.tick = 6, 2*time.Millisecond
	case sp.kind == core.KindAERO:
		sp.blockPerTenant = 8
	default:
		sp.blockPerTenant = 256
	}
	return sp
}

func findWorkload(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// artifacts is everything set-up derives from the seed before a tenant
// exists: the dataset, the trained backend and the DSPOT calibration.
type artifacts struct {
	sp       spec
	rows     [][]float64 // test split, one frame per row
	model    *aero.Model // AERO workloads
	artifact []byte      // published artifact of the workload's kind
	calib    [][]float64 // per-variate train-split scores for DSPOT
}

func aeroConfig(seed int64, smoke bool) aero.Config {
	c := aero.SmallConfig()
	c.LongWindow, c.ShortWindow = 48, 16 // the bench_test.go shape
	c.MaxEpochs, c.Patience = 3, 3       // a fixed epoch count: no early stop, so set-up repeats
	c.TrainStride, c.EvalStride = 24, 16
	c.Seed = seed
	if smoke {
		c.LongWindow, c.ShortWindow, c.MaxEpochs = 24, 8, 4
	}
	return c
}

func buildArtifacts(sp spec, smoke bool) (*artifacts, error) {
	const seed = skySeed
	d := aero.SyntheticConfig{
		Name: sp.name, N: variates, TrainLen: sp.trainLen, TestLen: 2000,
		NoiseVariates: 6, AnomalySegments: sp.segments, NoisePct: sp.noisePct,
		VariableFrac: 0.5, Seed: seed,
	}.Generate()
	art := &artifacts{sp: sp, rows: make([][]float64, d.Test.Len())}
	for t := range art.rows {
		row := make([]float64, variates)
		for v := range row {
			row[v] = d.Test.Data[v][t]
		}
		art.rows[t] = row
	}
	var scratch aero.StreamBackend
	var err error
	switch sp.kind {
	case core.KindAERO:
		if art.model, err = aero.New(aeroConfig(seed, smoke), variates); err != nil {
			return nil, err
		}
		if err = art.model.Fit(d.Train); err != nil {
			return nil, fmt.Errorf("train aero: %w", err)
		}
		if art.artifact, err = art.model.MarshalBytes(); err != nil {
			return nil, err
		}
		scratch, err = aero.NewStreamDetectorWorkers(art.model, 1)
	default:
		if art.artifact, err = aero.TrainBackend(sp.kind, d.Train, aero.SmallBackendOptions()); err != nil {
			return nil, fmt.Errorf("train %s: %w", sp.kind, err)
		}
		scratch, err = baselines.OpenStreamFluxEV(art.artifact)
	}
	if err != nil {
		return nil, err
	}
	if art.calib, err = aero.StreamBackendScores(scratch, d.Train); err != nil {
		return nil, fmt.Errorf("dspot calibration replay: %w", err)
	}
	return art, nil
}

// stage builds one tenant's bare serving chain, inner backend + DSPOT,
// exactly as a deployment would. With a recorder it is the traced chain:
// the same stage over a score-span decorator.
func (a *artifacts) stage(rec *recorder) (*backend.DSPOTStage, error) {
	var inner core.StreamBackend
	if a.model != nil {
		det, err := aero.NewStreamDetectorWorkers(a.model, 1)
		if err != nil {
			return nil, err
		}
		inner = det
		if rec != nil {
			inner = &aeroScoreSpan{StreamDetector: det, rec: rec}
		}
	} else {
		det, err := baselines.OpenStreamFluxEV(a.artifact)
		if err != nil {
			return nil, err
		}
		inner = det
		if rec != nil {
			inner = &cheapScoreSpan{StreamFluxEV: det, rec: rec}
		}
	}
	return aero.NewDSPOTStage(inner, aero.DefaultDSPOTConfig(), a.calib)
}

// feed is one tenant's view of the sky: the test split replayed from its
// own offset, wrapped, under its own observation noise. Frame n of a feed
// is a pure function of (seed, tenant, n), which is what lets the output
// check replay it.
type feed struct {
	off   int
	noise []float64 // noisePeriod rows of variates; nil for a noiseless feed
	buf   [variates]float64
}

func newFeed(seed int64, tenant, skyLen int) *feed {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(tenant)))
	fd := &feed{off: rng.Intn(skyLen), noise: make([]float64, noisePeriod*variates)}
	for i := range fd.noise {
		fd.noise[i] = obsNoise * rng.NormFloat64()
	}
	return fd
}

// frame returns the feed's frame n, with strictly increasing time. The
// magnitudes live in the feed's buffer until the next call; Ingest and
// Send copy them.
func (a *artifacts) frame(fd *feed, n int) core.Frame {
	row := a.rows[(fd.off+n)%len(a.rows)]
	if fd.noise == nil {
		return core.Frame{Time: float64(n), Magnitudes: row}
	}
	noise := fd.noise[(n%noisePeriod)*variates:]
	for v := range fd.buf {
		fd.buf[v] = row[v] + noise[v]
	}
	return core.Frame{Time: float64(n), Magnitudes: fd.buf[:]}
}
