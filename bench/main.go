// Command bench is the repository's serving benchmark: four workloads
// over the engine, driven from outside through the public functions of
// aero and its internal packages, reporting four end-to-end metrics
// (untraced) or the per-layer metrics behind them (traced). README.md in
// this directory defines every metric and says why the workloads are what
// they are; BENCHMARK.json at the repository root is the contract a
// driver reads.
//
//	bash bench/run.sh                          # every workload, end-to-end metrics
//	bash bench/run.sh --workload aero-sat --seed 7 --seconds 15 --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	blocks   int
	smoke    bool
	outDir   string
	stdout   io.Writer
	stderr   io.Writer
}

func (o options) refDur() time.Duration {
	if o.smoke {
		return time.Millisecond
	}
	return 400 * time.Millisecond
}

func (o options) setups() int {
	if o.smoke {
		return 1
	}
	return 3
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all four")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and spans in bench/out/")
	flag.IntVar(&o.blocks, "blocks", 0, "measure exactly this many blocks instead of --seconds (fixed work: counts repeat exactly)")
	flag.BoolVar(&o.smoke, "smoke", false, "test sizes")
	flag.Parse()
	o.trace, o.outDir, o.stdout, o.stderr = trace != 0, "bench/out", os.Stdout, os.Stderr
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// metric and result are the driver's wire format: the last line a run
// prints for a workload is one result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures the selected workloads and reports whether every output
// check passed.
func run(o options) (bool, error) {
	if o.seed < 0 || o.seconds <= 0 && o.blocks <= 0 {
		return false, fmt.Errorf("need a seed >= 0 and --seconds > 0 or --blocks > 0")
	}
	specs := workloads
	if o.workload != "" {
		sp, ok := findWorkload(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		specs = []spec{sp}
	}
	fmt.Fprintf(o.stderr, "bench: nproc=%d GOMAXPROCS=%d GOGC=%d seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc(), o.seed)
	allOK := true
	for _, sp := range specs {
		if o.smoke {
			sp = sp.smoke()
		}
		var res result
		var defs []metricDef
		var err error
		if o.trace {
			defs = perLayer
			res, err = tracedResult(o, sp)
		} else {
			defs = endToEnd
			res, err = untracedResult(o, sp)
		}
		if err != nil {
			return false, fmt.Errorf("%s: %w", sp.name, err)
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return false, fmt.Errorf("%s: metric %s missing or not finite", sp.name, d.name)
			}
			fmt.Fprintf(o.stdout, "%-12s %-34s %16.6g %s\n", sp.name, d.name, m.Value, m.Unit)
		}
		fmt.Fprintf(o.stdout, "%-12s frames_attempted %d frames_failed %d\n", sp.name, res.Attempted, res.Failed)
		line, err := json.Marshal(res)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(o.stdout, "%s\n", line)
		allOK = allOK && res.Correct
	}
	return allOK, nil
}

func gogc() int {
	g := debug.SetGCPercent(100)
	debug.SetGCPercent(g)
	return g
}

// untracedResult is one untraced run of a workload: set-up (several
// times, median), the measured phase, the output check, and the
// end-to-end metrics.
func untracedResult(o options, sp spec) (result, error) {
	refBefore := refKernel(o.refDur())
	var g *rig
	var setups []float64
	for i := 0; i < o.setups(); i++ {
		if g != nil {
			g.close()
		}
		t0 := now()
		art, err := buildArtifacts(sp, o.smoke)
		if err != nil {
			return result{}, err
		}
		if g, err = instantiate(art, passConfig{seconds: o.seconds, blocks: o.blocks}, o.seed); err != nil {
			return result{}, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	r, err := g.measure(o.outDir)
	if err != nil {
		return result{}, err
	}
	refAfter := refKernel(o.refDur())
	report(o, sp, r, refBefore, refAfter)
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Unit: d.unit}
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: res.Metrics[name].Unit} }
	set("setup_s", median(setups))
	set("frames_per_s", r.fps)
	set("cpu_us_per_frame", r.cpuUs)
	set("heap_live_mb", r.heapMB)
	return res, nil
}

// report prints what a person reading a run wants beside the metrics:
// how much was measured, what failed, and whether the host held still.
func report(o options, sp spec, r *passResult, refBefore, refAfter float64) {
	fmt.Fprintf(o.stderr, "bench: %s: %d frames in %d blocks over %.2fs, %d latency samples; whole-phase %.1f frames/s, %.3f cpu-us/frame; %d incidents from %d alarms\n",
		sp.name, r.attempted, len(r.blockFps), float64(r.wallNs)/1e9, r.samples, r.fpsMean, r.cpuUsMean, r.incidents, r.alarmsIn)
	b := r.blockFps
	fmt.Fprintf(o.stderr, "bench: %s: block frames/s: min %.0f, quartiles %.0f %.0f %.0f, max %.0f\n",
		sp.name, b[0], quantile(b, 0.25), quantile(b, 0.5), quantile(b, 0.75), b[len(b)-1])
	fmt.Fprintf(o.stderr, "bench: %s: verdict latency, median block: p50 %.4g ms, p99 %.4g ms\n", sp.name, r.p50Ms, r.p99Ms)
	w := r.work.n
	fmt.Fprintf(o.stderr, "bench: %s: work counts: %d scored, %d incremental, %d boundary, %d scheduled refreshes; %d exceedances, %d refits; %d alarms\n",
		sp.name, r.scoredFrames, w[cIncremental], w[cBoundary], w[cScheduled], w[cExceedances], w[cRefits], w[cAlarms])
	for _, n := range r.notes {
		fmt.Fprintf(o.stderr, "bench: %s: FAILED: %s\n", sp.name, n)
	}
	fmt.Fprintf(o.stderr, "bench: %s: reference kernel %.3f ms before, %.3f ms after\n", sp.name, refBefore, refAfter)
	if math.Abs(refAfter-refBefore) > 0.15*math.Min(refBefore, refAfter) {
		fmt.Fprintf(o.stderr, "bench: %s: noisy host\n", sp.name)
	}
}
