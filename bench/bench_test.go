package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"aero/internal/core"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables the
// program reports from in step, inside the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) || len(c.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: BENCHMARK.json has %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(c.EndToEnd) != len(endToEnd) || len(c.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(c.EndToEnd), len(endToEnd))
	}
	if len(c.PerLayer) != len(perLayer) || len(c.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(c.PerLayer), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	same := func(d metricDef, n, u, b string) {
		if d.name != n || d.unit != u || d.better != b {
			t.Errorf("BENCHMARK.json has %s [%s, %s], program %s [%s, %s]", n, u, b, d.name, d.unit, d.better)
		}
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] || b != "lower" && b != "higher" {
			t.Errorf("metric %q [%s, %s]: bad or repeated name, unit or direction", n, u, b)
		}
		seen[n] = true
	}
	for i, m := range c.EndToEnd {
		same(endToEnd[i], m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range c.PerLayer {
		same(perLayer[i], m.Name, m.Unit, m.Better)
		if perLayer[i].target == "" {
			t.Errorf("%s declares no target metric@workload", m.Name)
		}
	}
}

func smokeRun(t *testing.T, workload string, trace bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	ok, err := run(options{workload: workload, seed: 3, blocks: 2, trace: trace, smoke: true,
		outDir: t.TempDir(), stdout: &out, stderr: io.Discard})
	if err != nil || !ok {
		t.Fatalf("%s trace=%v: ok=%v err=%v\n%s", workload, trace, ok, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	return res, out.String()
}

// TestSmoke runs every workload at test size, untraced and traced: the
// outputs check out, and every metric BENCHMARK.json names is printed
// exactly once with its unit and is a number; end-to-end metrics are
// positive, per-layer ones that are not differences are not negative.
//
// The traced storm run is made twice: with --blocks the work is fixed, so
// the program's own work counts must be identical from run to run. If
// they are not, a workload has timing-dependent work and no time measured
// on it means anything.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	difference := regexp.MustCompile(`overhead|ingest\.cpu_us|guard_ns|evt\.step_us`)
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			res, text := smokeRun(t, w.Name, trace)
			if trace && w.Name == "aero-storm" {
				again, _ := smokeRun(t, w.Name, trace)
				for _, d := range perLayer {
					if d.count && res.Metrics[d.name].Value != again.Metrics[d.name].Value {
						t.Errorf("count %s differs between two runs of the same work: %v, %v",
							d.name, res.Metrics[d.name].Value, again.Metrics[d.name].Value)
					}
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for n, u := range want {
				m, ok := res.Metrics[n]
				switch {
				case !ok || m.Unit != u || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %+v, want a number in %s", w.Name, n, m, u)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, n, m.Value)
				case trace && m.Value < 0 && !difference.MatchString(n):
					t.Errorf("%s: per-layer %s = %v, want >= 0", w.Name, n, m.Value)
				}
				if k := strings.Count(text, " "+n+" "); k != 1 {
					t.Errorf("%s trace=%v: %s printed %d times", w.Name, trace, n, k)
				}
			}
		}
	}
}

// TestDecoratorsKeepAlarms: a tenant behind the bench's decorators is the
// same program as a bare one. 500 frames through both chains, with a
// host-side cache invalidation in the middle (what the engine's hygiene
// does after repairing a frame), must give bit-identical alarms and the
// same scoring-path counts.
func TestDecoratorsKeepAlarms(t *testing.T) {
	sp, _ := findWorkload("aero-storm")
	art, err := buildArtifacts(sp.smoke(), true)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := art.stage(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{recs: make([]frameRec, 500), alarms: make([]core.Alarm, 0, 4096)}
	stage, err := art.stage(rec)
	if err != nil {
		t.Fatal(err)
	}
	var wrapped core.StreamBackend = &verdictStamp{DSPOTStage: stage, rec: rec}
	fd := newFeed(5, 0, len(art.rows))
	var alarms int
	for n := 0; n < 500; n++ {
		if n == 250 {
			bare.InvalidateIncremental()
			wrapped.(core.IncrementalInvalidator).InvalidateIncremental()
		}
		want, err := bare.Push(art.frame(fd, n))
		if err != nil {
			t.Fatal(err)
		}
		want = append([]core.Alarm(nil), want...)
		got, err := wrapped.Push(art.frame(fd, n))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("frame %d: %d alarms wrapped, %d bare", n, len(got), len(want))
		}
		for i := range want {
			if !sameAlarm(got[i], want[i]) {
				t.Fatalf("frame %d alarm %d: wrapped %+v, bare %+v", n, i, got[i], want[i])
			}
		}
		alarms += len(want)
	}
	if alarms == 0 {
		t.Error("no alarm in 500 frames: the comparison checked nothing")
	}
	ws, bs := stage.IncrementalStats(), bare.IncrementalStats()
	if ws != bs || ws.InvalidationRefreshes == 0 {
		t.Errorf("scoring paths differ or the invalidation was lost: wrapped %+v, bare %+v", ws, bs)
	}
	if wr, br := stage.RefitStats(), bare.RefitStats(); wr.Exceedances != br.Exceedances || wr.Refits != br.Refits {
		t.Errorf("tail maintenance differs: wrapped %+v, bare %+v", wr, br)
	}
	if len(rec.alarms) != alarms || rec.recs[499].innerOut == 0 || rec.recs[499].outerOut < rec.recs[499].innerOut {
		t.Errorf("recorder kept %d of %d alarms, last frame stamps %+v", len(rec.alarms), alarms, rec.recs[499])
	}
}
