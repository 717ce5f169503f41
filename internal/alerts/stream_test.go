package alerts

import (
	"bufio"
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/metrics"
)

// replayBackend alarms on every variate whose magnitude is positive,
// with the magnitude as the score, so a frame carries its alarms.
type replayBackend struct {
	n      int
	last   float64
	seen   bool
	alarms []core.Alarm
}

func (b *replayBackend) Kind() string              { return "replay" }
func (b *replayBackend) Variates() int             { return b.n }
func (b *replayBackend) Ready() bool               { return true }
func (b *replayBackend) Threshold() float64        { return 0 }
func (b *replayBackend) LastTime() (float64, bool) { return b.last, b.seen }
func (b *replayBackend) PushScores(f core.Frame) ([]float64, error) {
	b.last, b.seen = f.Time, true
	return f.Magnitudes, nil
}
func (b *replayBackend) Push(f core.Frame) ([]core.Alarm, error) {
	b.PushScores(f)
	b.alarms = b.alarms[:0]
	for v, m := range f.Magnitudes {
		if m > 0 {
			b.alarms = append(b.alarms, core.Alarm{Variate: v, Time: f.Time, Score: m})
		}
	}
	return b.alarms, nil
}
func (b *replayBackend) SwapArtifact([]byte) error      { return errors.New("replay: no artifacts") }
func (b *replayBackend) SnapshotState() ([]byte, error) { return nil, errors.New("replay: no state") }
func (b *replayBackend) RestoreState([]byte) error      { return errors.New("replay: no state") }

// scraped reads one unlabeled series from a Prometheus scrape of reg.
func scraped(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("scrape has no series %s:\n%s", name, buf.String())
	return 0
}

// TestTriageIncidentSeriesCountsEveryIncident holds the registry's
// incident series to the pipeline's own count: after alarms flow through
// the engine's tap, after Finalize flushes the episodes still in flight,
// and after a fresh stream restores a snapshot that holds incidents.
func TestTriageIncidentSeriesCountsEveryIncident(t *testing.T) {
	const tenants, variates = 8, 6
	attach := func() (*engine.Engine, *Stream, *metrics.Registry) {
		e := engine.New(engine.Config{Shards: 1, Workers: 1})
		for i := 0; i < tenants; i++ {
			if _, err := e.SubscribeBackend("field-"+strconv.Itoa(i), &replayBackend{n: variates}); err != nil {
				t.Fatal(err)
			}
		}
		reg := metrics.NewRegistry()
		s, err := AttachObserved(e, testConfig(), 0, reg)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for range s.Incidents() {
			}
		}()
		return e, s, reg
	}
	check := func(when string, reg *metrics.Registry, p *Pipeline) {
		t.Helper()
		got, want := scraped(t, reg, "aero_triage_incidents_total"), p.Stats().Incidents
		if got != want {
			t.Fatalf("%s: aero_triage_incidents_total = %d, pipeline counted %d", when, got, want)
		}
	}

	// One frame per (tenant, time) of the recorded flood, cut while
	// episodes are still open, so Finalize has incidents left to emit.
	e, s, reg := attach()
	seq := recordedSequence()
	for i := 0; i < len(seq) && seq[i].Time < 540; {
		now := seq[i].Time
		frames := make(map[string][]float64)
		for ; i < len(seq) && seq[i].Time == now; i++ {
			if frames[seq[i].Sub] == nil {
				frames[seq[i].Sub] = make([]float64, variates)
			}
			frames[seq[i].Sub][seq[i].Variate] = seq[i].Score
		}
		for k := 0; k < tenants; k++ {
			id := "field-" + strconv.Itoa(k)
			if mags := frames[id]; mags != nil {
				if err := e.Ingest(id, core.Frame{Time: now, Magnitudes: mags}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	e.Close() // returns once the tap has pushed every alarm
	p := s.Pipeline()
	if st := p.Stats(); st.Incidents == 0 || st.OpenEpisodes == 0 {
		t.Fatalf("flood left nothing to check: %+v", st)
	}
	check("after Push", reg, p)

	blob, err := p.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Finalize()) == 0 {
		t.Fatal("Finalize emitted no incidents")
	}
	check("after Finalize", reg, p)

	e2, s2, reg2 := attach()
	defer e2.Close()
	if err := s2.Pipeline().RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	check("after RestoreState", reg2, s2.Pipeline())
}
