package backend

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"aero/internal/core"
	"aero/internal/evt"
)

// scoreScript is an inner backend that returns one scripted score row per
// push, whatever the frame; the methods a DSPOT stage never calls on its
// inner are left to the nil embedded interface.
type scoreScript struct {
	core.StreamBackend
	n    int
	rows [][]float64
	next int
}

func (s *scoreScript) Kind() string  { return "script" }
func (s *scoreScript) Variates() int { return s.n }

func (s *scoreScript) PushScores(core.Frame) ([]float64, error) {
	row := s.rows[s.next]
	s.next++
	return row, nil
}

// reuseCalib draws a calibration of the given stars, each 800–1,599 scores.
// With fallback set, the last star is flat but for five spikes, too few
// peaks for a tail fit at any level, so the tail fit takes its empirical
// fallback on it.
func reuseCalib(seed int64, stars int, fallback bool) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	calib := make([][]float64, stars)
	for v := range calib {
		calib[v] = make([]float64, 800+rng.Intn(800))
		for i := range calib[v] {
			calib[v][i] = rng.ExpFloat64() + 0.01*float64(i%50)
		}
	}
	if fallback {
		flat := calib[stars-1]
		for i := range flat {
			flat[i] = 1
		}
		for i := 100; i < len(flat); i += len(flat) / 5 {
			flat[i] = 3
		}
	}
	return calib
}

// reuseFeed draws steps score rows: exponential noise with a slow drift and
// a spike every 97 frames, so tails take exceedances and alarm.
func reuseFeed(seed int64, stars, steps int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, steps)
	for i := range rows {
		rows[i] = make([]float64, stars)
		for v := range rows[i] {
			rows[i][v] = rng.ExpFloat64()*(1+float64(i%1000)/800) + 0.2*float64(v)
			if i%97 == v {
				rows[i][v] += 8
			}
		}
	}
	return rows
}

// fitAlone fits every star of a bank the way a stage without a record
// would, one star after another.
func fitAlone(t *testing.T, cfg DSPOTConfig, calib [][]float64) *evt.Bank {
	t.Helper()
	b := evt.NewBank(len(calib), cfg.Level, cfg.Q, dspotDepth)
	for v := range calib {
		if err := b.Fit(v, calib[v]); err != nil {
			t.Fatal(err)
		}
	}
	return &b
}

func sameStates(t *testing.T, what string, got *DSPOTStage, want *evt.Bank) {
	t.Helper()
	for v := range want.Len() {
		if g, w := got.tails.State(v), want.State(v); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s, star %d: state\n%+v\nfitted alone\n%+v", what, v, g, w)
		}
	}
}

func newStage(t *testing.T, cfg DSPOTConfig, calib [][]float64) *DSPOTStage {
	t.Helper()
	d, err := NewDSPOTStage(&scoreScript{n: len(calib)}, cfg, calib)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDSPOTStageReusesFittedTail pins the record behind NewDSPOTStage: a
// stage built from the config and calibration bits of the last fit
// restores that fit, and is then indistinguishable from a stage fitted
// alone — every state before stepping, and after 20k steps every verdict,
// state and tail counter. Anything else refits: another Level or Q, or
// scores changed in place since the record was made. Each stage's state
// is its own, and concurrent builders agree.
func TestDSPOTStageReusesFittedTail(t *testing.T) {
	const stars, steps = 3, 20000
	calib := reuseCalib(1, stars, true)
	feed := reuseFeed(2, stars, steps)

	cfg := DefaultDSPOTConfig()
	lastFit.Store(nil)
	first := newStage(t, cfg, calib)
	rec := lastFit.Load()
	if rec == nil {
		t.Fatal("a successful fit left no record")
	}
	// Bit-equal scores in other slices: the record serves them.
	copied := make([][]float64, stars)
	for v := range calib {
		copied[v] = append([]float64(nil), calib[v]...)
	}
	reused := newStage(t, cfg, copied)
	if lastFit.Load() != rec {
		t.Fatal("a repeated calibration refitted")
	}
	alone := fitAlone(t, cfg, calib)
	if st := alone.State(stars - 1).SPOT; st.Peaks != 0 || st.T != st.Z {
		t.Fatalf("star %d fitted a tail (%d peaks); the fallback case is vacuous", stars-1, st.Peaks)
	}
	sameStates(t, "fitted stage", first, alone)
	sameStates(t, "restored stage", reused, alone)

	// Step only the restored stage and the lone fits: the first stage and
	// the record must not move.
	alarms := 0
	for i, row := range feed {
		for v, x := range row {
			got, err := reused.tails.Step(v, x)
			want, werr := alone.Step(v, x)
			if err != nil || werr != nil || got != want {
				t.Fatalf("step %d, star %d: restored %v/%v, alone %v/%v", i, v, got, err, want, werr)
			}
			if got {
				alarms++
			}
		}
	}
	if alarms == 0 {
		t.Fatal("no alarms in the feed; the comparison is vacuous")
	}
	sameStates(t, fmt.Sprintf("after %d steps", steps), reused, alone)
	g, want := reused.RefitStats(), alone.RefitStats()
	if g != want {
		t.Fatalf("tail counters %+v, alone %+v", g, want)
	}
	if g.Exceedances == first.RefitStats().Exceedances {
		t.Fatal("no exceedances in the feed; the comparison is vacuous")
	}
	fresh := fitAlone(t, cfg, calib)
	sameStates(t, "unstepped twin stage", first, fresh)
	sameStates(t, "stage restored after another stepped", newStage(t, cfg, calib), fresh)

	t.Run("config", func(t *testing.T) {
		base := DefaultDSPOTConfig()
		for _, tc := range []struct {
			name string
			edit func(*DSPOTConfig)
		}{
			{"level", func(c *DSPOTConfig) { c.Level = 0.98 }},
			{"q", func(c *DSPOTConfig) { c.Q = 2e-3 }},
		} {
			newStage(t, base, calib)
			rec := lastFit.Load()
			cfg := base
			tc.edit(&cfg)
			got := newStage(t, cfg, calib)
			if lastFit.Load() == rec {
				t.Fatalf("%s changed, yet the stage restored the last fit", tc.name)
			}
			sameStates(t, tc.name, got, fitAlone(t, cfg, calib))
		}
	})

	t.Run("mutated-in-place", func(t *testing.T) {
		cfg := DefaultDSPOTConfig()
		scores := reuseCalib(3, stars, false)
		newStage(t, cfg, scores)
		rec := lastFit.Load()
		scores[1][len(scores[1])/2] = math.Nextafter(scores[1][len(scores[1])/2], math.Inf(1))
		got := newStage(t, cfg, scores)
		if lastFit.Load() == rec {
			t.Fatal("scores changed in place, yet the stage restored the last fit")
		}
		sameStates(t, "mutated", got, fitAlone(t, cfg, scores))

		// A failed build records nothing.
		rec = lastFit.Load()
		short := append([][]float64(nil), scores...)
		short[2] = short[2][:dspotDepth+8]
		if _, err := NewDSPOTStage(&scoreScript{n: stars}, cfg, short); err == nil {
			t.Fatal("a short calibration built a stage")
		}
		if lastFit.Load() != rec {
			t.Fatal("a failed build replaced the record")
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		cfg := DefaultDSPOTConfig()
		calibs := [2][][]float64{reuseCalib(4, stars, false), reuseCalib(5, stars, true)}
		want := [2]*evt.Bank{fitAlone(t, cfg, calibs[0]), fitAlone(t, cfg, calibs[1])}
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range 12 {
					k := (g + i) % 2
					d, err := NewDSPOTStage(&scoreScript{n: stars}, cfg, calibs[k])
					if err != nil {
						errs <- err
						return
					}
					for v := range stars {
						if !reflect.DeepEqual(d.tails.State(v), want[k].State(v)) {
							errs <- errors.New("a concurrently built stage differs from its calibration's fit")
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestDSPOTStagePushRejectsNonFinite: a frame with a NaN or ±Inf score on
// any star is an error wrapping evt.ErrNonFinite that steps no star — not
// even the stars before it — and the stage then runs on exactly as a twin
// that never saw the frame.
func TestDSPOTStagePushRejectsNonFinite(t *testing.T) {
	const stars = 3
	calib := reuseCalib(6, stars, false)
	feed := reuseFeed(7, stars, 3000)
	cfg := DefaultDSPOTConfig()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		poisoned := make([][]float64, 0, len(feed)+1)
		poisoned = append(poisoned, feed[:1500]...)
		row := append([]float64(nil), feed[1500]...)
		row[stars-1] = bad
		poisoned = append(poisoned, row)
		poisoned = append(poisoned, feed[1500:]...)

		d, err := NewDSPOTStage(&scoreScript{n: stars, rows: poisoned}, cfg, calib)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewDSPOTStage(&scoreScript{n: stars, rows: feed}, cfg, calib)
		if err != nil {
			t.Fatal(err)
		}
		var f core.Frame
		for i := range feed[:1500] {
			if _, err := d.Push(f); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.Push(f); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		before := make([]evt.DSPOTState, stars)
		for v := range before {
			before[v] = d.tails.State(v)
		}
		if alarms, err := d.Push(f); !errors.Is(err, evt.ErrNonFinite) || alarms != nil {
			t.Fatalf("score %v: alarms %v, error %v; want none and ErrNonFinite", bad, alarms, err)
		}
		for v := range before {
			if !reflect.DeepEqual(d.tails.State(v), before[v]) {
				t.Fatalf("score %v on star %d stepped star %d", bad, stars-1, v)
			}
		}
		fired := 0
		for i := 1500; i < len(feed); i++ {
			got, err := d.Push(f)
			want, werr := twin.Push(f)
			if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("score %v, frame %d: alarms %v/%v, twin %v/%v", bad, i, got, err, want, werr)
			}
			fired += len(got)
		}
		if fired == 0 {
			t.Fatal("no alarms after the poisoned frame; the comparison is vacuous")
		}
	}
}

// TestDSPOTStageRejectsNonFiniteCalibration: a NaN or ±Inf in any star's
// calibration — in the drift window's seed or in the tail part — fails the
// build with the lowest failing star's error, naming the value's index.
func TestDSPOTStageRejectsNonFiniteCalibration(t *testing.T) {
	const stars = 4
	cfg := DefaultDSPOTConfig()
	calib := reuseCalib(8, stars, false)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{dspotDepth / 2, dspotDepth + 300} {
			c := append([][]float64(nil), calib...)
			for _, v := range []int{3, 1} {
				c[v] = append([]float64(nil), calib[v]...)
				c[v][at] = bad
			}
			want := fmt.Sprintf("backend: dspot variate 1: evt: DSPOT calibration point %d is %v", at, bad)
			if _, err := NewDSPOTStage(&scoreScript{n: stars}, cfg, c); err == nil || err.Error() != want {
				t.Fatalf("%v at %d: error %v, want %s", bad, at, err, want)
			}
		}
	}
}

// BenchmarkNewDSPOTStage builds a stage of 8 stars × 2,000 calibration
// scores. fit alternates two calibrations, so every build misses the
// record and fits (the cost of a stage before the record existed, plus
// the record's copy); reuse repeats one, so every build restores.
func BenchmarkNewDSPOTStage(b *testing.B) {
	const stars, scores = 8, 2000
	rng := rand.New(rand.NewSource(9))
	var calibs [2][][]float64
	for k := range calibs {
		calibs[k] = make([][]float64, stars)
		for v := range calibs[k] {
			calibs[k][v] = make([]float64, scores)
			for i := range calibs[k][v] {
				calibs[k][v][i] = rng.ExpFloat64() + 0.01*float64(i%50)
			}
		}
	}
	cfg := DefaultDSPOTConfig()
	for _, bc := range []struct {
		name string
		alt  int
	}{{"fit", 1}, {"reuse", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			inner := &scoreScript{n: stars}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewDSPOTStage(inner, cfg, calibs[i*bc.alt%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
