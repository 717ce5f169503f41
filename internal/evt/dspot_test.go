package evt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestDSPOTHandlesDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Calibration: flat noise.
	init := make([]float64, 2000)
	for i := range init {
		init[i] = rng.NormFloat64() * 0.3
	}
	d := NewDSPOT(0.99, 1e-3, 50)
	if err := d.Fit(init); err != nil {
		t.Fatalf("fit: %v", err)
	}
	// Slow linear drift: plain SPOT would alarm constantly once the level
	// exceeds the calibrated tail; DSPOT must stay quiet.
	alarms := 0
	level := 0.0
	for i := 0; i < 3000; i++ {
		level += 0.005 // total drift = 15, far above the initial tail
		if fired, _ := d.Step(level + rng.NormFloat64()*0.3); fired {
			alarms++
		}
	}
	if alarms > 30 {
		t.Fatalf("DSPOT alarmed %d times on pure drift", alarms)
	}
	// A genuine spike on top of the drifted level must still fire.
	if fired, _ := d.Step(level + 10); !fired {
		t.Fatal("DSPOT missed a spike above the drifted baseline")
	}
}

func TestDSPOTVsSPOTOnDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	init := make([]float64, 1500)
	for i := range init {
		init[i] = rng.NormFloat64() * 0.3
	}
	s := newSPOT(0.99, 1e-3)
	if err := s.Fit(init); err != nil {
		t.Fatal(err)
	}
	d := NewDSPOT(0.99, 1e-3, 50)
	if err := d.Fit(init); err != nil {
		t.Fatal(err)
	}
	spotAlarms, dspotAlarms := 0, 0
	level := 0.0
	for i := 0; i < 2000; i++ {
		level += 0.01
		x := level + rng.NormFloat64()*0.3
		if x > s.Threshold() {
			spotAlarms++
		}
		if fired, _ := d.Step(x); fired {
			dspotAlarms++
		}
	}
	if dspotAlarms >= spotAlarms {
		t.Fatalf("drift correction should reduce alarms: SPOT %d, DSPOT %d", spotAlarms, dspotAlarms)
	}
}

func TestDSPOTFitTooShort(t *testing.T) {
	if err := NewDSPOT(0.99, 1e-3, 50).Fit(make([]float64, 30)); err == nil {
		t.Fatal("expected error for too-short calibration")
	}
}

func TestDSPOTTrailingMean(t *testing.T) {
	d := NewDSPOT(0.99, 1e-3, 4)
	s, win := &d.b.stars[0], d.b.window(0)
	for _, v := range []float64{1, 2, 3, 4} {
		s.push(win, v)
	}
	if s.mean(win) != 2.5 {
		t.Fatalf("mean %v", s.mean(win))
	}
	s.push(win, 5) // evicts 1
	if math.Abs(s.mean(win)-3.5) > 1e-12 {
		t.Fatalf("rolling mean %v", s.mean(win))
	}
}

// TestNonFiniteStepLeavesStateUntouched: a NaN, +Inf or −Inf observation
// is refused by SPOT.Step and DSPOT.Step with ErrNonFinite and changes no
// state, so the next 1,000 finite steps equal an untouched twin's — where
// before a NaN silenced the drift baseline for good and a −Inf made it
// alarm on every frame.
func TestNonFiniteStepLeavesStateUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	calib := make([]float64, 1500)
	for i := range calib {
		calib[i] = rng.ExpFloat64()
	}
	feed := make([]float64, 1600)
	for i := range feed {
		feed[i] = rng.ExpFloat64() * (1 + float64(i%97)/40)
	}
	mk := func(exact bool) *DSPOT {
		d := NewDSPOT(0.99, 1e-3, 20)
		d.b.exact = exact
		if err := d.Fit(calib); err != nil {
			t.Fatal(err)
		}
		for _, x := range feed[:600] {
			if _, err := d.Step(x); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	for _, exact := range []bool{true, false} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			d, twin := mk(exact), mk(exact)
			before := d.State()
			if fired, err := d.Step(bad); !errors.Is(err, ErrNonFinite) || fired {
				t.Fatalf("exact %v: DSPOT.Step(%v) = %v, %v; want false, ErrNonFinite", exact, bad, fired, err)
			}
			star := &d.b.stars[0]
			spotBefore := d.b.tailState(star)
			if fired, err := d.b.stepTail(star, bad); !errors.Is(err, ErrNonFinite) || fired {
				t.Fatalf("exact %v: SPOT.Step(%v) = %v, %v; want false, ErrNonFinite", exact, bad, fired, err)
			}
			if !reflect.DeepEqual(d.b.tailState(star), spotBefore) {
				t.Fatalf("exact %v: SPOT.Step(%v) changed the state", exact, bad)
			}
			if !reflect.DeepEqual(d.State(), before) {
				t.Fatalf("exact %v: DSPOT.Step(%v) changed the state", exact, bad)
			}
			alarms := 0
			for i, x := range feed[600:] {
				got, err := d.Step(x)
				want, werr := twin.Step(x)
				if err != nil || werr != nil || got != want {
					t.Fatalf("exact %v, after %v, step %d: %v/%v vs twin %v/%v", exact, bad, i, got, err, want, werr)
				}
				if got {
					alarms++
				}
			}
			if alarms == 0 {
				t.Fatalf("exact %v: no alarms in 1,000 steps; the comparison is vacuous", exact)
			}
			if !reflect.DeepEqual(d.State(), twin.State()) {
				t.Fatalf("exact %v, after %v: final state differs from the twin's", exact, bad)
			}
		}
	}
}

// TestDSPOTFitRejectsNonFinite: a NaN or ±Inf anywhere in the calibration
// — in the drift window's seed or in the part that fits the tail — is an
// error naming its index, where before it gave a NaN baseline or
// threshold that never alarmed.
func TestDSPOTFitRejectsNonFinite(t *testing.T) {
	const depth = 20
	rng := rand.New(rand.NewSource(6))
	calib := make([]float64, 400)
	for i := range calib {
		calib[i] = rng.ExpFloat64()
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, depth - 1, depth, 250, len(calib) - 1} {
			c := append([]float64(nil), calib...)
			c[at] = bad
			err := NewDSPOT(0.99, 1e-3, depth).Fit(c)
			if want := fmt.Sprintf("point %d is %v", at, bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%v at %d: error %v, want one containing %q", bad, at, err, want)
			}
		}
	}
	if err := NewDSPOT(0.99, 1e-3, depth).Fit(calib); err != nil {
		t.Fatal(err)
	}
}

// TestDSPOTSetStateRejectsBadPos: a snapshot whose drift-window position
// lies outside [0, depth) is an error with the detector untouched, where
// before it restored and the next Step indexed the window out of range.
func TestDSPOTSetStateRejectsBadPos(t *testing.T) {
	const depth = 20
	rng := rand.New(rand.NewSource(7))
	calib := make([]float64, 400)
	for i := range calib {
		calib[i] = rng.ExpFloat64()
	}
	d := NewDSPOT(0.99, 1e-3, depth)
	if err := d.Fit(calib); err != nil {
		t.Fatal(err)
	}
	good := d.State()
	for _, pos := range []int{depth, -1} {
		r := NewDSPOT(0.99, 1e-3, depth)
		if err := r.Fit(calib[:200]); err != nil {
			t.Fatal(err)
		}
		before := r.State()
		bad := good
		bad.Pos = pos
		err := r.SetState(bad)
		if want := fmt.Sprintf("position %d outside [0, %d)", pos, depth); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("pos %d: error %v, want one containing %q", pos, err, want)
		}
		if !reflect.DeepEqual(r.State(), before) {
			t.Fatalf("pos %d: refused restore changed the detector", pos)
		}
		if _, err := r.Step(1); err != nil {
			t.Fatal(err)
		}
	}
}
