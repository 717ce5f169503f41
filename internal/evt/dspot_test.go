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
	d := NewBank(1, 0.99, 1e-3, 50)
	if err := d.Fit(0, init); err != nil {
		t.Fatalf("fit: %v", err)
	}
	// Slow linear drift: plain SPOT would alarm constantly once the level
	// exceeds the calibrated tail; DSPOT must stay quiet.
	alarms := 0
	level := 0.0
	for i := 0; i < 3000; i++ {
		level += 0.005 // total drift = 15, far above the initial tail
		if fired, _ := d.Step(0, level+rng.NormFloat64()*0.3); fired {
			alarms++
		}
	}
	if alarms > 30 {
		t.Fatalf("DSPOT alarmed %d times on pure drift", alarms)
	}
	// A genuine spike on top of the drifted level must still fire.
	if fired, _ := d.Step(0, level+10); !fired {
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
	d := NewBank(1, 0.99, 1e-3, 50)
	if err := d.Fit(0, init); err != nil {
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
		if fired, _ := d.Step(0, x); fired {
			dspotAlarms++
		}
	}
	if dspotAlarms >= spotAlarms {
		t.Fatalf("drift correction should reduce alarms: SPOT %d, DSPOT %d", spotAlarms, dspotAlarms)
	}
}

func TestDSPOTFitTooShort(t *testing.T) {
	d := NewBank(1, 0.99, 1e-3, 50)
	if err := d.Fit(0, make([]float64, 30)); err == nil {
		t.Fatal("expected error for too-short calibration")
	}
}

func TestDSPOTTrailingMean(t *testing.T) {
	d := NewBank(1, 0.99, 1e-3, 4)
	s, win := &d.stars[0], d.window(0)
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
// is refused by the tail's step and by Bank.Step with ErrNonFinite and
// changes no state, so the next 1,000 finite steps equal an untouched
// twin's — where before a NaN silenced the drift baseline for good and a
// −Inf made it alarm on every frame.
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
	mk := func() *Bank {
		d := NewBank(1, 0.99, 1e-3, 20)
		if err := d.Fit(0, calib); err != nil {
			t.Fatal(err)
		}
		for _, x := range feed[:600] {
			if _, err := d.Step(0, x); err != nil {
				t.Fatal(err)
			}
		}
		return &d
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d, twin := mk(), mk()
		before := d.State(0)
		if fired, err := d.Step(0, bad); !errors.Is(err, ErrNonFinite) || fired {
			t.Fatalf("Bank.Step(%v) = %v, %v; want false, ErrNonFinite", bad, fired, err)
		}
		star := &d.stars[0]
		spotBefore := d.tailState(star)
		if fired, err := star.stepTail(bad); !errors.Is(err, ErrNonFinite) || fired {
			t.Fatalf("SPOT step(%v) = %v, %v; want false, ErrNonFinite", bad, fired, err)
		}
		if !reflect.DeepEqual(d.tailState(star), spotBefore) {
			t.Fatalf("SPOT step(%v) changed the state", bad)
		}
		if !reflect.DeepEqual(d.State(0), before) {
			t.Fatalf("Bank.Step(%v) changed the state", bad)
		}
		alarms := 0
		for i, x := range feed[600:] {
			got, err := d.Step(0, x)
			want, werr := twin.Step(0, x)
			if err != nil || werr != nil || got != want {
				t.Fatalf("after %v, step %d: %v/%v vs twin %v/%v", bad, i, got, err, want, werr)
			}
			if got {
				alarms++
			}
		}
		if alarms == 0 {
			t.Fatalf("no alarms in 1,000 steps; the comparison is vacuous")
		}
		if !reflect.DeepEqual(d.State(0), twin.State(0)) {
			t.Fatalf("after %v: final state differs from the twin's", bad)
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
			d := NewBank(1, 0.99, 1e-3, depth)
			err := d.Fit(0, c)
			if want := fmt.Sprintf("point %d is %v", at, bad); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%v at %d: error %v, want one containing %q", bad, at, err, want)
			}
		}
	}
	d := NewBank(1, 0.99, 1e-3, depth)
	if err := d.Fit(0, calib); err != nil {
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
	d := NewBank(1, 0.99, 1e-3, depth)
	if err := d.Fit(0, calib); err != nil {
		t.Fatal(err)
	}
	good := d.State(0)
	for _, pos := range []int{depth, -1} {
		r := NewBank(1, 0.99, 1e-3, depth)
		if err := r.Fit(0, calib[:200]); err != nil {
			t.Fatal(err)
		}
		before := r.State(0)
		bad := good
		bad.Pos = pos
		err := r.SetState(0, bad)
		if want := fmt.Sprintf("position %d outside [0, %d)", pos, depth); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("pos %d: error %v, want one containing %q", pos, err, want)
		}
		if !reflect.DeepEqual(r.State(0), before) {
			t.Fatalf("pos %d: refused restore changed the detector", pos)
		}
		if _, err := r.Step(0, 1); err != nil {
			t.Fatal(err)
		}
	}
}
