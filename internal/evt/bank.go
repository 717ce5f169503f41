package evt

import (
	"fmt"
	"math"
)

// Bank is the tail state of one stage: the drift-aware SPOT (Siffer et
// al., KDD 2017, §4.4) of each of its stars, in one flat layout. What the
// stars share is held once per stage — Level, Q and the drift-window
// depth. Each star's scalars are one element of a per-stage slice, and
// the drift windows are one stars × depth slab, so a bank is two
// allocations however long it serves.
//
// Every star alarms at the level its calibration set (the paper's static
// POT rule, §IV-B Eq. 18) over a moving drift baseline: the threshold z
// is fixed at Fit, and only the trailing window moves. The update rule
// and State/SetState are written once, here, over star i. A Bank is built
// by NewBank and used in place: a copy of the value shares its slabs, so
// a second stage takes a Clone.
type Bank struct {
	level, q float64
	depth    int
	stars    []tail
	win      []float64 // star i's drift window is win[i*depth : (i+1)*depth]
}

// tail is one star's scalars: its SPOT thresholds and tail model, its
// counts, and its drift window's running sum and cursor.
type tail struct {
	t, z  float64
	model GPD
	peaks int // scores in (t, z] counted, calibration's included
	n     int

	// dsum is the drift window's running sum and dpos the slot the next
	// value writes.
	dsum         float64
	dpos         int32
	dfull, ready bool
}

// NewBank returns an unfitted bank of the given stars with a trailing
// drift window of depth (at least 1) per star. Level and Q are checked
// by Fit.
func NewBank(stars int, level, q float64, depth int) Bank {
	depth = max(depth, 1)
	return Bank{
		level: level, q: q, depth: depth,
		stars: make([]tail, stars),
		win:   make([]float64, stars*depth),
	}
}

// Len returns the number of stars.
func (b *Bank) Len() int { return len(b.stars) }

// Fresh returns an unfitted bank of b's stars under b's config.
func (b *Bank) Fresh() Bank { return NewBank(len(b.stars), b.level, b.q, b.depth) }

// Clone returns a bank with the same config and state as b and slabs of
// its own.
func (b *Bank) Clone() Bank {
	c := *b
	c.stars = append([]tail(nil), b.stars...)
	c.win = append([]float64(nil), b.win...)
	return c
}

func (b *Bank) window(i int) []float64 { return b.win[i*b.depth : (i+1)*b.depth] }

// Fit calibrates star i on an initial batch; the first depth values seed
// its trailing window and the rest, re-centred on it, calibrate the tail
// model. A batch of depth+8 points or fewer, a NaN or ±Inf anywhere in it
// (named by its index), or a Level or Q outside (0, 1) is an error, after
// which the star is not ready and the bank must be discarded. Stars may
// be fitted concurrently: Fit writes star i's state and window only.
func (b *Bank) Fit(i int, init []float64) error {
	if len(init) <= b.depth+8 {
		return fmt.Errorf("evt: DSPOT needs more than depth+8=%d calibration points, got %d", b.depth+8, len(init))
	}
	s, win := &b.stars[i], b.window(i)
	// The checks ride in the loops that read each point anyway.
	for j, v := range init[:b.depth] {
		if !finite(v) {
			return nonFinitePoint(j, v)
		}
		s.push(win, v)
	}
	resid := make([]float64, 0, len(init)-b.depth)
	for j, v := range init[b.depth:] {
		if !finite(v) {
			return nonFinitePoint(b.depth+j, v)
		}
		resid = append(resid, v-s.mean(win))
		s.push(win, v)
	}
	return b.fitTail(s, resid)
}

func nonFinitePoint(i int, v float64) error {
	return fmt.Errorf("evt: DSPOT calibration point %d is %v", i, v)
}

// fitTail calibrates s's thresholds and tail model (SPOT, Siffer et al.
// Alg. 1) on a batch. Too few peaks is not an error: POT's fallback, the
// empirical 1−q quantile, is still a usable level, and the star alarms
// above it for as long as it serves.
func (b *Bank) fitTail(s *tail, init []float64) error {
	if err := CheckPOTParams(b.level, b.q); err != nil {
		return err
	}
	th, _ := POT(init, b.level, b.q) // with the parameters checked, the only error is the fallback
	s.t, s.z, s.model = th.Init, th.Z, th.Model
	s.n, s.peaks = th.N, th.Peaks
	s.ready = true
	return nil
}

func (s *tail) push(win []float64, v float64) {
	if s.dfull {
		s.dsum -= win[s.dpos]
	}
	win[s.dpos] = v
	s.dsum += v
	s.dpos++
	if int(s.dpos) == len(win) {
		s.dpos = 0
		s.dfull = true
	}
}

func (s *tail) mean(win []float64) float64 {
	n := len(win)
	if !s.dfull {
		n = int(s.dpos)
		if n == 0 {
			return 0
		}
	}
	return s.dsum / float64(n)
}

// Threshold returns star i's residual-space alarm threshold z_q, the
// level its calibration set.
func (b *Bank) Threshold(i int) float64 { return b.stars[i].z }

// Baseline returns star i's drift-corrected baseline (its trailing window
// mean); Baseline(i)+Threshold(i) is its effective alarm level in raw
// score space.
func (b *Bank) Baseline(i int) float64 { return b.stars[i].mean(b.window(i)) }

// RefitStats returns the bank's cumulative tail counters over all its
// stars. The level never moves, so Refits is always 0.
func (b *Bank) RefitStats() RefitStats {
	var peaks int
	for i := range b.stars {
		peaks += b.stars[i].peaks
	}
	return RefitStats{Exceedances: uint64(peaks)}
}

// Step consumes star i's next observation and reports whether it is
// anomalous relative to the drift-corrected baseline. Non-anomalous
// observations update the trailing window; anomalies do not (so an alarm
// does not poison the baseline). Stepping before Fit returns ErrNotReady,
// a non-finite x ErrNonFinite (the residual of one is non-finite, and the
// tail refuses it before the window sees x); neither changes the state.
func (b *Bank) Step(i int, x float64) (bool, error) {
	s, win := &b.stars[i], b.window(i)
	fired, err := s.stepTail(x - s.mean(win))
	if err != nil || fired {
		return fired, err
	}
	s.push(win, x)
	return false, nil
}

// stepTail thresholds one residual at the calibrated level: a residual
// above z alarms, one in (t, z] counts an exceedance, and every residual
// that does not alarm counts an observation. Nothing is refitted and
// nothing allocates.
func (s *tail) stepTail(x float64) (bool, error) {
	if !s.ready {
		return false, ErrNotReady
	}
	if !finite(x) {
		return false, ErrNonFinite
	}
	if x > s.z {
		return true, nil
	}
	if x > s.t {
		s.peaks++
	}
	s.n++
	return false, nil
}

// State captures star i's runtime state.
func (b *Bank) State(i int) DSPOTState {
	s := &b.stars[i]
	return DSPOTState{
		SPOT: b.tailState(s), Depth: b.depth,
		Win: append([]float64(nil), b.window(i)...), Sum: s.dsum, Pos: int(s.dpos), Full: s.dfull,
	}
}

func (b *Bank) tailState(s *tail) SPOTState {
	return SPOTState{
		Level: b.level, Q: b.q, T: s.t, Z: s.z, Model: s.model,
		N: s.n, Peaks: s.peaks, Ready: s.ready,
	}
}

// SetState replaces star i's runtime state with a snapshot taken by
// State. The snapshot must be of this bank's config: its drift-window
// depth, Level and Q. Its window position must lie in [0, depth), its
// counts must hold 0 ≤ Peaks ≤ N, and its thresholds, window values and
// window sum must lie within ±maxScore. Otherwise the error leaves the
// star untouched. A snapshot's Z is the level the star alarms at from
// then on, whatever build took it.
func (b *Bank) SetState(i int, st DSPOTState) error {
	if st.Depth != b.depth || len(st.Win) != b.depth {
		return fmt.Errorf("evt: DSPOT state depth %d (win %d), detector depth %d", st.Depth, len(st.Win), b.depth)
	}
	if st.Pos < 0 || st.Pos >= b.depth {
		return fmt.Errorf("evt: DSPOT state window position %d outside [0, %d)", st.Pos, b.depth)
	}
	if !within(maxScore, st.Sum) || !within(maxScore, st.Win...) {
		return fmt.Errorf("evt: DSPOT state window holds a value beyond ±%g", maxScore)
	}
	s := &b.stars[i]
	if err := b.setTailState(s, st.SPOT); err != nil {
		return err
	}
	copy(b.window(i), st.Win)
	s.dsum, s.dpos, s.dfull = st.Sum, int32(st.Pos), st.Full
	return nil
}

// setTailState replaces s's tail state with a snapshot, after checking
// it against the bank's config as SetState documents.
func (b *Bank) setTailState(s *tail, st SPOTState) error {
	if st.Level != b.level || st.Q != b.q {
		return fmt.Errorf("evt: SPOT state level %v, q %v; detector level %v, q %v", st.Level, st.Q, b.level, b.q)
	}
	if !within(maxScore, st.T, st.Z) {
		return fmt.Errorf("evt: SPOT state holds a threshold beyond ±%g", maxScore)
	}
	// Every exceedance is also an observation, so peaks never outnumber n.
	if st.Peaks < 0 || st.Peaks > st.N {
		return fmt.Errorf("evt: SPOT state counts n %d, peaks %d outside 0 ≤ peaks ≤ n", st.N, st.Peaks)
	}
	s.t, s.z, s.model = st.T, st.Z, st.Model
	s.n, s.peaks = st.N, st.Peaks
	s.ready = st.Ready
	return nil
}

// maxScore bounds the magnitude of every score-valued float a restored
// star holds — thresholds, drift-window values and their running sum:
// far past any score, and far enough below the float64 limit that the
// residuals and sums the update rule forms from them stay finite.
const maxScore = 1e150

// within reports whether every x lies in [−limit, limit]; NaN does not.
func within(limit float64, xs ...float64) bool {
	for _, x := range xs {
		if !(math.Abs(x) <= limit) {
			return false
		}
	}
	return true
}
