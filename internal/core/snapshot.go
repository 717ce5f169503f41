package core

import (
	"fmt"
	"math"

	"aero/internal/snapfmt"
)

// Detector state snapshots are a versioned little-endian binary encoding
// of everything a StreamDetector accumulates at runtime — a format
// deliberately separate from model files (which stay at JSON v1): weights
// are published through the registry, warm state is checkpointed here.
//
//	magic   [8]byte  "AEROSNAP"
//	version uint32   currently 1
//	n       uint32   variate count
//	w       uint32   long-window length (ring capacity)
//	count   uint64   frames pushed so far (the warm-up counter)
//	last    float64  newest timestamp (the monotonicity cursor)
//	times   [w]float64    timestamp ring
//	raw     [n][w]float64 raw magnitude rings
//	dyn     uint8         1 iff an evolving-graph state follows
//	  decay float64       │ only when dyn == 1
//	  adj   [n·n]float64  ┘
//	crc     uint32   IEEE CRC-32 of every preceding byte
//
// internal/snapfmt writes and checks the framing (magic, version, CRC,
// truncation). The rings store *raw* magnitudes, as the detector does, so
// a snapshot can be restored into a retrained model: the window is read
// under the restoring model's bounds. Restored into the same model, the
// scores are bit-identical to the snapshotted detector's, because
// normalization applies the same pure function to the same inputs.
var stateFormat = snapfmt.Format{Magic: "AEROSNAP", Version: 1, Pkg: "core", Name: "detector state"}

// SnapshotState serializes the detector's runtime state — rings, cursors,
// warm-up counters and (for the dynamic-graph variant) the evolving
// adjacency — into a self-validating binary blob. Model weights are not
// included; persist those with Model.Save. Snapshots may be taken at any
// point, including before the window is warm.
func (s *StreamDetector) SnapshotState() ([]byte, error) {
	n, w := s.m.n, s.m.cfg.LongWindow
	size := len(stateFormat.Magic) + 3*4 + 8 + 8 + 8*w + 8*n*w + 1 + 4
	if s.dyn != nil {
		size += 8 + 8*n*n
	}
	b := snapfmt.NewWriter(stateFormat, size)
	b.U32(uint32(n))
	b.U32(uint32(w))
	b.U64(uint64(s.count))
	b.F64(s.last)
	b.F64s(s.times)
	for v := 0; v < n; v++ {
		b.F64s(s.raw[v])
	}
	b.Bool(s.dyn != nil)
	if s.dyn != nil {
		b.F64(s.dyn.decay)
		b.F64s(s.dyn.a.Data)
	}
	return b.Seal()
}

// RestoreState replaces the detector's runtime state with a snapshot taken
// by SnapshotState, so a swapped or freshly restarted detector resumes
// with a full warm window instead of a cold ring. The snapshot must match
// the detector's ring geometry (variate count and long-window length); the
// backing model may be a different — e.g. freshly retrained — one, in
// which case the window is read under its bounds.
//
// The blob is fully validated (magic, version, geometry, length, CRC) before
// any detector state is touched, and so is what it says: the time cursor and
// the evolving graph must be a state PushScores could have left (see
// checkCursor and checkGraph). A corrupt, truncated or impossible snapshot
// returns an error and leaves the detector exactly as it was. Raw magnitudes
// are not checked: PushScores accepts any, so a real snapshot may hold a NaN.
func (s *StreamDetector) RestoreState(blob []byte) error {
	r, err := snapfmt.Open(stateFormat, blob)
	if err != nil {
		return err
	}
	n, w := int(r.U32()), int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if n != s.m.n || w != s.m.cfg.LongWindow {
		return fmt.Errorf("core: snapshot is %d variates × window %d, detector is %d × %d",
			n, w, s.m.n, s.m.cfg.LongWindow)
	}
	count := r.U64()
	last := r.F64()
	times := r.F64s(w)
	raw := make([][]float64, n)
	for v := range raw {
		raw[v] = r.F64s(w)
	}
	var decay float64
	var adj []float64
	hasDyn := r.Bool()
	if hasDyn {
		decay = r.F64()
		adj = r.F64s(n * n)
	}
	if err := r.Done(); err != nil {
		return err
	}
	if count > math.MaxInt64 {
		return fmt.Errorf("core: detector state frame count %d overflows", count)
	}
	if err := checkCursor(int(count), last, times); err != nil {
		return err
	}
	if hasDyn {
		if err := checkGraph(decay, adj); err != nil {
			return err
		}
	}

	// Everything validated; commit.
	s.count = int(count)
	s.last = last
	copy(s.times, times)
	for v := 0; v < n; v++ {
		copy(s.raw[v], raw[v])
	}
	if s.m.cfg.Variant == VariantDynamicGraph {
		if s.dyn == nil {
			s.dyn = newDynamicGraphState(n)
		}
		if hasDyn {
			s.dyn.decay = decay
			copy(s.dyn.a.Data, adj)
		} else {
			// Snapshot predates any evolving state (or came from another
			// variant); restart the EWMA from its initial complete graph.
			fresh := newDynamicGraphState(n)
			s.dyn.decay = fresh.decay
			s.dyn.a.CopyFrom(fresh.a)
		}
	}
	// The restored window has nothing in common with the cached
	// activations; the next scored frame must run a full exact pass.
	s.InvalidateIncremental()
	return nil
}

// checkCursor refuses a time cursor PushScores could not have left: a
// non-finite last, filled ring slots that are non-finite or do not strictly
// increase from oldest to newest, or a newest slot other than last. Such a
// cursor would refuse every later frame or reach the time embedding as a
// non-finite interval.
func checkCursor(count int, last float64, times []float64) error {
	if math.IsNaN(last) || math.IsInf(last, 0) {
		return fmt.Errorf("core: snapshot time cursor %v is not finite", last)
	}
	w := len(times)
	filled := min(count, w)
	prev := math.Inf(-1)
	for j := 0; j < filled; j++ {
		t := times[(count-filled+j)%w]
		if math.IsNaN(t) || math.IsInf(t, 0) || t <= prev {
			return fmt.Errorf("core: snapshot time %v at frame %d does not follow %v", t, count-filled+j, prev)
		}
		prev = t
	}
	if count > 0 && prev != last {
		return fmt.Errorf("core: snapshot time cursor %v is not its newest time %v", last, prev)
	}
	return nil
}

// checkGraph refuses an evolving graph a detector could not resume from: a
// decay other than graphDecay, or a non-finite adjacency cell (which only a
// non-finite magnitude evolves, and after which every score is non-finite
// for good).
func checkGraph(decay float64, adj []float64) error {
	if decay != graphDecay {
		return fmt.Errorf("core: snapshot graph decay %v, detectors evolve theirs at %v", decay, graphDecay)
	}
	for i, a := range adj {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("core: snapshot graph cell %d is %v", i, a)
		}
	}
	return nil
}
