package engine

import (
	"bytes"
	"fmt"

	"aero/internal/snapfmt"
)

// Subscription snapshots follow the repo's versioned binary convention:
// internal/snapfmt frames them (magic, version, little-endian fields,
// CRC-32 trailer), and nothing is touched before the whole blob is
// validated. The envelope
// wraps the primary backend's own opaque snapshot and adds the
// fault-containment state that must survive a restart — a tenant
// checkpointed mid-quarantine has to come back mid-quarantine, not
// healthy and pointed at a corrupt primary.
//
//	magic        [8]byte  "AEROHLTH"
//	version      uint32   currently 1
//	state        uint8    HealthState
//	faults       uint32   consecutive-fault counter
//	backoff      uint32   frames left in the current quarantine
//	backoffBase  uint32   current backoff ladder position
//	probeClean   uint32   clean probes so far in probation
//	lastTime     float64  hygiene time cursor
//	seenTime     uint8    1 iff lastTime is valid
//	nLastGood    uint32   │ hygiene hold-last values, NaN = never seen
//	lastGood     [n]float64 ┘
//	primaryLen   uint32   │ the primary backend's own snapshot
//	primary      [...]byte ┘
//	hasFallback  uint8    1 iff a fallback snapshot follows
//	  fbLen      uint32   │ only when hasFallback == 1
//	  fb         [...]byte ┘
//	crc          uint32   IEEE CRC-32 of every preceding byte
//
// The cumulative transition counters (quarantines, recoveries, ...) are
// observability, not state, and are deliberately not snapshotted.
var subSnapFormat = snapfmt.Format{Magic: "AEROHLTH", Version: 1, Pkg: "engine", Name: "subscription state"}

// SnapshotState serializes the tenant's warm detector state (rings,
// cursors, warm-up counters) together with its fault-containment state —
// health position, backoff ladder, hygiene cursors, and the warm fallback
// backend when one is installed — serialized against scoring. Pair with
// RestoreState for zero-warmup restarts; weights are persisted separately
// through the model registry.
func (s *Subscription) SnapshotState() ([]byte, error) {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	primary, err := s.sub.det.SnapshotState()
	if err != nil {
		return nil, err
	}
	var fb []byte
	if s.sub.fallback != nil {
		if fb, err = s.sub.fallback.SnapshotState(); err != nil {
			return nil, fmt.Errorf("engine: fallback snapshot: %w", err)
		}
	}
	w := snapfmt.NewWriter(subSnapFormat, len(subSnapFormat.Magic)+4+1+4*4+8+1+4+8*len(s.sub.lastGood)+4+len(primary)+1+4+len(fb)+4)
	w.U8(uint8(s.sub.state()))
	w.U32(uint32(s.sub.faultsConsec))
	w.U32(uint32(s.sub.backoff))
	w.U32(uint32(s.sub.backoffBase))
	w.U32(uint32(s.sub.probeClean))
	w.F64(s.sub.lastTime)
	w.Bool(s.sub.seenTime)
	w.U32(uint32(len(s.sub.lastGood)))
	w.F64s(s.sub.lastGood)
	w.U32(uint32(len(primary)))
	w.Bytes(primary)
	w.Bool(fb != nil)
	if fb != nil {
		w.U32(uint32(len(fb)))
		w.Bytes(fb)
	}
	return w.Seal()
}

// RestoreState installs a previously snapshotted state into the tenant,
// so it resumes scoring — and, when checkpointed mid-quarantine, resumes
// its quarantine — instead of re-warming from a cold ring. Blobs from
// before the fault-containment envelope (bare backend snapshots) are
// detected by magic and restored directly into the primary backend.
//
// The blob is fully validated (magic, version, geometry, CRC) and both
// backend restores must succeed before any health state is committed: a
// corrupt snapshot leaves the tenant exactly as it was.
func (s *Subscription) RestoreState(blob []byte) error {
	s.sub.mu.Lock()
	defer s.sub.mu.Unlock()
	if !bytes.HasPrefix(blob, []byte(subSnapFormat.Magic)) {
		// Legacy blob: the primary backend's own snapshot, no envelope.
		if err := s.sub.det.RestoreState(blob); err != nil {
			return err
		}
		if t, ok := s.sub.det.LastTime(); ok {
			s.sub.lastTime, s.sub.seenTime = t, true
		}
		return nil
	}
	r, err := snapfmt.Open(subSnapFormat, blob)
	if err != nil {
		return err
	}
	state := HealthState(r.U8())
	faults := int(r.U32())
	backoff := int(r.U32())
	backoffBase := int(r.U32())
	probeClean := int(r.U32())
	lastTime := r.F64()
	seenTime := r.Bool()
	nGood := int(r.U32())
	if err := r.Err(); err != nil {
		return err
	}
	if state < HealthHealthy || state > HealthProbation {
		return fmt.Errorf("engine: subscription state has unknown health state %d", state)
	}
	if nGood != len(s.sub.lastGood) {
		return fmt.Errorf("engine: snapshot has %d variates, subscription %d", nGood, len(s.sub.lastGood))
	}
	lastGood := r.F64s(nGood)
	primary := r.Bytes(int(r.U32()))
	hasFB := r.Bool()
	var fb []byte
	if hasFB {
		fb = r.Bytes(int(r.U32()))
	}
	if err := r.Done(); err != nil {
		return err
	}
	if hasFB && s.sub.fallback == nil {
		return fmt.Errorf("engine: snapshot carries a fallback state but the subscription has no fallback backend")
	}

	// Fallback first: if its restore fails the primary is still untouched,
	// and a primary-restore failure after a fallback restore leaves only
	// the (redundant, rewarmable) fallback changed.
	if hasFB {
		if err := s.sub.fallback.RestoreState(fb); err != nil {
			return fmt.Errorf("engine: fallback restore: %w", err)
		}
	}
	if err := s.sub.det.RestoreState(primary); err != nil {
		return err
	}
	s.sub.setState(state)
	s.sub.faultsConsec = faults
	s.sub.backoff = backoff
	s.sub.backoffBase = backoffBase
	if s.sub.backoffBase <= 0 {
		s.sub.backoffBase = s.sub.health.BackoffFrames
	}
	s.sub.probeClean = probeClean
	s.sub.lastTime, s.sub.seenTime = lastTime, seenTime
	copy(s.sub.lastGood, lastGood)
	return nil
}
