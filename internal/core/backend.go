package core

import "aero/internal/tensor"

// StreamBackend is the pluggable contract of the streaming pipeline: any
// detector that can ingest one frame at a time, score it, and survive the
// lifecycle operations a long-lived serving tenant needs (hot-swap of a
// retrained artifact, warm-state checkpoint/restore). The engine,
// lifecycle and CLIs are generic over this interface; *StreamDetector is
// the AERO implementation, and internal/baselines ships the streaming
// adapter of FluxEV, the cheap univariate baseline that keeps up at
// survey rates.
//
// Implementations are not safe for concurrent use; the engine serializes
// access per subscription.
type StreamBackend interface {
	// Kind returns the backend's registered kind tag (e.g. "aero", "fluxev").
	Kind() string
	// Variates returns the frame width the backend expects.
	Variates() int
	// Ready reports whether enough frames have arrived for scoring (the
	// backend's window is warm).
	Ready() bool
	// LastTime returns the newest ingested timestamp and whether any frame
	// has arrived; feeds resuming a restored backend must continue
	// strictly after it.
	LastTime() (float64, bool)
	// Threshold returns the current alarm threshold in score space.
	Threshold() float64
	// PushScores ingests one frame and returns the newest frame's raw
	// per-variate anomaly scores, or nil before the backend is warm. The
	// returned slice is owned by the backend and reused by the next push;
	// composable stages (e.g. the DSPOT adaptive alarmer) consume it
	// without forcing an alarm allocation.
	PushScores(f Frame) ([]float64, error)
	// Push is PushScores plus alarming: scores at or above the backend's
	// threshold are returned as alarms (empty when none fire).
	Push(f Frame) ([]Alarm, error)
	// SwapArtifact installs a freshly trained artifact of the same kind
	// (as produced by the backend's Trainer) into the warm backend
	// without losing the window.
	SwapArtifact(artifact []byte) error
	// SnapshotState serializes the backend's runtime state (rings,
	// cursors, adaptive-threshold state) for warm restarts.
	SnapshotState() ([]byte, error)
	// RestoreState installs a snapshot taken by SnapshotState, validating
	// it fully before mutating anything.
	RestoreState(blob []byte) error
}

// GraphSnapshotter is the optional monitoring capability of backends that
// learn an inter-variate graph (AERO): a live window-wise adjacency.
type GraphSnapshotter interface {
	GraphSnapshot() (*tensor.Dense, error)
}

// IncrementalInvalidator is the optional capability of backends whose
// streaming path reuses cached activations across frames (AERO's
// incremental forward). Hosts that mutate window contents behind the
// backend's ingest path — e.g. the engine's frame hygiene repairing a
// frame in place — call InvalidateIncremental so the next scored frame
// runs a full exact pass instead of trusting stale caches. Wrapping stages
// (DSPOT) delegate to their inner backend.
type IncrementalInvalidator interface {
	InvalidateIncremental()
}

// KindAERO is the backend kind tag of the paper's two-stage AERO model.
const KindAERO = "aero"

var _ StreamBackend = (*StreamDetector)(nil)
var _ GraphSnapshotter = (*StreamDetector)(nil)
var _ IncrementalInvalidator = (*StreamDetector)(nil)
