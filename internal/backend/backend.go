// Package backend is the kind registry of the streaming pipeline: it
// names every detector that can serve behind the engine (the AERO model
// plus the streaming FluxEV adapter), and pairs each kind with the
// two operations the lifecycle needs — training an artifact from a
// series and opening a serving core.StreamBackend from an artifact.
//
// The registry is what makes the pipeline pluggable end-to-end: the
// lifecycle registry tags every published entry with its backend kind,
// the retrainer refits through the kind's Trainer, and cmd/aeroserve's
// -backend flag selects the serving detector by name. The DSPOT stage
// (dspot.go) composes over any registered kind.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
)

// Options carries the per-kind training/calibration knobs. Each kind
// reads only its own section.
type Options struct {
	// AERO is the model configuration used by the "aero" kind.
	AERO core.Config
	// Stream parameterizes the streaming FluxEV adapter, including the
	// POT calibration of its static threshold.
	Stream baselines.StreamConfig
}

// DefaultOptions pairs the paper's AERO hyperparameters with the
// reference streaming-adapter settings.
func DefaultOptions() Options {
	return Options{AERO: core.DefaultConfig(), Stream: baselines.DefaultStreamConfig()}
}

// SmallOptions is the CPU-friendly profile (tests, laptops, CI).
func SmallOptions() Options {
	return Options{AERO: core.SmallConfig(), Stream: baselines.DefaultStreamConfig()}
}

// Spec describes one registered backend kind.
type Spec struct {
	// Kind is the registry key and the tag stored in lifecycle manifests.
	Kind string
	// Streams documents why the kind can (or cannot) keep up at survey
	// rates; shown by CLI listings.
	Describe string
	// Train fits the backend on an unlabelled training series and
	// returns its published artifact (weights + calibration for AERO,
	// hyperparameters + POT threshold for FluxEV).
	Train func(train *dataset.Series, opts Options) ([]byte, error)
	// Open constructs a cold serving backend from a published artifact.
	Open func(artifact []byte) (core.StreamBackend, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Spec{}
)

// Register adds a backend kind; duplicate or incomplete specs panic
// (registration is an init-time programming contract).
func Register(s Spec) {
	if s.Kind == "" || s.Train == nil || s.Open == nil {
		panic("backend: incomplete spec")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Kind]; dup {
		panic(fmt.Sprintf("backend: duplicate kind %q", s.Kind))
	}
	registry[s.Kind] = s
}

// Get returns the spec registered for kind.
func Get(kind string) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[kind]
	return s, ok
}

// Kinds lists every registered backend kind, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Train fits the named kind on the training series and returns its
// artifact.
func Train(kind string, train *dataset.Series, opts Options) ([]byte, error) {
	s, ok := Get(kind)
	if !ok {
		return nil, fmt.Errorf("backend: unknown kind %q (have %v)", kind, Kinds())
	}
	return s.Train(train, opts)
}

// Open constructs a cold serving backend of the named kind from its
// artifact.
func Open(kind string, artifact []byte) (core.StreamBackend, error) {
	s, ok := Get(kind)
	if !ok {
		return nil, fmt.Errorf("backend: unknown kind %q (have %v)", kind, Kinds())
	}
	return s.Open(artifact)
}
