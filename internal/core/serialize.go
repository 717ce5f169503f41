package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"aero/internal/evt"
	"aero/internal/window"
)

// configJSON mirrors Config without the non-serializable Logf callback.
type configJSON struct {
	LongWindow, ShortWindow, ModelDim, Heads, EncoderLayers, FFNHidden int
	LR                                                                 float64
	MaxEpochs, Patience, TrainStride, EvalStride                       int
	POTLevel, POTQ                                                     float64
	Variant                                                            Variant
	AttentionBand                                                      int
	Workers                                                            int
	Seed                                                               int64
}

func toConfigJSON(c Config) configJSON {
	return configJSON{
		LongWindow: c.LongWindow, ShortWindow: c.ShortWindow, ModelDim: c.ModelDim,
		Heads: c.Heads, EncoderLayers: c.EncoderLayers, FFNHidden: c.FFNHidden,
		LR: c.LR, MaxEpochs: c.MaxEpochs, Patience: c.Patience,
		TrainStride: c.TrainStride, EvalStride: c.EvalStride,
		POTLevel: c.POTLevel, POTQ: c.POTQ, Variant: c.Variant,
		AttentionBand: c.AttentionBand, Workers: c.Workers, Seed: c.Seed,
	}
}

func fromConfigJSON(j configJSON) Config {
	return Config{
		LongWindow: j.LongWindow, ShortWindow: j.ShortWindow, ModelDim: j.ModelDim,
		Heads: j.Heads, EncoderLayers: j.EncoderLayers, FFNHidden: j.FFNHidden,
		LR: j.LR, MaxEpochs: j.MaxEpochs, Patience: j.Patience,
		TrainStride: j.TrainStride, EvalStride: j.EvalStride,
		POTLevel: j.POTLevel, POTQ: j.POTQ, Variant: j.Variant,
		AttentionBand: j.AttentionBand, Workers: j.Workers, Seed: j.Seed,
	}
}

// modelState is the on-disk representation of a trained model. Parameters
// are stored positionally in the deterministic order returned by params().
type modelState struct {
	Version   int
	Config    configJSON
	N         int
	DTScale   float64
	NormLo    []float64
	NormHi    []float64
	Threshold evt.Threshold
	Epochs1   int
	Epochs2   int
	Params    [][]float64
	Shapes    [][2]int
}

// params returns every trainable parameter in a deterministic order.
func (m *Model) params() []*paramRef {
	var out []*paramRef
	if m.temporal != nil {
		for _, p := range m.temporal.params() {
			out = append(out, &paramRef{p.Name, p.Value.Rows, p.Value.Cols, p.Value.Data})
		}
	}
	if m.noise != nil {
		for _, p := range m.noise.params() {
			out = append(out, &paramRef{p.Name, p.Value.Rows, p.Value.Cols, p.Value.Data})
		}
	}
	return out
}

type paramRef struct {
	name       string
	rows, cols int
	data       []float64
}

// Save writes the trained model to path as JSON. The model must be fitted.
//
// The write is atomic: the JSON lands in a temp file in path's directory,
// is synced, then renamed over path — a crash mid-write can never leave a
// truncated or half-written checkpoint where a reader expects a model.
func (m *Model) Save(path string) error {
	blob, err := m.MarshalBytes()
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(path, blob, 0o644); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// MarshalBytes serializes the fitted model to the bytes Save writes —
// the AERO backend artifact. LoadBytes is the inverse.
func (m *Model) MarshalBytes() ([]byte, error) {
	if !m.trained {
		return nil, fmt.Errorf("core: cannot save an unfitted model")
	}
	st := modelState{
		Version: 1,
		Config:  toConfigJSON(m.cfg),
		N:       m.n,
		DTScale: m.dtScale,
		NormLo:  m.norm.Lo, NormHi: m.norm.Hi,
		Threshold: m.thr,
		Epochs1:   m.Epochs1, Epochs2: m.Epochs2,
	}
	for _, p := range m.params() {
		st.Params = append(st.Params, p.data)
		st.Shapes = append(st.Shapes, [2]int{p.rows, p.cols})
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("core: marshal model: %w", err)
	}
	return blob, nil
}

// WriteFileAtomic writes blob to a temp file in path's directory, syncs it
// to stable storage, renames it over path, then syncs the directory so the
// new entry itself survives a crash (without the directory fsync, a rename
// can vanish on power loss — which would let the registry reuse a version
// id it promised never to reissue). The temp file lives in the same
// directory so the rename cannot cross filesystems. Shared by model saves
// and the lifecycle registry's state checkpoints so the atomicity
// discipline has one implementation.
func WriteFileAtomic(path string, blob []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".aero-save-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, perm)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	} else {
		err = derr
	}
	return err
}

// checkScalars rejects the scalars no fitted model saves: a DTScale that is
// not a finite positive interval (an absent one decodes as 0, which makes
// every Δt +Inf and the time embedding NaN, and the model then scores a
// near-constant with no NaN left to notice), and a non-finite threshold.
func (st *modelState) checkScalars() error {
	if !(st.DTScale > 0) || math.IsInf(st.DTScale, 1) {
		return fmt.Errorf("core: corrupt model file: DTScale %v, want a finite interval > 0", st.DTScale)
	}
	if z, init := st.Threshold.Z, st.Threshold.Init; math.IsNaN(z) || math.IsInf(z, 0) || math.IsNaN(init) || math.IsInf(init, 0) {
		return fmt.Errorf("core: corrupt model file: threshold Z %v, Init %v, want finite values", z, init)
	}
	return nil
}

// paramFloor is a lower bound on the parameters New allocates for n
// variates: EncoderLayers times each layer's largest matrix, the
// decoder's input projection, and stage 2's ω×ω weight. It is a float64
// so that no product of decoded sizes overflows.
func (c Config) paramFloor(n int) float64 {
	var need float64
	if c.usesTemporal() {
		dm, in := float64(c.ModelDim), 1.0
		if c.multivariateInput() {
			in = float64(n)
		}
		need = math.Max(float64(c.EncoderLayers)*dm*math.Max(dm, float64(c.FFNHidden)), dm*in)
	}
	if c.usesNoise() {
		w := float64(c.ShortWindow)
		need = math.Max(need, w*w)
	}
	return need
}

// Load reads a model previously written by Save and returns it ready for
// Scores/Detect (no retraining needed).
func Load(path string) (*Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return LoadBytes(blob)
}

// LoadBytes decodes a model from the bytes of a Save file. Callers that
// need to distinguish I/O failures from corrupt content (e.g. the
// lifecycle registry, which quarantines only the latter) read the file
// themselves and hand the bytes here.
func LoadBytes(blob []byte) (*Model, error) {
	var st modelState
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, fmt.Errorf("core: parse model: %w", err)
	}
	if st.Version != 1 {
		return nil, fmt.Errorf("core: unsupported model version %d", st.Version)
	}
	if len(st.Shapes) != len(st.Params) {
		return nil, fmt.Errorf("core: corrupt model file: %d parameter blobs but %d shapes", len(st.Params), len(st.Shapes))
	}
	// New allocates what the config names, so check the config against
	// what the file carries first: a few hundred bytes must not buy
	// gigabytes of weights.
	cfg := fromConfigJSON(st.Config).normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	carried := 0.0
	for _, p := range st.Params {
		carried += float64(len(p))
	}
	if need := cfg.paramFloor(st.N); need > carried {
		return nil, fmt.Errorf("core: corrupt model file: config needs at least %.0f parameters, file carries %.0f", need, carried)
	}
	m, err := New(cfg, st.N)
	if err != nil {
		return nil, err
	}
	refs := m.params()
	if len(refs) != len(st.Params) {
		return nil, fmt.Errorf("core: model has %d parameters, file has %d", len(refs), len(st.Params))
	}
	for i, p := range refs {
		if st.Shapes[i] != [2]int{p.rows, p.cols} {
			return nil, fmt.Errorf("core: parameter %d (%s) shape mismatch: file %v, model %dx%d",
				i, p.name, st.Shapes[i], p.rows, p.cols)
		}
		if len(st.Params[i]) != len(p.data) {
			return nil, fmt.Errorf("core: parameter %d (%s) size mismatch", i, p.name)
		}
		copy(p.data, st.Params[i])
	}
	if len(st.NormLo) != st.N || len(st.NormHi) != st.N {
		return nil, fmt.Errorf("core: corrupt model file: %d/%d normalizer bounds for %d variates",
			len(st.NormLo), len(st.NormHi), st.N)
	}
	if err := st.checkScalars(); err != nil {
		return nil, err
	}
	m.norm = &window.Normalizer{Lo: st.NormLo, Hi: st.NormHi}
	m.dtScale = st.DTScale
	m.thr = st.Threshold
	m.Epochs1, m.Epochs2 = st.Epochs1, st.Epochs2
	m.trained = true
	return m, nil
}
