package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestSaveLoadRoundtrip(t *testing.T) {
	m, d := shared(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Threshold() != m.Threshold() {
		t.Fatalf("threshold drifted: %v vs %v", loaded.Threshold(), m.Threshold())
	}
	if loaded.Epochs1 != m.Epochs1 || loaded.Epochs2 != m.Epochs2 {
		t.Fatal("epoch bookkeeping lost")
	}
	// The loaded model must score identically.
	want, err := m.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		for i := range want[v] {
			if math.Abs(want[v][i]-got[v][i]) > 1e-12 {
				t.Fatalf("score mismatch at v=%d t=%d: %v vs %v", v, i, want[v][i], got[v][i])
			}
		}
	}
}

func TestSaveUnfittedFails(t *testing.T) {
	m, err := New(testConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(filepath.Join(t.TempDir(), "x.json")); err == nil {
		t.Fatal("expected error saving unfitted model")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	m, _ := shared(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st modelState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	st.Shapes[0][0]++ // corrupt the first parameter's shape
	bad, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	m, _ := shared(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st modelState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	st.Version = 99
	bad, _ := json.Marshal(st)
	badPath := filepath.Join(t.TempDir(), "v99.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(badPath); err == nil {
		t.Fatal("expected version error")
	}
}

// mutateSavedModel saves the shared model, applies f to the decoded state,
// and writes the re-marshalled result to a fresh path.
func mutateSavedModel(t *testing.T, f func(st *modelState)) string {
	t.Helper()
	m, _ := shared(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st modelState
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	f(&st)
	bad, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	badPath := filepath.Join(t.TempDir(), "mutated.json")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	return badPath
}

// TestLoadRejectsShapesCountMismatch pins the fix for the malformed-file
// panic: a file with fewer shapes than parameter blobs indexed past the
// Shapes slice instead of erroring.
func TestLoadRejectsShapesCountMismatch(t *testing.T) {
	path := mutateSavedModel(t, func(st *modelState) {
		st.Shapes = st.Shapes[:len(st.Shapes)-1]
	})
	if _, err := Load(path); err == nil {
		t.Fatal("expected shapes/params count mismatch error")
	}
}

func TestLoadRejectsParamsCountMismatch(t *testing.T) {
	path := mutateSavedModel(t, func(st *modelState) {
		st.Params = st.Params[:len(st.Params)-1]
		st.Shapes = st.Shapes[:len(st.Shapes)-1]
	})
	if _, err := Load(path); err == nil {
		t.Fatal("expected parameter count mismatch error")
	}
}

func TestLoadRejectsParamSizeMismatch(t *testing.T) {
	path := mutateSavedModel(t, func(st *modelState) {
		st.Params[0] = st.Params[0][:len(st.Params[0])-1]
	})
	if _, err := Load(path); err == nil {
		t.Fatal("expected parameter size mismatch error")
	}
}

func TestLoadRejectsNormalizerMismatch(t *testing.T) {
	path := mutateSavedModel(t, func(st *modelState) {
		st.NormLo = st.NormLo[:1]
	})
	if _, err := Load(path); err == nil {
		t.Fatal("expected normalizer bounds mismatch error")
	}
}

// TestLoadTruncatedFile simulates the crash-mid-write Save used to allow:
// a prefix of a valid model file must be a parse error, not a panic.
func TestLoadTruncatedFile(t *testing.T) {
	m, _ := shared(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, len(blob) / 2, len(blob) - 1} {
		truncPath := filepath.Join(t.TempDir(), "trunc.json")
		if err := os.WriteFile(truncPath, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(truncPath); err == nil {
			t.Fatalf("expected error loading %d-byte prefix", cut)
		}
	}
}

// TestSaveAtomicLeavesNoResidue checks the temp-file+rename discipline:
// after a Save (including an overwrite of an existing checkpoint) the
// directory holds exactly the final file, and it loads.
func TestSaveAtomicLeavesNoResidue(t *testing.T) {
	m, _ := shared(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	for i := 0; i < 2; i++ { // second pass renames over the existing file
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "model.json" {
			names := make([]string, len(entries))
			for j, e := range entries {
				names[j] = e.Name()
			}
			t.Fatalf("save pass %d left %v, want exactly [model.json]", i, names)
		}
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
}

func TestBandedAttentionTrainsAndScores(t *testing.T) {
	cfg := testConfig()
	cfg.AttentionBand = 8
	cfg.MaxEpochs = 2
	m, d := fitTiny(t, cfg)
	scores, err := m.Scores(d.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range scores {
		for _, s := range row {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatal("invalid score with banded attention")
			}
		}
	}
}

func TestBandedAttentionSurvivesSaveLoad(t *testing.T) {
	cfg := testConfig()
	cfg.AttentionBand = 8
	cfg.MaxEpochs = 1
	m, _ := fitTiny(t, cfg)
	path := filepath.Join(t.TempDir(), "banded.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Config().AttentionBand != 8 {
		t.Fatal("attention band not persisted")
	}
}

// TestLoadRejectsBadDTScale pins the DTScale check: a file without one
// decoded as 0 and served a model whose every Δt was +Inf, its time
// embedding NaN and its scores a near-constant — with a nil error. Absent,
// zero and negative are each corrupt.
func TestLoadRejectsBadDTScale(t *testing.T) {
	m, _ := shared(t)
	blob, err := m.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(blob, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "DTScale")
	absent, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBytes(absent); err == nil {
		t.Fatal("a file without DTScale loaded")
	}
	for _, dt := range []float64{0, -1} {
		path := mutateSavedModel(t, func(st *modelState) { st.DTScale = dt })
		if _, err := Load(path); err == nil {
			t.Fatalf("DTScale %v loaded", dt)
		}
	}
	if _, err := LoadBytes(blob); err != nil {
		t.Fatalf("the unmutated file: %v", err)
	}
}

// TestCheckScalarsRejectsNonFinite covers the branches JSON cannot reach
// (it has no NaN or ±Inf, and refuses numbers past float64's range): a
// non-finite DTScale, threshold Z or threshold Init is corrupt.
func TestCheckScalarsRejectsNonFinite(t *testing.T) {
	m, _ := shared(t)
	good := modelState{DTScale: m.dtScale, Threshold: m.thr}
	if err := good.checkScalars(); err != nil {
		t.Fatalf("a fitted model's scalars: %v", err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, mutate := range map[string]func(st *modelState){
			"DTScale":        func(st *modelState) { st.DTScale = v },
			"Threshold.Z":    func(st *modelState) { st.Threshold.Z = v },
			"Threshold.Init": func(st *modelState) { st.Threshold.Init = v },
		} {
			st := good
			mutate(&st)
			if err := st.checkScalars(); err == nil {
				t.Fatalf("%s %v accepted", name, v)
			}
		}
	}
}

// Two artifacts whose configs name more than their bytes carry. They
// used to reach New before LoadBytes compared the config with the file:
// the first allocated 1.59 GB of weights before its parameter count was
// rejected, the second panicked in tensor.New. Both are also seeds of
// FuzzModelLoadBytes (testdata/fuzz).
const (
	oversizedDimArtifact = `{"Version":1,"Config":{"LongWindow":8,"ShortWindow":4,"ModelDim":2000,"Heads":1,"EncoderLayers":1,"LR":0.001,"MaxEpochs":1,"POTLevel":0.99,"POTQ":0.001},"N":1,"DTScale":1}`
	negativeFFNArtifact  = `{"Version":1,"Config":{"LongWindow":8,"ShortWindow":4,"ModelDim":4,"Heads":1,"EncoderLayers":1,"FFNHidden":-5,"LR":0.001,"MaxEpochs":1,"POTLevel":0.99,"POTQ":0.001},"N":1,"DTScale":1}`
)

func TestLoadBytesRejectsOversizedConfig(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadBytes([]byte(oversizedDimArtifact))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a config of 2000-wide matrices loaded from a file with no parameters")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte artifact allocated %d bytes", len(oversizedDimArtifact), grew)
	}
}

func TestLoadBytesRejectsNegativeFFNHidden(t *testing.T) {
	if _, err := LoadBytes([]byte(negativeFFNArtifact)); err == nil {
		t.Fatal("FFNHidden -5 loaded")
	}
}

// FuzzModelLoadBytes holds LoadBytes to its contract on any bytes: an
// error and no panic, or a model whose artifact loads back to the same
// artifact. The seed corpus is a small fitted model's artifact and the
// two blobs above.
func FuzzModelLoadBytes(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := LoadBytes(blob)
		if err != nil {
			return
		}
		once, err := m.MarshalBytes()
		if err != nil {
			t.Fatalf("a loaded model does not marshal: %v", err)
		}
		back, err := LoadBytes(once)
		if err != nil {
			t.Fatalf("a loaded model's artifact does not load: %v", err)
		}
		twice, err := back.MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("artifact → load → artifact changed the bytes")
		}
	})
}
