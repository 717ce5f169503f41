package baselines

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"aero/internal/core"
	"aero/internal/stats"
)

// extractRef is FluxEV.extract as it was before the running maximum,
// kept verbatim as the oracle: every step rescans its whole window.
func extractRef(d *FluxEV, x []float64) []float64 {
	T := len(x)
	out := make([]float64, T)
	if T < 2 {
		return out
	}
	// Step 1: residual against the EWMA of *previous* points.
	ew := stats.EWMA(x, d.Alpha)
	res := make([]float64, T)
	for t := 1; t < T; t++ {
		res[t] = math.Abs(x[t] - ew[t-1])
	}
	// Step 2: subtract the recent maximum residual; only excess beyond
	// recently-seen fluctuation survives.
	w := d.SuppressWindow
	if w < 1 {
		w = 1
	}
	for t := 1; t < T; t++ {
		lo := t - w
		if lo < 0 {
			lo = 0
		}
		recent := 0.0
		for j := lo; j < t; j++ {
			if res[j] > recent {
				recent = res[j]
			}
		}
		if excess := res[t] - recent; excess > 0 {
			out[t] = excess
		}
	}
	return out
}

// fluxevScanRef is StreamFluxEV.PushScores as it was before the running
// maximum, kept verbatim as the oracle: every push rescans the ring.
type fluxevScanRef struct {
	n, suppress, count int
	alpha              float64
	ew                 []float64
	res                [][]float64
	scores             []float64
}

func newFluxevScanRef(n, suppress int, alpha float64) *fluxevScanRef {
	d := &fluxevScanRef{n: n, suppress: suppress, alpha: alpha,
		ew: make([]float64, n), res: make([][]float64, n), scores: make([]float64, n)}
	for v := range d.res {
		d.res[v] = make([]float64, suppress)
	}
	return d
}

// restore loads a snapshot the way StreamFluxEV.RestoreState did.
func (d *fluxevScanRef) restore(t *testing.T, blob []byte) {
	t.Helper()
	var st streamSnapshot
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	d.count = st.Count
	for v := range d.res {
		copy(d.res[v], st.Rings[v])
	}
	copy(d.ew, st.EW)
}

// recent is the scan: the maximum over the slots the push at frame t
// reads.
func (d *fluxevScanRef) recent(v, t int) float64 {
	// Recent maximum over res[t-suppress .. t-1]; while t <= suppress
	// only the first t slots are populated.
	limit := d.suppress
	if t < limit {
		limit = t
	}
	recent := 0.0
	for j := 0; j < limit; j++ {
		if d.res[v][j] > recent {
			recent = d.res[v][j]
		}
	}
	return recent
}

func (d *fluxevScanRef) push(mags []float64) []float64 {
	t := d.count // 0-based index of this frame
	d.count++
	if t == 0 {
		for v := 0; v < d.n; v++ {
			d.ew[v] = mags[v]
			d.res[v][0] = 0 // the batch path's implicit res[0]
		}
		return nil
	}
	for v := 0; v < d.n; v++ {
		x := mags[v]
		r := math.Abs(x - d.ew[v]) // residual vs the EWMA of *previous* points
		recent := d.recent(v, t)
		sc := r - recent
		if sc < 0 {
			sc = 0
		}
		d.scores[v] = sc
		d.res[v][t%d.suppress] = r
		d.ew[v] = d.alpha*x + (1-d.alpha)*d.ew[v]
	}
	return d.scores
}

// fluxevFeed is one magnitude family the running maximum is checked on,
// x[variate][frame]. Only a finite feed can be snapshotted (JSON has no
// NaN or Inf).
type fluxevFeed struct {
	name   string
	finite bool
	x      [][]float64
}

func fluxevFeeds(n, T int) []fluxevFeed {
	rng := rand.New(rand.NewSource(25))
	gen := func(f func(v, t int) float64) [][]float64 {
		x := make([][]float64, n)
		for v := range x {
			x[v] = make([]float64, T)
			for t := range x[v] {
				x[v][t] = f(v, t)
			}
		}
		return x
	}
	return []fluxevFeed{
		{"noise", true, gen(func(int, int) float64 { return rng.NormFloat64() })},
		// Integer magnitudes tie residuals, exactly so at alpha 1.
		{"integers", true, gen(func(int, int) float64 { return float64(rng.Intn(4)) })},
		// Every residual is 0: the maximum never leaves 0.
		{"constant", true, gen(func(int, int) float64 { return 7 })},
		// A step every 60 frames: the residuals decay geometrically after
		// it, so the oldest slot is the maximum and leaves on every frame.
		{"decay", true, gen(func(v, t int) float64 { return float64(10 * (v + 1) * (t / 60 % 2)) })},
		// NaN and ±Inf magnitudes (each poisons the batch forecast of its
		// variate from then on; the stream adapter refuses their frames),
		// and ±1.5e308 whose residuals overflow to +Inf between finite
		// ones.
		{"special", false, gen(func(v, t int) float64 {
			switch {
			case v == 0 && t == 40:
				return math.NaN()
			case v == 1 && t == 70:
				return math.Inf(1)
			case v == 2 && t == 100:
				return math.Inf(-1)
			case v == 3:
				return float64(1-2*rng.Intn(2)) * 1.5e308
			}
			return rng.NormFloat64()
		})},
	}
}

func finiteFrame(f core.Frame) bool {
	for _, x := range f.Magnitudes {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFluxEVExtractMatchesRef pins the batch extraction's running maximum
// to the full rescan it replaced, bit for bit, on every feed family and
// window — below one, one, two, the default and longer than the series.
func TestFluxEVExtractMatchesRef(t *testing.T) {
	const T = 240
	for _, feed := range fluxevFeeds(4, T) {
		for _, w := range []int{-1, 0, 1, 2, 20, T + 5} {
			for _, alpha := range []float64{0.25, 1} {
				d := &FluxEV{Alpha: alpha, SuppressWindow: w}
				for v, x := range feed.x {
					if got, want := d.extract(x), extractRef(d, x); !sameBits(got, want) {
						t.Fatalf("%s window %d alpha %v variate %d: running max %v != scan %v", feed.name, w, alpha, v, got, want)
					}
				}
			}
		}
	}
}

// TestStreamFluxEVRunningMaxMatchesScan is the oracle that lets the
// per-push scan go: StreamFluxEV, which carries each variate's window
// maximum and rescans only when the evicted residual was it, must give
// the score bits of fluxevScanRef on every feed family, suppress window
// and starting alpha, across a mid-stream SwapArtifact to the other
// alpha, after RestoreState at every cut of the finite feeds, and from
// arbitrary restored states whose rings hold values the scan never reads.
func TestStreamFluxEVRunningMaxMatchesScan(t *testing.T) {
	const n, T = 4, 240
	const swapAt = T / 2
	alphas := [2]float64{0.25, 1}
	frame := func(feed fluxevFeed, ti int) core.Frame {
		f := core.Frame{Time: float64(ti), Magnitudes: make([]float64, n)}
		for v := range f.Magnitudes {
			f.Magnitudes[v] = feed.x[v][ti]
		}
		return f
	}
	for _, feed := range fluxevFeeds(n, T) {
		for _, s := range []int{1, 2, 20, T + 5} {
			for a := range alphas {
				name := fmt.Sprintf("%s/suppress=%d/alpha=%v", feed.name, s, alphas[a])
				t.Run(name, func(t *testing.T) {
					var arts [2][]byte // one artifact per alpha
					for i, alpha := range alphas {
						b, err := NewStreamFluxEV(n, StreamConfig{FluxEVAlpha: alpha, FluxEVSuppress: s})
						if err != nil {
							t.Fatal(err)
						}
						if arts[i], err = b.MarshalArtifact(); err != nil {
							t.Fatal(err)
						}
					}
					d, err := OpenStreamFluxEV(arts[a])
					if err != nil {
						t.Fatal(err)
					}
					ref := newFluxevScanRef(n, s, alphas[a])

					want := make([][]float64, T)
					blobs := make([][]byte, T)
					rescans := 0
					for ti := 0; ti < T; ti++ {
						if ti == swapAt {
							if err := d.SwapArtifact(arts[1-a]); err != nil {
								t.Fatal(err)
							}
							ref.alpha = alphas[1-a]
						}
						if feed.finite {
							if blobs[ti], err = d.SnapshotState(); err != nil {
								t.Fatal(err)
							}
						}
						for v := 0; v < n && ti > 0; v++ {
							if d.res[v][d.cur] == d.hi[v] && d.hi[v] > 0 {
								rescans++
							}
						}
						f := frame(feed, ti)
						got, err := d.PushScores(f)
						if !finiteFrame(f) {
							if err == nil {
								t.Fatalf("t=%d: non-finite magnitudes %v accepted", ti, f.Magnitudes)
							}
							continue
						}
						if err != nil {
							t.Fatal(err)
						}
						wantScores := ref.push(f.Magnitudes)
						if (got == nil) != (wantScores == nil) || !sameBits(got, wantScores) {
							t.Fatalf("t=%d: running max %v != scan %v", ti, got, wantScores)
						}
						want[ti] = append([]float64(nil), wantScores...)
					}
					if feed.name == "decay" && s == 20 && rescans < T*n/10 {
						t.Fatalf("decay feed rescanned on %d of %d pushes: the eviction path went untested", rescans, T*n)
					}
					if !feed.finite {
						return
					}
					// Restore every cut into one used adapter, whose own
					// running maximum is stale, under the alpha in force
					// at the cut, and continue.
					for cut := 1; cut < T; cut++ {
						if err := d.RestoreState(blobs[cut]); err != nil {
							t.Fatal(err)
						}
						inForce := a
						if cut > swapAt {
							inForce = 1 - a
						}
						if err := d.SwapArtifact(arts[inForce]); err != nil {
							t.Fatal(err)
						}
						for ti := cut; ti < T; ti++ {
							if ti == swapAt {
								if err := d.SwapArtifact(arts[1-a]); err != nil {
									t.Fatal(err)
								}
							}
							got, err := d.PushScores(frame(feed, ti))
							if err != nil {
								t.Fatal(err)
							}
							if !sameBits(got, want[ti]) {
								t.Fatalf("restored at %d, t=%d: %v != uninterrupted scan %v", cut, ti, got, want[ti])
							}
						}
					}
				})
			}
		}
	}

	// A snapshot may hold anything in the slots the scan does not read yet
	// (its count is below the window): the running maximum must neither
	// read them nor be fooled when one is evicted. Values from {0..3} tie
	// often, integer magnitudes at alpha 1 keep residuals integral.
	t.Run("dirty rings", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 400; trial++ {
			s := 1 + rng.Intn(25)
			st := streamSnapshot{
				Kind: KindFluxEV, Version: streamSnapshotVersion, N: n, Window: s,
				Count: rng.Intn(2*s + 2), Rings: make([][]float64, n), EW: make([]float64, n),
			}
			for v := range st.Rings {
				st.Rings[v] = make([]float64, s)
				for j := range st.Rings[v] {
					st.Rings[v][j] = float64(rng.Intn(4))
				}
				st.EW[v] = float64(rng.Intn(6))
			}
			blob, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewStreamFluxEV(n, StreamConfig{FluxEVAlpha: 1, FluxEVSuppress: s})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RestoreState(blob); err != nil {
				t.Fatal(err)
			}
			ref := newFluxevScanRef(n, s, 1)
			ref.restore(t, blob)
			f := core.Frame{Magnitudes: make([]float64, n)}
			for k := 0; k < 2*s+2; k++ {
				f.Time = float64(k + 1)
				for v := range f.Magnitudes {
					f.Magnitudes[v] = float64(rng.Intn(6))
				}
				got, err := d.PushScores(f)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.push(f.Magnitudes); (got == nil) != (want == nil) || !sameBits(got, want) {
					t.Fatalf("trial %d (suppress %d, count %d) push %d: running max %v != scan %v", trial, s, st.Count, k, got, want)
				}
			}
		}
	})
}

// TestStreamFluxEVSuppressWindow: a suppression window below one serves
// as one slot, and open, swap and marshal agree on that — an adapter
// accepts its own artifact and the artifact it republishes, and still
// refuses another window.
func TestStreamFluxEVSuppressWindow(t *testing.T) {
	for _, tc := range []struct{ suppress, window int }{{-1, 1}, {0, 1}, {1, 1}, {20, 20}} {
		t.Run(fmt.Sprint(tc.suppress), func(t *testing.T) {
			art := []byte(fmt.Sprintf(`{"kind":"fluxev","version":1,"n":2,"threshold":0.5,"alpha":0.25,"suppress":%d}`, tc.suppress))
			d, err := OpenStreamFluxEV(art)
			if err != nil {
				t.Fatal(err)
			}
			if d.suppress != tc.window {
				t.Fatalf("opened with window %d, want %d", d.suppress, tc.window)
			}
			if err := d.SwapArtifact(art); err != nil {
				t.Fatalf("refused its own artifact: %v", err)
			}
			republished, err := d.MarshalArtifact()
			if err != nil {
				t.Fatal(err)
			}
			if err := d.SwapArtifact(republished); err != nil {
				t.Fatalf("refused its republished artifact: %v", err)
			}
			reopened, err := OpenStreamFluxEV(republished)
			if err != nil {
				t.Fatal(err)
			}
			if reopened.suppress != tc.window {
				t.Fatalf("republished window %d, want %d", reopened.suppress, tc.window)
			}
			built, err := NewStreamFluxEV(2, StreamConfig{FluxEVAlpha: 0.25, FluxEVSuppress: tc.suppress})
			if err != nil {
				t.Fatal(err)
			}
			built.thr = 0.5
			if fromConfig, err := built.MarshalArtifact(); err != nil || string(fromConfig) != string(republished) {
				t.Fatalf("config-built artifact %s != opened one %s (%v)", fromConfig, republished, err)
			}
			wider := []byte(fmt.Sprintf(`{"kind":"fluxev","version":1,"n":2,"threshold":0.5,"alpha":0.25,"suppress":%d}`, tc.window+1))
			if err := d.SwapArtifact(wider); err == nil {
				t.Fatalf("window %d adapter accepted a window %d artifact", tc.window, tc.window+1)
			}
		})
	}
}

// TestStreamFluxEVBytesPinned pins, by length and FNV-1a hash, the two
// byte forms a FluxEV tenant leaves behind: the artifact of an adapter
// calibrated on the stream fixture's training split (its JSON carries
// "level":0,"q":0 — the adapter does not record its POT parameters) and
// the snapshot of one warmed on 253 test frames, a count that is not a
// multiple of the suppress window. A published artifact or a checkpoint
// on disk opens only while they hold.
func TestStreamFluxEVBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("FluxEV bytes are pinned on amd64")
	}
	d := streamTestData()
	cfg := DefaultStreamConfig()
	cal, err := NewStreamFluxEV(d.Train.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CalibrateStream(cal, d.Train, cfg.Level, cfg.Q); err != nil {
		t.Fatal(err)
	}
	artifact, err := cal.MarshalArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(artifact, []byte(`"level":0,"q":0`)) {
		t.Fatalf("artifact %s lost its zero level and q", artifact)
	}

	warm, err := NewStreamFluxEV(d.Test.N(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 253
	if frames%cfg.FluxEVSuppress == 0 {
		t.Fatalf("%d frames fill the suppress window exactly", frames)
	}
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < frames; ti++ {
		frame.Time = d.Test.Time[ti]
		for v := range frame.Magnitudes {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		if _, err := warm.PushScores(frame); err != nil {
			t.Fatal(err)
		}
	}
	snapshot, err := warm.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		blob []byte
		size int
		hash uint64
	}{
		{"artifact", artifact, 109, 0x5e65989d1203f1f},
		{"snapshot", snapshot, 1344, 0xb63f9270c9e71f6f},
	} {
		h := fnv.New64a()
		h.Write(tc.blob)
		if len(tc.blob) != tc.size || h.Sum64() != tc.hash {
			t.Errorf("%s is %d bytes with hash %#x, pinned %d bytes with %#x", tc.name, len(tc.blob), h.Sum64(), tc.size, tc.hash)
		}
	}
}
