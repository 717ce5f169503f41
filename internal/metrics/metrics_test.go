package metrics

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexRoundTrip(t *testing.T) {
	// Every bucket's lower bound must map back to that bucket, and
	// bucket boundaries must be contiguous and monotone.
	for i := 0; i < histBuckets; i++ {
		lo := bucketLower(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLower(%d)=%d) = %d", i, lo, got)
		}
		hi := lo + bucketWidth(i) - 1
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucketIndex(upper of %d = %d) = %d", i, hi, got)
		}
		if i+1 < histBuckets && bucketLower(i+1) != lo+bucketWidth(i) {
			t.Fatalf("gap after bucket %d: next lower %d, want %d",
				i, bucketLower(i+1), lo+bucketWidth(i))
		}
	}
	if bucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
	if bucketIndex(math.MaxInt64) != histBuckets-1 {
		t.Fatalf("huge values must clamp to the last bucket")
	}
}

func TestHistogramErrorBound(t *testing.T) {
	// Recorded values must be recoverable from their bucket midpoint
	// within the documented 6.25% relative error bound.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		v := int64(rng.Intn(1 << 40))
		h.Record(v)
		idx := bucketIndex(v)
		mid := bucketLower(idx) + bucketWidth(idx)/2
		if v >= 16 {
			rel := math.Abs(float64(mid-v)) / float64(v)
			if rel > 1.0/16 {
				t.Fatalf("value %d: midpoint %d relative error %.4f > 6.25%%", v, mid, rel)
			}
		} else if mid != v {
			t.Fatalf("small value %d must be exact, got midpoint %d", v, mid)
		}
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d, want 10000", h.Count())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// Uniform 1..100000 ns: p50 ≈ 50000, p99 ≈ 99000.
	for v := int64(1); v <= 100000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	checks := []struct {
		q    float64
		want float64
	}{{0.5, 50000}, {0.9, 90000}, {0.99, 99000}, {0.999, 99900}}
	for _, c := range checks {
		got := float64(s.Quantile(c.q))
		if math.Abs(got-c.want)/c.want > 1.0/16+0.01 {
			t.Fatalf("q%.3f = %.0f, want ≈ %.0f", c.q, got, c.want)
		}
	}
	if s.Mean() < 49000 || s.Mean() > 51000 {
		t.Fatalf("mean = %.1f, want ≈ 50000", s.Mean())
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatalf("empty snapshot must report zeros")
	}
}

func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram()
	v := int64(12345)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v++ }); n != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(100, func() { nilH.Record(5) }); n != 0 {
		t.Fatalf("nil Record allocates %.1f/op, want 0", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1 << 30)))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() { // concurrent snapshots must not race or lose structure
		for {
			select {
			case <-done:
				return
			default:
				s := h.Snapshot()
				s.Quantile(0.99)
			}
		}
	}()
	wg.Wait()
	close(done)
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
}

func TestValidName(t *testing.T) {
	good := []string{"aero_engine_frames_total", "aero_x", "aero_p99_seconds"}
	bad := []string{"", "aero_", "engine_frames", "aero_Engine", "aero__x",
		"aero_x_", "aero_x-y", "aero_x.y", "Aero_x"}
	for _, n := range good {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	for _, n := range bad {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestRegistryRegisterAndDedupe(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("aero_test_total", "help")
	c2 := r.Counter("aero_test_total", "help")
	if c1 != c2 {
		t.Fatalf("re-registration must return the same counter")
	}
	h1 := r.Histogram("aero_test_seconds", "h", "kind", "a")
	h2 := r.Histogram("aero_test_seconds", "h", "kind", "b")
	if h1 == h2 {
		t.Fatalf("distinct label sets must be distinct series")
	}
	if got := r.FindHistogram("aero_test_seconds", "kind", "a"); got != h1 {
		t.Fatalf("FindHistogram returned wrong series")
	}
	if got := r.FindHistogram("aero_test_seconds", "kind", "c"); got != nil {
		t.Fatalf("FindHistogram must return nil for unknown series")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("kind mismatch must panic")
			}
		}()
		r.Gauge("aero_test_total", "help")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("invalid name must panic")
			}
		}()
		r.Counter("bad_name", "help")
	}()
	names := r.SeriesNames()
	want := []string{"aero_test_seconds{kind=\"a\"}", "aero_test_seconds{kind=\"b\"}", "aero_test_total"}
	if len(names) != len(want) {
		t.Fatalf("SeriesNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("SeriesNames[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestRegistryValue reads every value kind back through Value: one label
// set exactly, a name summed across its label sets, and absent series.
func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("aero_v_total", "h").Add(3)
	r.Gauge("aero_v_depth", "h").Set(-2)
	r.CounterFunc("aero_v_func_total", "h", func() float64 { return 7 })
	for shard, n := range []float64{4, 5, 6} {
		n := n
		r.GaugeFunc("aero_v_shard", "h", func() float64 { return n }, "shard", strconv.Itoa(shard))
	}
	r.Histogram("aero_v_seconds", "h").Record(10)

	for _, c := range []struct {
		name   string
		labels []string
		want   float64
		ok     bool
	}{
		{"aero_v_total", nil, 3, true},
		{"aero_v_depth", nil, -2, true},
		{"aero_v_func_total", nil, 7, true},
		{"aero_v_shard", []string{"shard", "1"}, 5, true},
		{"aero_v_shard", nil, 15, true},
		{"aero_v_shard", []string{"shard", "3"}, 0, false},
		{"aero_v_absent_total", nil, 0, false},
		{"aero_v_total", []string{"shard", "0"}, 0, false},
		{"aero_v_seconds", nil, 0, false},
	} {
		if got, ok := r.Value(c.name, c.labels...); got != c.want || ok != c.ok {
			t.Errorf("Value(%s, %v) = %v, %v; want %v, %v", c.name, c.labels, got, ok, c.want, c.ok)
		}
	}
	var nilReg *Registry
	if v, ok := nilReg.Value("aero_v_total"); v != 0 || ok {
		t.Fatalf("nil registry Value = %v, %v", v, ok)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("aero_x_total", "h")
	c.Inc()
	g := r.Gauge("aero_x", "h")
	g.Set(5)
	h := r.Histogram("aero_x_seconds", "h")
	h.Record(10)
	r.CounterFunc("aero_f_total", "h", func() float64 { return 1 })
	r.GaugeFunc("aero_f", "h", func() float64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil-registry instruments must be inert")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	if r.SeriesNames() != nil {
		t.Fatalf("nil SeriesNames must be nil")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("aero_frames_total", "frames ingested").Add(42)
	r.Gauge("aero_queue_depth", "queue depth", "shard", "0").Set(7)
	r.GaugeFunc("aero_headroom", "free slots", func() float64 { return 3.5 })
	h := r.Histogram("aero_score_seconds", "score latency", "kind", "aero")
	h.Record(100)       // 100 ns
	h.Record(50_000)    // 50 µs
	h.Record(2_000_000) // 2 ms
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	wants := []string{
		"# TYPE aero_frames_total counter",
		"aero_frames_total 42",
		`aero_queue_depth{shard="0"} 7`,
		"aero_headroom 3.5",
		"# TYPE aero_score_seconds histogram",
		`aero_score_seconds_bucket{kind="aero",le="+Inf"} 3`,
		`aero_score_seconds_count{kind="aero"} 3`,
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Fatalf("output missing %q:\n%s", w, out)
		}
	}
	// Cumulative le buckets must be monotone and end at the count.
	if !strings.Contains(out, "aero_score_seconds_bucket") {
		t.Fatalf("histogram buckets missing")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(4, 1*time.Millisecond)
	for i := 1; i <= 6; i++ {
		ft := FrameTrace{Seq: uint64(i), Time: float64(i)}
		ft.Stage[StageScore] = int64(i) * 1000 // 1µs..6µs, all below slow
		r.Record(&ft)
	}
	s := r.Snapshot()
	if s.Total != 6 || len(s.Frames) != 4 || s.Depth != 4 {
		t.Fatalf("snapshot total=%d len=%d depth=%d", s.Total, len(s.Frames), s.Depth)
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if s.Frames[i].Seq != want {
			t.Fatalf("frame[%d].Seq = %d, want %d (oldest→newest)", i, s.Frames[i].Seq, want)
		}
	}
	if s.Slow != nil || s.SlowCount != 0 {
		t.Fatalf("no frame crossed the slow threshold")
	}
	// A slow frame is pinned even after the ring wraps past it.
	slow := FrameTrace{Seq: 7}
	slow.Stage[StageScore] = int64(3 * time.Millisecond)
	r.Record(&slow)
	slower := FrameTrace{Seq: 8}
	slower.Stage[StageTail] = int64(5 * time.Millisecond)
	r.Record(&slower)
	for i := 9; i <= 20; i++ {
		r.Record(&FrameTrace{Seq: uint64(i)})
	}
	s = r.Snapshot()
	if s.SlowCount != 2 || s.Slow == nil || s.Slow.Seq != 8 {
		t.Fatalf("slow capture: count=%d slow=%+v, want count=2 seq=8", s.SlowCount, s.Slow)
	}
	j := s.JSON()
	if j.Slow == nil || j.Slow.TailNs != int64(5*time.Millisecond) || j.Slow.Path != "full" {
		t.Fatalf("JSON slow frame: %+v", j.Slow)
	}
	if len(j.Frames) != 4 {
		t.Fatalf("JSON frames = %d, want 4", len(j.Frames))
	}

	var nilRing *TraceRing
	nilRing.Record(&slow)
	if snap := nilRing.Snapshot(); snap.Total != 0 {
		t.Fatalf("nil ring must be inert")
	}
}

func TestTraceRingRecordAllocs(t *testing.T) {
	r := NewTraceRing(64, time.Second)
	ft := FrameTrace{Seq: 1}
	ft.Stage[StageScore] = 1000
	if n := testing.AllocsPerRun(1000, func() { ft.Seq++; r.Record(&ft) }); n != 0 {
		t.Fatalf("TraceRing.Record allocates %.1f/op, want 0", n)
	}
}

func TestNowMonotone(t *testing.T) {
	a := Now()
	b := Now()
	if b < a || a < 0 {
		t.Fatalf("Now not monotone: %d then %d", a, b)
	}
}
