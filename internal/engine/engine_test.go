package engine_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
)

// fixture trains one small model shared by every test; engine scoring only
// reads the trained weights, so tenants and tests can share it freely.
var (
	fixOnce sync.Once
	fixM    *core.Model
	fixD    *dataset.Dataset
	fixErr  error
)

func fixtureConfig() core.Config {
	c := core.SmallConfig()
	c.LongWindow = 48
	c.ShortWindow = 16
	c.MaxEpochs = 3
	c.TrainStride = 24
	c.EvalStride = 16
	c.Seed = 9
	return c
}

func fixture(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	fixOnce.Do(func() {
		fixD = tenantSeries(0)
		m, err := core.New(fixtureConfig(), fixD.Train.N())
		if err != nil {
			fixErr = err
			return
		}
		fixErr = m.Fit(fixD.Train)
		fixM = m
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixM, fixD
}

// tenantSeries generates the dataset observed by one tenant; each tenant
// watches a field with the same star count but different noise/anomalies.
func tenantSeries(tenant int) *dataset.Dataset {
	return dataset.SyntheticConfig{
		Name: "engine", N: 6, TrainLen: 350, TestLen: 260,
		NoiseVariates: 4, AnomalySegments: 1, NoisePct: 3,
		VariableFrac: 0.5, Seed: int64(100 + tenant),
	}.Generate()
}

// subscribeModel registers a tenant served by a fresh AERO detector over
// the shared model m.
func subscribeModel(e *engine.Engine, id string, m *core.Model) (*engine.Subscription, error) {
	det, err := core.NewStreamDetector(m)
	if err != nil {
		return nil, err
	}
	return e.SubscribeBackend(id, det)
}

func collectAlarms(e *engine.Engine) (map[string][]core.Alarm, *sync.WaitGroup) {
	got := map[string][]core.Alarm{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for a := range e.Alarms() {
			got[a.Sub] = append(got[a.Sub], a.Alarm)
		}
	}()
	return got, &wg
}

// TestEngineMatchesSequentialReplay is the equivalence contract of the
// batched engine: for every tenant, the sharded worker-pool pipeline must
// produce exactly the alarms a sequential StreamDetector.Replay produces —
// same frames, same order, bit-identical scores.
func TestEngineMatchesSequentialReplay(t *testing.T) {
	m, _ := fixture(t)
	const tenants = 4
	series := make([]*dataset.Series, tenants)
	want := make([][]core.Alarm, tenants)
	ids := []string{"gwac-f0", "gwac-f1", "gwac-f2", "gwac-f3"}
	for i := 0; i < tenants; i++ {
		series[i] = tenantSeries(i).Test
		det, err := core.NewStreamDetector(m)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = det.Replay(series[i]); err != nil {
			t.Fatal(err)
		}
	}

	e := engine.New(engine.Config{Shards: 3, Workers: 4, QueueDepth: 16, BatchSize: 4})
	for _, id := range ids {
		if _, err := subscribeModel(e, id, m); err != nil {
			t.Fatal(err)
		}
	}
	got, wg := collectAlarms(e)

	// Interleave tenants frame-by-frame, as a telescope camera would.
	frame := core.Frame{Magnitudes: make([]float64, series[0].N())}
	for ti := 0; ti < series[0].Len(); ti++ {
		for i, id := range ids {
			s := series[i]
			frame.Time = s.Time[ti]
			for v := 0; v < s.N(); v++ {
				frame.Magnitudes[v] = s.Data[v][ti]
			}
			if err := e.Ingest(id, frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Flush()
	e.Close()
	wg.Wait()

	totalWanted := 0
	for i, id := range ids {
		totalWanted += len(want[i])
		g := got[id]
		if len(g) != len(want[i]) {
			t.Fatalf("tenant %s: engine produced %d alarms, sequential replay %d", id, len(g), len(want[i]))
		}
		for k := range g {
			if g[k] != want[i][k] {
				t.Fatalf("tenant %s alarm %d: engine %+v != replay %+v", id, k, g[k], want[i][k])
			}
		}
	}
	if totalWanted == 0 {
		t.Fatal("fixture produced no alarms; equivalence test is vacuous")
	}
}

// TestSwapMatchesSequentialReplay is the hot-swap equivalence contract:
// replaying a feed with mid-stream Swaps to the *same* weights (Save/Load
// round-trips of the serving model) must be bit-identical to a sequential
// replay with no swap at all. One swap lands at a quiesced frame boundary
// (after Flush), one races live ingestion — since the engine serializes
// swaps with scoring on the subscription lock, even the racing swap lands
// between frames, and identical weights make its exact landing spot
// unobservable. Zero frames may be dropped or re-ordered.
func TestSwapMatchesSequentialReplay(t *testing.T) {
	m, _ := fixture(t)
	path := filepath.Join(t.TempDir(), "twin.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	twin, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	twin2, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	series := tenantSeries(0).Test
	det, err := core.NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Replay(series)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture replay produced no alarms; swap equivalence is vacuous")
	}

	e := engine.New(engine.Config{Shards: 2, Workers: 2, QueueDepth: 8, BatchSize: 4})
	sub, err := subscribeModel(e, "swap", m)
	if err != nil {
		t.Fatal(err)
	}
	got, wg := collectAlarms(e)

	frame := core.Frame{Magnitudes: make([]float64, series.N())}
	ingest := func(ti int) {
		frame.Time = series.Time[ti]
		for v := 0; v < series.N(); v++ {
			frame.Magnitudes[v] = series.Data[v][ti]
		}
		if err := e.Ingest("swap", frame); err != nil {
			t.Fatal(err)
		}
	}
	third := series.Len() / 3
	for ti := 0; ti < third; ti++ {
		ingest(ti)
	}
	e.Flush()
	if err := sub.Swap(twin); err != nil { // quiesced swap at a frame boundary
		t.Fatalf("swap: %v", err)
	}
	swapped := make(chan error, 1)
	for ti := third; ti < 2*third; ti++ {
		if ti == third+third/2 {
			go func() { swapped <- sub.Swap(twin2) }() // racing live ingestion
		}
		ingest(ti)
	}
	if err := <-swapped; err != nil {
		t.Fatalf("concurrent swap: %v", err)
	}
	for ti := 2 * third; ti < series.Len(); ti++ {
		ingest(ti)
	}
	e.Flush()
	if st := sub.Stats(); st.Swaps != 2 || st.Frames != uint64(series.Len()) {
		t.Fatalf("stats %+v, want 2 swaps and %d frames", st, series.Len())
	}
	e.Close()
	wg.Wait()

	g := got["swap"]
	if len(g) != len(want) {
		t.Fatalf("engine produced %d alarms across swaps, sequential replay %d", len(g), len(want))
	}
	for k := range g {
		if g[k] != want[k] {
			t.Fatalf("alarm %d: engine %+v != replay %+v", k, g[k], want[k])
		}
	}
}

// TestSubscriptionSwapRejectsMismatch checks that a bad swap surfaces the
// core validation error and leaves the tenant serving the old model.
func TestSubscriptionSwapRejectsMismatch(t *testing.T) {
	m, d := fixture(t)
	e := engine.New(engine.Config{Shards: 1, Workers: 1})
	sub, err := subscribeModel(e, "strict", m)
	if err != nil {
		t.Fatal(err)
	}
	unfitted, err := core.New(fixtureConfig(), d.Test.N())
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Swap(unfitted); err == nil {
		t.Fatal("swap accepted an unfitted model")
	}
	if st := sub.Stats(); st.Swaps != 0 {
		t.Fatalf("failed swap counted: %+v", st)
	}
	_, wg := collectAlarms(e)
	e.Close()
	wg.Wait()
}

// TestSubscriptionSnapshotRestore round-trips warm detector state through
// the Subscription pass-throughs: a second engine restores the first's
// state and continues the feed with bit-identical alarms.
func TestSubscriptionSnapshotRestore(t *testing.T) {
	m, _ := fixture(t)
	series := tenantSeries(0).Test
	det, err := core.NewStreamDetector(m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Replay(series)
	if err != nil {
		t.Fatal(err)
	}

	cut := series.Len() / 2
	feed := func(e *engine.Engine, id string, lo, hi int) {
		frame := core.Frame{Magnitudes: make([]float64, series.N())}
		for ti := lo; ti < hi; ti++ {
			frame.Time = series.Time[ti]
			for v := 0; v < series.N(); v++ {
				frame.Magnitudes[v] = series.Data[v][ti]
			}
			if err := e.Ingest(id, frame); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}

	e1 := engine.New(engine.Config{Shards: 1, Workers: 1})
	sub1, err := subscribeModel(e1, "gen1", m)
	if err != nil {
		t.Fatal(err)
	}
	got1, wg1 := collectAlarms(e1)
	feed(e1, "gen1", 0, cut)
	blob, err := sub1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	wg1.Wait()

	e2 := engine.New(engine.Config{Shards: 1, Workers: 1})
	sub2, err := subscribeModel(e2, "gen2", m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	got2, wg2 := collectAlarms(e2)
	feed(e2, "gen2", cut, series.Len())
	e2.Close()
	wg2.Wait()

	all := append(append([]core.Alarm(nil), got1["gen1"]...), got2["gen2"]...)
	if len(all) != len(want) {
		t.Fatalf("restart produced %d alarms, uninterrupted replay %d", len(all), len(want))
	}
	for k := range all {
		if all[k] != want[k] {
			t.Fatalf("alarm %d: restart %+v != replay %+v", k, all[k], want[k])
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture replay produced no alarms; restore equivalence is vacuous")
	}
}

// TestEngineBackpressureLossless saturates a tiny queue and asserts the
// engine blocks producers instead of dropping frames.
func TestEngineBackpressureLossless(t *testing.T) {
	m, d := fixture(t)
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 2, BatchSize: 1})
	sub, err := subscribeModel(e, "solo", m)
	if err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	frames := 2 * m.Config().LongWindow
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < frames; ti++ {
		idx := ti % d.Test.Len()
		frame.Time = float64(ti)
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][idx]
		}
		if err := e.Ingest("solo", frame); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if got := sub.Stats().Frames; got != uint64(frames) {
		t.Fatalf("scored %d frames, want %d (lossless backpressure)", got, frames)
	}
	e.Close()
	wg.Wait()
}

// TestEngineSamplesChannel feeds frames through the channel ingest path
// and verifies routing errors surface on Errors.
func TestEngineSamplesChannel(t *testing.T) {
	m, d := fixture(t)
	e := engine.New(engine.Config{Shards: 2, Workers: 2})
	if _, err := subscribeModel(e, "chan", m); err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	var errCount atomic.Int32
	var ewg sync.WaitGroup
	ewg.Add(1)
	go func() {
		defer ewg.Done()
		for range e.Errors() {
			errCount.Add(1)
		}
	}()

	in := e.Samples()
	n := m.Config().LongWindow / 2
	for ti := 0; ti < n; ti++ {
		mags := make([]float64, d.Test.N())
		for v := range mags {
			mags[v] = d.Test.Data[v][ti]
		}
		in <- engine.Sample{Sub: "chan", Frame: core.Frame{Time: float64(ti), Magnitudes: mags}}
	}
	// Unroutable and malformed samples must not wedge the pipeline.
	in <- engine.Sample{Sub: "nobody", Frame: core.Frame{Time: 1, Magnitudes: make([]float64, d.Test.N())}}
	in <- engine.Sample{Sub: "chan", Frame: core.Frame{Time: 999, Magnitudes: make([]float64, 1)}}

	// Wait until the router has handed everything off: n scored frames and
	// two reported errors. Close may otherwise race the buffered channel.
	for e.Totals().Frames < uint64(n) || errCount.Load() < 2 {
		time.Sleep(time.Millisecond)
		e.Flush()
	}
	e.Close()
	wg.Wait()
	ewg.Wait()
	if got := errCount.Load(); got != 2 {
		t.Fatalf("expected 2 frame errors on the channel, got %d", got)
	}
}

// TestEngineCloseUnblocksProducers pins the shutdown contract: a producer
// parked on a saturated shard must be released with ErrClosed when the
// engine closes, not deadlock.
func TestEngineCloseUnblocksProducers(t *testing.T) {
	m, d := fixture(t)
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 1, BatchSize: 1})
	if _, err := subscribeModel(e, "p", m); err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	done := make(chan error, 1)
	go func() {
		frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
		for ti := 0; ; ti++ {
			idx := ti % d.Test.Len()
			frame.Time = float64(ti)
			for v := 0; v < d.Test.N(); v++ {
				frame.Magnitudes[v] = d.Test.Data[v][idx]
			}
			if err := e.Ingest("p", frame); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond) // let the producer outrun the single worker
	e.Close()
	select {
	case err := <-done:
		if !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("producer unblocked with %v, want ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("producer still blocked after Close")
	}
	wg.Wait()
}

// TestEngineCloseReleasesEngine pins what Close leaves behind: a producer
// that keeps Samples() open after Close (it may never close it) still has a
// receiver — late samples are counted in Totals().Errors — but that receiver
// must not keep the engine, its tenants or their state reachable.
func TestEngineCloseReleasesEngine(t *testing.T) {
	collected := make(chan struct{})
	// The engine lives only inside this call; the producer's channel is all
	// that escapes it.
	samples := func() chan<- engine.Sample {
		e := engine.New(engine.Config{Shards: 1, Workers: 1})
		backend := &chattyBackend{n: 1}
		runtime.SetFinalizer(backend, func(*chattyBackend) { close(collected) })
		if _, err := e.SubscribeBackend("t", backend); err != nil {
			t.Fatal(err)
		}
		_, wg := collectAlarms(e)
		in := e.Samples()
		e.Close()
		wg.Wait()
		in <- engine.Sample{Sub: "t", Frame: core.Frame{Time: 1, Magnitudes: []float64{0}}}
		for deadline := time.Now().Add(10 * time.Second); e.Totals().Errors != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("late sample not counted: Totals().Errors = %d, want 1", e.Totals().Errors)
			}
			time.Sleep(time.Millisecond)
		}
		return in
	}()
	for i := 0; i < 2; i++ {
		runtime.GC()
	}
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("a closed engine's tenant is still reachable while Samples() stays open")
	}
	close(samples) // lets the late-sample receiver exit
}

// chattyBackend is a stub StreamBackend that raises exactly one alarm
// per frame (score = the frame's time), so alarm-channel backpressure
// tests control the alarm volume precisely.
type chattyBackend struct {
	n      int
	count  int
	last   float64
	alarms [1]core.Alarm
}

func (c *chattyBackend) Kind() string       { return "chatty" }
func (c *chattyBackend) Variates() int      { return c.n }
func (c *chattyBackend) Ready() bool        { return c.count > 0 }
func (c *chattyBackend) Threshold() float64 { return 0 }
func (c *chattyBackend) LastTime() (float64, bool) {
	return c.last, c.count > 0
}
func (c *chattyBackend) PushScores(f core.Frame) ([]float64, error) {
	c.count++
	c.last = f.Time
	return nil, nil
}
func (c *chattyBackend) Push(f core.Frame) ([]core.Alarm, error) {
	if _, err := c.PushScores(f); err != nil {
		return nil, err
	}
	c.alarms[0] = core.Alarm{Variate: 0, Time: f.Time, Score: f.Time}
	return c.alarms[:], nil
}
func (c *chattyBackend) SwapArtifact([]byte) error      { return errors.New("chatty: no artifacts") }
func (c *chattyBackend) SnapshotState() ([]byte, error) { return nil, errors.New("chatty: no state") }
func (c *chattyBackend) RestoreState([]byte) error      { return errors.New("chatty: no state") }

// TestEngineSlowAlarmConsumerBackpressure pins the fan-in contract under
// a slow Alarms consumer: with a one-slot alarm channel and a tiny shard
// queue, scoring must stall (backpressure reaching Ingest) rather than
// drop or reorder alarms, and the stall must be visible in the new
// AlarmsBlocked counters. Once the consumer drains, every alarm arrives
// exactly once, in per-tenant arrival order.
func TestEngineSlowAlarmConsumerBackpressure(t *testing.T) {
	e := engine.New(engine.Config{Shards: 1, Workers: 1, QueueDepth: 2, BatchSize: 1, AlarmBuffer: 1})
	sub, err := e.SubscribeBackend("slow", &chattyBackend{n: 1})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 64
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		f := core.Frame{Magnitudes: make([]float64, 1)}
		for ti := 0; ti < frames; ti++ {
			f.Time = float64(ti)
			if err := e.Ingest("slow", f); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()

	// Nobody consumes Alarms yet: scoring must wedge after the channel
	// slot plus in-flight frames, and the feeder must park on the full
	// shard queue instead of completing.
	deadline := time.Now().Add(5 * time.Second)
	for sub.Stats().AlarmsBlocked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scoring never reported a blocked alarm emission")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let any incorrect dropping/draining manifest
	select {
	case <-fed:
		t.Fatalf("feeder finished with no alarm consumer (scored %d frames): alarms were dropped", sub.Stats().Frames)
	default:
	}
	if got := sub.Stats().Frames; got >= frames {
		t.Fatalf("all %d frames scored against a stalled consumer", got)
	}

	// Drain: every alarm must appear exactly once, in arrival order.
	var alarms []core.Alarm
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range e.Alarms() {
			alarms = append(alarms, a.Alarm)
		}
	}()
	<-fed
	e.Flush()
	e.Close()
	<-done
	if len(alarms) != frames {
		t.Fatalf("consumer received %d alarms, want %d", len(alarms), frames)
	}
	for i, a := range alarms {
		if a.Time != float64(i) || a.Score != float64(i) {
			t.Fatalf("alarm %d out of order: %+v", i, a)
		}
	}
	if tot := e.Totals(); tot.AlarmsBlocked == 0 || tot.Alarms != frames {
		t.Fatalf("totals %+v, want %d alarms and nonzero AlarmsBlocked", tot, frames)
	}
	if st := sub.Stats(); st.AlarmsBlocked == 0 {
		t.Fatalf("subscription stats %+v, want nonzero AlarmsBlocked", st)
	}
}

// TestEngineFlushVsIngest pins Flush's contract while other producers keep
// ingesting: when a producer's Flush returns, every frame that producer
// handed in — by id or through its handle — has been scored. The in-flight
// count is an atomic that takes the Flush lock only on reaching zero, so
// the wake-up that must not be lost is the one racing a Flush about to
// park.
func TestEngineFlushVsIngest(t *testing.T) {
	const producers, rounds, burst = 4, 300, 3
	e := engine.New(engine.Config{Shards: 2, Workers: 2, QueueDepth: 4, BatchSize: 2})
	_, alarms := collectAlarms(e)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		id := fmt.Sprintf("p%d", p)
		sub, err := e.SubscribeBackend(id, &chattyBackend{n: 1})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := core.Frame{Magnitudes: make([]float64, 1)}
			for r := 0; r < rounds; r++ {
				for b := 0; b < burst; b++ {
					f.Time = float64(r*burst + b)
					var err error
					if b%2 == 0 {
						err = sub.Ingest(f)
					} else {
						err = e.Ingest(id, f)
					}
					if err != nil {
						t.Errorf("%s: ingest: %v", id, err)
						return
					}
				}
				e.Flush()
				if got, want := sub.Stats().Frames, uint64((r+1)*burst); got != want {
					t.Errorf("%s: Flush returned with %d of %d frames scored", id, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	e.Close()
	alarms.Wait()
	if got := e.Totals().Frames; got != producers*rounds*burst {
		t.Fatalf("engine scored %d frames, want %d", got, producers*rounds*burst)
	}
}

// TestEngineTap covers the alarm-tap contract: the tap consumes every
// alarm in channel order, its final hook runs before Close returns, and
// a second tap is rejected.
func TestEngineTap(t *testing.T) {
	e := engine.New(engine.Config{Shards: 1, Workers: 1})
	if _, err := e.SubscribeBackend("tap", &chattyBackend{n: 1}); err != nil {
		t.Fatal(err)
	}
	var got []engine.Alarm
	finalRan := false
	if err := e.Tap(func(a engine.Alarm) { got = append(got, a) }, func() { finalRan = true }); err != nil {
		t.Fatal(err)
	}
	if err := e.Tap(func(engine.Alarm) {}, nil); !errors.Is(err, engine.ErrTapped) {
		t.Fatalf("second tap: got %v, want ErrTapped", err)
	}
	const frames = 32
	f := core.Frame{Magnitudes: make([]float64, 1)}
	for ti := 0; ti < frames; ti++ {
		f.Time = float64(ti)
		if err := e.Ingest("tap", f); err != nil {
			t.Fatal(err)
		}
	}
	e.Close() // must wait for the tap's final hook
	if !finalRan {
		t.Fatal("tap final hook had not run when Close returned")
	}
	if len(got) != frames {
		t.Fatalf("tap saw %d alarms, want %d", len(got), frames)
	}
	for i, a := range got {
		if a.Sub != "tap" || a.Time != float64(i) {
			t.Fatalf("tap alarm %d out of order: %+v", i, a)
		}
	}
	if err := e.Tap(func(engine.Alarm) {}, nil); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("tap after close: got %v, want ErrClosed", err)
	}
}

// TestEngineSubscribeAndIngestErrors covers the synchronous error paths.
func TestEngineSubscribeAndIngestErrors(t *testing.T) {
	m, d := fixture(t)
	e := engine.New(engine.Config{Shards: 1, Workers: 1})
	sub, err := subscribeModel(e, "a", m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subscribeModel(e, "a", m); !errors.Is(err, engine.ErrDuplicateSubscription) {
		t.Fatalf("duplicate subscribe: got %v", err)
	}
	if err := e.Ingest("ghost", core.Frame{Magnitudes: make([]float64, d.Test.N())}); !errors.Is(err, engine.ErrUnknownSubscription) {
		t.Fatalf("unknown sub: got %v", err)
	}
	if err := e.Ingest("a", core.Frame{Magnitudes: make([]float64, 2)}); err == nil {
		t.Fatal("expected width error")
	}
	if err := sub.Ingest(core.Frame{Magnitudes: make([]float64, 2)}); err == nil {
		t.Fatal("expected width error through the handle")
	}
	_, wg := collectAlarms(e)
	e.Close()
	wg.Wait()
	if err := e.Ingest("a", core.Frame{Magnitudes: make([]float64, d.Test.N())}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("ingest after close: got %v", err)
	}
	if err := sub.Ingest(core.Frame{Magnitudes: make([]float64, d.Test.N())}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("ingest through the handle after close: got %v", err)
	}
	if _, err := subscribeModel(e, "b", m); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("subscribe after close: got %v", err)
	}
	e.Close() // idempotent
}

// TestEngineStatsAndSnapshot warms one tenant and checks the monitoring
// surfaces: shard stats, per-tenant stats, and the live graph snapshot.
func TestEngineStatsAndSnapshot(t *testing.T) {
	m, d := fixture(t)
	e := engine.New(engine.Config{Shards: 2, Workers: 2})
	sub, err := subscribeModel(e, "mon", m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.GraphSnapshot(); err == nil {
		t.Fatal("snapshot before warmup must fail")
	}
	_, wg := collectAlarms(e)
	w := m.Config().LongWindow
	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for ti := 0; ti < w; ti++ {
		frame.Time = d.Test.Time[ti]
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		if err := e.Ingest("mon", frame); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	st := sub.Stats()
	if st.Frames != uint64(w) || !st.Ready {
		t.Fatalf("tenant stats %+v, want %d frames and ready", st, w)
	}
	if sub.Threshold() != m.Threshold() {
		t.Fatal("threshold mismatch")
	}
	g, err := sub.GraphSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != d.Test.N() || g.Cols != d.Test.N() {
		t.Fatalf("snapshot shape %dx%d, want %dx%d", g.Rows, g.Cols, d.Test.N(), d.Test.N())
	}
	tot := e.Totals()
	if tot.Frames != uint64(w) || tot.Subscriptions != 1 {
		t.Fatalf("totals %+v, want %d frames / 1 subscription", tot, w)
	}
	perShard := uint64(0)
	for _, s := range e.Stats() {
		perShard += s.Frames
	}
	if perShard != tot.Frames {
		t.Fatalf("shard frames sum %d != totals %d", perShard, tot.Frames)
	}
	e.Close()
	wg.Wait()
}
