package ingest_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/faultinject"
	"aero/internal/ingest"
	"aero/internal/metrics"
)

// TestMetricsScrapeConcurrent hammers GET /healthz, /metrics and
// /trace/{tenant} from parallel scrapers while a live protocol client
// streams frames over a real TCP socket — the race detector's view of
// the whole observability read path (scrape-time CounterFuncs walking
// engine and server atomics, histogram snapshots, trace rings) against
// the hot write path.
func TestMetricsScrapeConcurrent(t *testing.T) {
	d, _ := fixture(t)
	reg := metrics.NewRegistry()
	e := engine.New(engine.Config{
		Shards: 2, Workers: 2, QueueDepth: 16, BatchSize: 4,
		Metrics: reg, Trace: engine.TraceConfig{Depth: 32},
	})
	sub, err := e.SubscribeBackend("field-000", openFixtureBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	srv := newTestServer(t, e, map[string]*engine.Subscription{"field-000": sub},
		ingest.ServerConfig{Metrics: reg})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Live socket feed with the client-side ack-latency histogram on.
	latency := metrics.NewHistogram()
	c, err := ingest.Dial(ingest.ClientConfig{
		Addr: l.Addr().String(), Tenant: "field-000",
		Variates: d.Test.N(), Latency: latency,
	})
	if err != nil {
		t.Fatal(err)
	}

	const nFrames = 120
	var feeders sync.WaitGroup
	feeders.Add(1)
	go func() {
		defer feeders.Done()
		frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
		for i := 0; i < nFrames; i++ {
			ti := i % d.Test.Len()
			frame.Time = float64(i)
			for v := 0; v < d.Test.N(); v++ {
				frame.Magnitudes[v] = d.Test.Data[v][ti]
			}
			if err := c.Send(frame); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()

	// Scrapers race the feed: every response must be well-formed whatever
	// instant it lands at.
	stopScrape := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/healthz", "/metrics", "/trace/field-000"} {
		scrapers.Add(1)
		go func(path string) {
			defer scrapers.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %d %q", path, resp.StatusCode, body)
					return
				}
				if strings.HasPrefix(path, "/trace/") {
					var doc map[string]any
					if err := json.Unmarshal(body, &doc); err != nil {
						t.Errorf("GET %s: bad JSON %v in %q", path, err, body)
						return
					}
				}
			}
		}(path)
	}

	feeders.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	close(stopScrape)
	scrapers.Wait()

	// The final scrape carries every layer's series with the frames
	// accounted for.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		fmt.Sprintf("aero_ingest_frames_total %d", nFrames),
		fmt.Sprintf("aero_engine_frames_total %d", nFrames),
		"aero_ingest_read_wait_seconds_count",
		"aero_ingest_engine_wait_seconds_count",
		"aero_ingest_frame_seconds_count",
		`aero_engine_score_seconds_count{kind="fluxev"}`,
		`aero_engine_queue_depth{shard="0"}`,
		"aero_ingest_acks_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("final /metrics scrape missing %q in:\n%s", want, out)
		}
	}
	if latency.Count() == 0 {
		t.Fatal("client ack-latency histogram recorded nothing")
	}

	srv.Close()
	<-serveDone
	l.Close()
	e.Close()
	wg.Wait()
}

// TestTraceEndpointCapturesSlowFrame drives the chaos harness's latency
// injector through an instrumented engine and asserts the flight
// recorder pins the stalled frame and serves it at GET /trace/{tenant}
// with per-stage timings.
func TestTraceEndpointCapturesSlowFrame(t *testing.T) {
	d, _ := fixture(t)
	reg := metrics.NewRegistry()
	e := engine.New(engine.Config{
		Shards: 1, Workers: 1, Metrics: reg,
		Trace: engine.TraceConfig{Depth: 16, SlowThreshold: 2 * time.Millisecond},
	})
	defer e.Close()
	// Deterministic latency spikes: ~every 10th frame stalls 5ms, well
	// past the 2ms pin threshold; everything else is orders faster.
	chaos := faultinject.New(openFixtureBackend(t), faultinject.Plan{
		Seed: 7, DelayEvery: 10, Delay: 5 * time.Millisecond,
	})
	sub, err := e.SubscribeBackend("field-000", chaos)
	if err != nil {
		t.Fatal(err)
	}
	_, wg := collectAlarms(e)
	srv := newTestServer(t, e, map[string]*engine.Subscription{"field-000": sub},
		ingest.ServerConfig{Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	frame := core.Frame{Magnitudes: make([]float64, d.Test.N())}
	for i := 0; i < 60; i++ {
		ti := i % d.Test.Len()
		frame.Time = float64(i)
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][ti]
		}
		if err := e.Ingest("field-000", frame); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	resp, err := http.Get(ts.URL + "/trace/field-000")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace: %d %q", resp.StatusCode, body)
	}
	var doc metrics.TraceJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace JSON: %v in %q", err, body)
	}
	if doc.Tenant != "field-000" || doc.Total != 60 || len(doc.Frames) == 0 {
		t.Fatalf("trace doc tenant=%q total=%d frames=%d, want field-000/60/>0",
			doc.Tenant, doc.Total, len(doc.Frames))
	}
	if doc.SlowCount == 0 || doc.Slow == nil {
		t.Fatalf("no slow frame pinned (slow_count=%d); chaos delays should exceed the 2ms threshold", doc.SlowCount)
	}
	if doc.Slow.TotalNs < int64(2*time.Millisecond) {
		t.Fatalf("pinned slow frame total %dns below the threshold", doc.Slow.TotalNs)
	}
	// Per-stage timings are present and account for the total.
	var sum int64
	for _, fr := range doc.Frames {
		sum = fr.WaitNs + fr.HygieneNs + fr.ScoreNs + fr.TailNs + fr.FanInNs
		if sum != fr.TotalNs {
			t.Fatalf("frame %d stages sum %d != total %d", fr.Seq, sum, fr.TotalNs)
		}
	}

	// Unknown tenants and untraced engines 404.
	if resp, err := http.Get(ts.URL + "/trace/nobody"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant trace: %v %v", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	e.Close()
	wg.Wait()
}
