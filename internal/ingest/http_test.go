package ingest_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aero/internal/engine"
	"aero/internal/ingest"
	"aero/internal/metrics"
)

// TestHTTPEndpoints covers the interop surface: JSON-lines ingest with
// per-line validation, the counts on /metrics, the per-tenant view on
// /trace/{tenant}, no /stats, and /healthz flipping to 503 once a drain
// begins.
func TestHTTPEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	e := engine.New(engine.Config{Shards: 2, Workers: 2, QueueDepth: 16, BatchSize: 4, Metrics: reg})
	sub, err := e.SubscribeBackend("field-000", openFixtureBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	subs := map[string]*engine.Subscription{"field-000": sub}
	_, wg := collectAlarms(e)
	srv := newTestServer(t, e, subs, ingest.ServerConfig{Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}
	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return resp, buf[:n]
	}

	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	// Three valid JSON lines for the registered tenant.
	lines := `{"sub":"field-000","time":1,"mags":[1,2,3,4,5]}
{"sub":"field-000","time":2,"mags":[1,2,3,4,5]}
{"sub":"field-000","time":3,"mags":[1,2,3,4,5]}
`
	resp, body := post("/ingest", lines)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %q", resp.StatusCode, body)
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != 3 {
		t.Fatalf("ingest reply %q (err %v), want accepted=3", body, err)
	}
	e.Flush()
	if got := subs["field-000"].Stats().Frames; got != 3 {
		t.Fatalf("engine scored %d frames, want 3", got)
	}

	// Unknown tenant and malformed JSON are rejected with the line number.
	if resp, body := post("/ingest", `{"sub":"nobody","time":4,"mags":[1,2,3,4,5]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant: %d %q", resp.StatusCode, body)
	}
	if resp, body := post("/ingest", "{not json}\n"); resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "line 1") {
		t.Fatalf("malformed line: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get("/ingest"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}

	// The counts live on /metrics; /stats is gone.
	if resp, _ := get("/stats"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats: %d, want 404", resp.StatusCode)
	}
	resp, body = get("/metrics")
	for _, want := range []string{"aero_ingest_http_frames_total 3\n", "aero_engine_frames_total 3\n"} {
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("metrics: %d, want %q in:\n%s", resp.StatusCode, want, body)
		}
	}

	// /trace/{tenant} carries the tenant's health state and counters.
	resp, body = get("/trace/field-000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: %d %q", resp.StatusCode, body)
	}
	var doc struct {
		Kind   string `json:"kind"`
		Health string `json:"health"`
		Stats  struct {
			Frames uint64
		} `json:"stats"`
		Total uint64 `json:"total_frames"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace JSON: %v in %q", err, body)
	}
	if doc.Kind == "" || doc.Health != "healthy" || doc.Stats.Frames != 3 || doc.Total != 3 {
		t.Fatalf("trace document %+v, want kind, healthy and 3 frames", doc)
	}

	// Draining: health flips to 503 and new ingest is refused, in both
	// cases without dropping anything already accepted.
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: %d", resp.StatusCode)
	}
	if resp, _ := post("/ingest", lines); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during drain: %d", resp.StatusCode)
	}

	e.Close()
	wg.Wait()
}

// TestHTTPIngestDrainMidRequest pins the drain barrier on the JSON-lines
// endpoint: a request streams one line, a drain runs to completion, then
// two more lines arrive. The reply is 503 with "accepted" equal to what
// the drain's checkpoint saw, and nothing past it reaches the engine.
func TestHTTPIngestDrainMidRequest(t *testing.T) {
	e, subs := newTestEngine(t, "field-000")
	_, wg := collectAlarms(e)
	sub := subs["field-000"]
	var checkpointed uint64
	srv := newTestServer(t, e, subs, ingest.ServerConfig{
		Checkpoint: func() error {
			checkpointed = sub.Stats().Frames
			return nil
		},
	})
	line := func(ts int) string {
		return fmt.Sprintf(`{"sub":"field-000","time":%d,"mags":[1,2,3,4,5]}`+"\n", ts)
	}
	body, feed := io.Pipe()
	defer body.Close()
	rec := httptest.NewRecorder()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", body))
	}()

	if _, err := io.WriteString(feed, line(1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().HTTPFrames < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first line never accepted")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	go func() {
		io.WriteString(feed, line(2)+line(3))
		feed.Close()
	}()
	<-handled

	var reply struct {
		Accepted uint64 `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("reply %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusServiceUnavailable || reply.Accepted != checkpointed || checkpointed != 1 {
		t.Fatalf("reply %d %+v, checkpoint saw %d frames: want 503 accepting exactly the checkpointed 1",
			rec.Code, reply, checkpointed)
	}
	e.Flush()
	if got := sub.Stats().Frames; got != checkpointed {
		t.Fatalf("engine scored %d frames, checkpoint holds %d", got, checkpointed)
	}
	e.Close()
	wg.Wait()
}
