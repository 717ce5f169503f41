package ingest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"aero/internal/core"
	"aero/internal/engine"
	"aero/internal/metrics"
)

// httpFrame is one JSON-lines ingest record.
type httpFrame struct {
	Sub  string    `json:"sub"`
	Time float64   `json:"time"`
	Mags []float64 `json:"mags"`
}

// traceDoc is the /trace/{tenant} response: the flight-recorder ring
// plus the tenant's health state and counters. The counters nest under
// "stats" so the readable health string does not collide with the
// numeric Health field inside SubscriptionStats.
type traceDoc struct {
	metrics.TraceJSON
	Health string                   `json:"health"`
	Stats  engine.SubscriptionStats `json:"stats"`
}

// Handler returns the server's HTTP surface:
//
//	POST /ingest   JSON lines {"sub":"field-000","time":12.5,"mags":[...]}
//	GET  /healthz  200 "ok" while serving, 503 "draining" during drain
//
// With ServerConfig.Metrics, two observability routes are added:
//
//	GET  /metrics        Prometheus text exposition of the registry
//	GET  /trace/{tenant} the tenant's flight-recorder ring, health state
//	                     and counters as JSON
//
// With ServerConfig.EnablePprof, net/http/pprof's endpoints are mounted
// under /debug/pprof/ as well (the explicit routes below, not the default
// mux, which this handler never touches).
//
// The /ingest endpoint shares the engine's backpressure: each line's
// Ingest blocks while the tenant's shard is saturated, so a slow shard
// slows the HTTP client's request body read instead of buffering. A drain
// that starts mid-request ends it with 503 and the accepted prefix: every
// frame counted in "accepted" is in the drain's checkpoint.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/ingest", s.handleIngest)
	if s.cfg.Metrics != nil {
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/trace/", s.handleTrace)
	}
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() || s.closed.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Metrics.WritePrometheus(w)
}

// handleTrace serves GET /trace/{tenant}: the tenant's flight-recorder
// snapshot — recent frames with per-stage latencies, plus the slowest
// frame pinned since startup — with its health state and counters, as
// JSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tenant := strings.TrimPrefix(r.URL.Path, "/trace/")
	if tenant == "" || strings.ContainsRune(tenant, '/') {
		http.Error(w, "GET /trace/{tenant}", http.StatusNotFound)
		return
	}
	sub, err := s.cfg.Lookup(tenant)
	if err != nil || sub == nil {
		http.Error(w, fmt.Sprintf("unknown tenant %q", tenant), http.StatusNotFound)
		return
	}
	snap, ok := sub.Trace()
	if !ok {
		http.Error(w, "frame tracing disabled for this tenant", http.StatusNotFound)
		return
	}
	doc := traceDoc{TraceJSON: snap.JSON(), Health: sub.Health().String(), Stats: sub.Stats()}
	doc.Tenant = sub.ID
	doc.Kind = sub.Kind()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST JSON lines to /ingest", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() || s.closed.Load() {
		http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
		return
	}
	accepted := 0
	respond := func(status int, errText string) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		out := map[string]any{"accepted": accepted}
		if errText != "" {
			out["error"] = errText
		}
		json.NewEncoder(w).Encode(out)
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), MaxPayload)
	var f httpFrame
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		f = httpFrame{Mags: f.Mags[:0]}
		if err := json.Unmarshal(raw, &f); err != nil {
			respond(http.StatusBadRequest, fmt.Sprintf("line %d: %v", line, err))
			return
		}
		sub, err := s.cfg.Lookup(f.Sub)
		if err != nil || sub == nil {
			respond(http.StatusNotFound, fmt.Sprintf("line %d: unknown tenant %q", line, f.Sub))
			return
		}
		// A drain that began mid-request must not flush and checkpoint
		// without this line's frame, so the check and the hand-off share
		// the lock Drain takes once the flag is up.
		s.httpMu.RLock()
		if s.draining.Load() || s.closed.Load() {
			s.httpMu.RUnlock()
			respond(http.StatusServiceUnavailable, fmt.Sprintf("line %d: %v", line, ErrDraining))
			return
		}
		err = sub.Ingest(core.Frame{Time: f.Time, Magnitudes: f.Mags})
		s.httpMu.RUnlock()
		if err != nil {
			respond(http.StatusBadRequest, fmt.Sprintf("line %d: %v", line, err))
			return
		}
		accepted++
		s.httpFrames.Add(1)
	}
	if err := sc.Err(); err != nil {
		respond(http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	respond(http.StatusOK, "")
}
