// Command aeroload drives a network aeroserve with the binary frame
// protocol: one client per simulated telescope field replays the test
// split over TCP, paced by -rate and throttled end-to-end by the
// server's credit-based flow control (a saturated engine shard slows
// the matching client instead of dropping frames).
//
// Usage:
//
//	aeroserve -dir data -dataset SyntheticMiddle -backend fluxev -listen :7071 &
//	aeroload -addr localhost:7071 -dir data -dataset SyntheticMiddle -tenants 8
//
// The tenant ids ("field-%03d") match the ones aeroserve registers, so
// the two commands agree on -tenants (aeroload may use fewer). A drain
// on the server side (SIGTERM/SIGUSR2 → zero-downtime restart) is
// transparent here: the client releases the acknowledged prefix,
// reconnects, and resends its unacknowledged suffix to the successor —
// the Drains/Reconnects/Resent counters in the final report show it
// happened.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aero"
)

func main() {
	addr := flag.String("addr", "localhost:7071", "aeroserve -listen address")
	dir := flag.String("dir", "data", "dataset directory (as written by aerogen)")
	name := flag.String("dataset", "SyntheticMiddle", "dataset name")
	tenants := flag.Int("tenants", 8, "number of fields to stream (ids field-000..)")
	rate := flag.Float64("rate", 0, "frames per second per tenant (0 = as fast as credits allow)")
	testLen := flag.Int("testlen", 0, "truncate the replayed feed to this many frames (0 = all)")
	window := flag.Int("window", 0, "client resend-buffer/credit window in frames (0 = default)")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(1)
	}

	// A value out of range is a usage error, reported as the flag package
	// reports a value it cannot parse.
	usageError := func(name string, value any, why string) {
		fmt.Fprintf(os.Stderr, "invalid value %v for flag -%s: %s\n", value, name, why)
		flag.Usage()
		os.Exit(2)
	}
	if *tenants < 1 {
		usageError("tenants", *tenants, "must be at least 1")
	}
	if *rate < 0 || math.IsNaN(*rate) {
		usageError("rate", *rate, "must not be negative or NaN")
	}

	d, err := aero.ReadDataset(*dir, *name)
	if err != nil {
		fail("load dataset: %v", err)
	}
	times, data := d.Test.Time, d.Test.Data
	if *testLen > 0 && *testLen < len(times) {
		times = times[:*testLen]
		trunc := make([][]float64, len(data))
		for v := range data {
			trunc[v] = data[v][:*testLen]
		}
		data = trunc
	}

	// Ctrl-C stops the feeders at the next frame; each client then
	// flushes its pending frames and parts with Bye, so nothing sent is
	// left unacknowledged.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		if sig, ok := <-sigc; ok {
			fmt.Fprintf(os.Stderr, "%s: stopping feed, flushing clients...\n", sig)
			close(stop)
		}
	}()

	// One shared send→ack latency histogram across all clients: Record is
	// atomic, so concurrent feeders aggregate without coordination. This
	// is the client-visible round trip — wire, queueing, scoring, ack
	// batching, and any drain/redial a frame rode out.
	latency := aero.NewMetricsHistogram()

	start := time.Now()
	clients := make([]*aero.IngestClient, *tenants)
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for i := 0; i < *tenants; i++ {
		id := fmt.Sprintf("field-%03d", i)
		c, derr := aero.DialIngest(aero.IngestClientConfig{
			Addr: *addr, Tenant: id, Variates: len(data), Window: *window,
			Latency: latency,
			Logf:    func(f string, a ...any) { fmt.Fprintf(os.Stderr, id+": "+f+"\n", a...) },
		})
		if derr != nil {
			fail("dial %s for %s: %v", *addr, id, derr)
		}
		clients[i] = c
		wg.Add(1)
		go func(id string, c *aero.IngestClient) {
			defer wg.Done()
			src := aero.FrameSource{Time: times, Data: data, Rate: *rate, Stop: stop}
			if _, ferr := src.Feed(c.Send); ferr != nil && !errors.Is(ferr, aero.ErrFeedStopped) {
				fmt.Fprintf(os.Stderr, "%s: send: %v\n", id, ferr)
				failed.Add(1)
			}
			if cerr := c.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "%s: close: %v\n", id, cerr)
			}
		}(id, c)
	}
	wg.Wait()
	signal.Stop(sigc)
	close(sigc)
	elapsed := time.Since(start)

	var agg aero.IngestClientStats
	for _, c := range clients {
		st := c.Stats()
		agg.Sent += st.Sent
		agg.Acked += st.Acked
		agg.Resent += st.Resent
		agg.Reconnects += st.Reconnects
		agg.BlockedWaits += st.BlockedWaits
		agg.Drains += st.Drains
		agg.Writes += st.Writes
	}
	fmt.Fprintf(os.Stderr,
		"done: %d frames over %d tenants in %s (%.0f frames/s): %d acked, %d resent, %d reconnects, %d drains, %d credit stalls\n",
		agg.Sent, *tenants, elapsed.Round(time.Millisecond),
		float64(agg.Sent)/elapsed.Seconds(), agg.Acked, agg.Resent,
		agg.Reconnects, agg.Drains, agg.BlockedWaits)
	if s := latency.Snapshot(); s.Count > 0 {
		fmt.Fprintf(os.Stderr, "send→ack latency: p50 %s, p99 %s, p99.9 %s (mean %s over %d acked); %.1f frames per write\n",
			time.Duration(s.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(s.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(s.Quantile(0.999)).Round(time.Microsecond),
			time.Duration(s.Mean()).Round(time.Microsecond), s.Count,
			float64(agg.Sent+agg.Resent)/float64(max(agg.Writes, 1)))
	}
	if failed.Load() > 0 {
		os.Exit(1)
	}
}
