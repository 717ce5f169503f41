package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aero"
)

// serveEnv carries the wired engine into network-serving mode: instead
// of replaying the dataset, aeroserve fronts the engine with the binary
// frame protocol (-listen) and/or the HTTP endpoints (-http) and waits
// for a shutdown signal.
type serveEnv struct {
	eng        *aero.Engine
	subs       []*aero.Subscription
	metrics    *aero.MetricsRegistry
	listenAddr string
	httpAddr   string
	httpPprof  bool
	checkpoint func() error
}

// runServe serves until SIGINT/SIGTERM (drain, checkpoint, exit) or
// SIGUSR2 (drain, checkpoint, hand the listener to a re-exec'd
// successor — zero-downtime restart). It reports whether a successor
// took over, so the epilogue skips the duplicate checkpoint.
func runServe(env serveEnv) bool {
	byID := make(map[string]*aero.Subscription, len(env.subs))
	for _, sub := range env.subs {
		byID[sub.ID] = sub
	}
	srv, err := aero.NewIngestServer(aero.IngestServerConfig{
		Engine:      env.eng,
		Metrics:     env.metrics,
		EnablePprof: env.httpPprof,
		Lookup: func(tenant string) (*aero.Subscription, error) {
			if sub, ok := byID[tenant]; ok {
				return sub, nil
			}
			return nil, fmt.Errorf("no such tenant (serving %d fields)", len(byID))
		},
		Checkpoint: env.checkpoint,
		Logf:       func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ingest server: %v\n", err)
		os.Exit(1)
	}

	var l net.Listener
	if env.listenAddr != "" {
		var inherited bool
		l, inherited, err = aero.ListenInherited(env.listenAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "listen: %v\n", err)
			os.Exit(1)
		}
		if inherited {
			fmt.Fprintf(os.Stderr, "resumed inherited listener on %s (zero-downtime restart)\n", l.Addr())
		} else {
			fmt.Fprintf(os.Stderr, "serving frame protocol on %s\n", l.Addr())
		}
	}
	var httpSrv *http.Server
	if env.httpAddr != "" {
		httpSrv = &http.Server{Addr: env.httpAddr, Handler: srv.Handler()}
		go func() {
			if herr := httpSrv.ListenAndServe(); herr != nil && !errors.Is(herr, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "http: %v\n", herr)
			}
		}()
		endpoints := "/ingest /healthz /metrics /trace/{tenant}"
		if env.httpPprof {
			endpoints += " /debug/pprof/"
		}
		fmt.Fprintf(os.Stderr, "serving HTTP on %s (%s)\n", env.httpAddr, endpoints)
	}

	serveErr := make(chan error, 1)
	if l != nil {
		go func() { serveErr <- srv.Serve(l) }()
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR2)
	relaunch := false
	select {
	case sig := <-sigc:
		relaunch = sig == syscall.SIGUSR2 && l != nil
		fmt.Fprintf(os.Stderr, "%s: draining (flush + checkpoint + client handoff)...\n", sig)
	case serr := <-serveErr:
		if serr != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", serr)
		}
	}
	signal.Stop(sigc)

	// Drain: stop accepting, quiesce connections, flush the engine, run
	// the checkpoint hook, then tell every client the durable watermark.
	if derr := srv.Drain(); derr != nil {
		fmt.Fprintf(os.Stderr, "drain: %v\n", derr)
		relaunch = false // don't hand off a socket whose state isn't durable
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
	}

	if relaunch {
		f, ferr := aero.IngestListenerFile(l)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "listener handoff: %v\n", ferr)
			l.Close()
			return false
		}
		pid, rerr := aero.IngestRelaunch(f)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "relaunch: %v\n", rerr)
			l.Close()
			return false
		}
		fmt.Fprintf(os.Stderr, "listener handed to successor pid %d; drained clients will reconnect to it\n", pid)
		return true
	}
	if l != nil {
		l.Close()
	}
	return false
}
