// Command aeroserve replays a CSV dataset as a simulated live survey feed
// over many concurrent tenants, served by the sharded streaming engine —
// the deployment shape of the paper's §III-F online mode at GWAC scale.
//
// Usage:
//
//	aerogen -out data -dataset SyntheticMiddle
//	aeroserve -dir data -dataset SyntheticMiddle -tenants 16 -rate 0
//	aeroserve -dir data -dataset SyntheticMiddle -backend fluxev -tenants 64
//	aeroserve -dir data -dataset SyntheticMiddle -checkpoint ckpt \
//	    -retrain-every 30s -rate 4
//	aeroserve -dir data -dataset SyntheticMiddle -backend fluxev \
//	    -listen :7071 -http :7072 -checkpoint ckpt
//
// Each tenant simulates one telescope field observing the test split; the
// engine shards the tenants, scores frames on a worker pool, and streams
// alarms to stdout while periodic per-shard stats go to stderr.
//
// -backend selects the serving detector kind: "aero" (the paper's
// two-stage model) or "fluxev", the cheap streaming baseline adapter
// that keeps up at survey rates. -alarm selects
// the alarming stage: "static" thresholds on the kind's fitted POT
// threshold, "dspot" wraps the backend in per-variate streaming DSPOT
// (each star alarms at the static POT level its calibration set, taken
// over a drift baseline that follows its scores — the paper's
// thresholding protocol, live). The default "auto" serves AERO with its
// calibrated static threshold and every other kind with DSPOT.
//
// With -triage the raw alarm flood is triaged into a short, ranked
// incident feed before it reaches stdout: a repeat alarm per (tenant,
// star, time-bucket) drops while its source's episode is open, surviving
// alarms coalesce into per-source episodes, episodes whose onsets coincide
// across tenants correlate into candidate incidents (the astronomical
// cross-match — a real transient hits many fields, an artifact hits
// one), and incidents are ranked by cluster breadth × peak score.
// Per-alarm output is replaced by INCIDENT lines; the final stats report
// the alarm→incident reduction ratio and the top-ranked incidents.
// Correlation clusters episode onsets against the alarm stream's
// watermark, so it assumes the roughly synchronized field feeds a survey
// camera produces — pass -rate to keep the simulated tenants in lockstep
// instead of letting each replay sprint ahead independently. With
// -checkpoint the triage state (mid-flight episodes and pending
// incidents) is checkpointed and restored alongside the detector states,
// so a restart resumes episodes mid-flight.
//
// With -checkpoint the server keeps an artifact registry at the given
// directory: the newest published artifact of the selected kind is used
// instead of retraining on startup, warm backend states checkpointed by
// a previous run are restored (tenants resume with a full window instead
// of re-warming), and on shutdown every tenant's state is checkpointed
// back. With -retrain-every the backend is refit in the background on
// that interval (AERO rounds with a fresh logged seed), published to the
// registry, and hot-swapped into every serving tenant with zero dropped
// frames.
//
// Fault containment (see internal/engine and DESIGN.md): every tenant
// push runs under a panic guard and a per-tenant health state machine —
// consecutive faults degrade then quarantine a tenant, quarantined
// tenants fail over to a warm fallback backend (-fallback KIND) and
// recover through probation probes on a jittered frame-count backoff.
// -hygiene turns on the frame-validation stage (drop or repair NaN/Inf
// and stale-time frames) ahead of every backend. -chaos N wraps the
// first N tenants in the deterministic fault-injection harness
// (internal/faultinject) — seeded panics, errors, NaN scores, latency
// spikes — to soak-test the containment layer live; the stderr stats
// line then reports tenant health states, fallback service, and
// injection counters.
//
// Every count the stats line and the epilogue print is read from the one
// metrics registry, the same series GET /metrics serves.
//
// With -listen and/or -http the process becomes a network ingest server
// instead of a replayer: -listen serves the compact binary frame
// protocol (credit-based flow control sized to engine queue headroom —
// see internal/ingest and cmd/aeroload for the matching client), -http
// serves the JSON-lines /ingest interop endpoint, /healthz, the
// registry's Prometheus text on /metrics and each tenant's flight
// recorder, health state and counters on /trace/{tenant}.
// SIGINT/SIGTERM drain losslessly (every accepted frame scored and
// checkpointed before clients are told what to release); SIGUSR2
// additionally hands the listening socket to a re-exec'd successor for
// a zero-downtime restart — drained clients reconnect and resend their
// unacknowledged suffix, resuming mid-episode.
//
// In replay mode SIGINT/SIGTERM stop the feed at the next frame and run
// the normal shutdown path, so an interrupted replay still checkpoints
// every warm detector and the mid-flight triage state.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"aero"
	"aero/internal/faultinject"
)

// truncate returns the first n frames of a series (the series itself when
// n is zero or out of range), letting quick simulations skip the cost of
// training and replaying a full archived night.
func truncate(s *aero.Series, n int) *aero.Series {
	if n <= 0 || n >= s.Len() {
		return s
	}
	out := &aero.Series{
		Data:      make([][]float64, s.N()),
		Time:      s.Time[:n],
		Labels:    make([][]bool, s.N()),
		NoiseMask: make([][]bool, s.N()),
	}
	for v := 0; v < s.N(); v++ {
		out.Data[v] = s.Data[v][:n]
		out.Labels[v] = s.Labels[v][:n]
		out.NoiseMask[v] = s.NoiseMask[v][:n]
	}
	return out
}

func main() {
	dir := flag.String("dir", "data", "dataset directory (as written by aerogen)")
	name := flag.String("dataset", "SyntheticMiddle", "dataset name")
	config := flag.String("config", "small", "model configuration: small or paper")
	kindFlag := flag.String("backend", "aero", fmt.Sprintf("serving backend kind: %v", aero.BackendKinds()))
	alarmFlag := flag.String("alarm", "auto", "alarming stage: auto, static (fitted POT threshold) or dspot (per-variate POT level over a drift-corrected baseline)")
	load := flag.String("load", "", "load a saved model instead of training (aero backend only)")
	checkpoint := flag.String("checkpoint", "", "artifact registry directory: reuse the newest published artifact, restore warm backend states, checkpoint on shutdown")
	retrainEvery := flag.Duration("retrain-every", 0, "background retrain + hot-swap interval (0 = disabled)")
	tenants := flag.Int("tenants", 8, "number of simulated telescope fields")
	rate := flag.Float64("rate", 0, "frames per second per tenant (0 = as fast as possible)")
	statsEvery := flag.Duration("stats", 2*time.Second, "stats print interval (0 = no periodic stats line)")
	quiet := flag.Bool("quiet", false, "suppress per-alarm (and per-incident) output")
	triage := flag.Bool("triage", false, "triage the alarm flood into a ranked incident feed (dedup → episodes → cross-tenant correlation → ranking)")
	trainLen := flag.Int("trainlen", 0, "truncate the training split to this many frames (0 = all)")
	testLen := flag.Int("testlen", 0, "truncate the replayed feed to this many frames (0 = all)")
	hygieneFlag := flag.String("hygiene", "off", "frame hygiene ahead of every backend: off, drop (reject NaN/Inf frames), hold (repair by holding last finite value), gap (hold + suppress alarms on repaired variates)")
	fallbackKind := flag.String("fallback", "", "warm fallback backend kind installed per tenant; serves while the primary is quarantined (empty = none)")
	noHealth := flag.Bool("no-health", false, "disable per-tenant fault supervision (panics are still contained)")
	latencyThresh := flag.Duration("latency-threshold", 0, "per-push latency budget; breaches count as faults (0 = off)")
	chaosN := flag.Int("chaos", 0, "wrap the first N tenants in the deterministic fault-injection harness (panics, errors, NaN scores, latency spikes)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "chaos harness schedule seed (per-tenant seed = seed + tenant index)")
	listenAddr := flag.String("listen", "", "serve the binary frame protocol on this TCP address instead of replaying (clients: aeroload); SIGUSR2 restarts with zero downtime")
	httpAddr := flag.String("http", "", "serve HTTP endpoints on this address: POST /ingest (JSON lines), GET /healthz, GET /metrics, GET /trace/{tenant}")
	httpPprof := flag.Bool("http-pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http listener (profile a serving process in place)")
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
	if *statsEvery < 0 {
		usageError("stats", *statsEvery, "must not be negative")
	}
	if *tenants < 1 {
		usageError("tenants", *tenants, "must be at least 1")
	}
	if *rate < 0 || math.IsNaN(*rate) {
		usageError("rate", *rate, "must not be negative or NaN")
	}
	spec, ok := aero.LookupBackend(*kindFlag)
	if !ok {
		fail("unknown backend %q (have %v)", *kindFlag, aero.BackendKinds())
	}
	hygienePolicy, err := aero.ParseHygienePolicy(*hygieneFlag)
	if err != nil {
		fail("%v (want off, drop, hold or gap)", err)
	}
	var fbSpec aero.BackendSpec
	if *fallbackKind != "" {
		if fbSpec, ok = aero.LookupBackend(*fallbackKind); !ok {
			fail("unknown fallback backend %q (have %v)", *fallbackKind, aero.BackendKinds())
		}
	}
	isAERO := *kindFlag == "aero"
	alarm := *alarmFlag
	if alarm == "auto" {
		if isAERO {
			alarm = "static"
		} else {
			alarm = "dspot"
		}
	}
	if alarm != "static" && alarm != "dspot" {
		fail("unknown alarm mode %q (want auto, static or dspot)", *alarmFlag)
	}
	if *load != "" && !isAERO {
		fail("-load supports the aero backend only; %s artifacts live in the -checkpoint registry", *kindFlag)
	}

	d, err := aero.ReadDataset(*dir, *name)
	if err != nil {
		fail("load dataset: %v", err)
	}
	d.Train = truncate(d.Train, *trainLen)
	d.Test = truncate(d.Test, *testLen)

	// The registry is the artifact's home when -checkpoint is set; a
	// retrain schedule without one still needs somewhere to publish, so it
	// falls back to a throwaway directory.
	var reg *aero.ModelRegistry
	if *checkpoint != "" {
		if reg, err = aero.OpenRegistry(*checkpoint); err != nil {
			fail("open registry: %v", err)
		}
	} else if *retrainEvery > 0 {
		tmp, terr := os.MkdirTemp("", "aero-registry-")
		if terr != nil {
			fail("temp registry: %v", terr)
		}
		defer os.RemoveAll(tmp)
		if reg, err = aero.OpenRegistry(tmp); err != nil {
			fail("open registry: %v", err)
		}
		fmt.Fprintf(os.Stderr, "no -checkpoint given; publishing retrains to throwaway %s\n", tmp)
	}

	opts := aero.SmallBackendOptions()
	if *config == "paper" {
		opts = aero.DefaultBackendOptions()
	}

	// Obtain the serving artifact: a saved model (-load, aero only), the
	// registry's newest entry of the selected kind, or a fresh fit. The
	// aero path additionally keeps the in-memory *Model so thousands of
	// tenants share one set of weights.
	var model *aero.Model
	var artifact []byte
	switch {
	case *load != "":
		if model, err = aero.Load(*load); err != nil {
			fail("load model: %v", err)
		}
	case reg != nil:
		kind, art, v, lerr := reg.LatestArtifact(*name)
		switch {
		case lerr == nil && kind == *kindFlag:
			artifact = art
			fmt.Fprintf(os.Stderr, "using published %s artifact %s/%s from the registry\n", kind, *name, v)
		case lerr == nil:
			fmt.Fprintf(os.Stderr, "registry entry %s/%s is kind %q, serving %q; retraining\n", *name, v, kind, *kindFlag)
		case errors.Is(lerr, aero.ErrNoVersions):
			// First run against this checkpoint: train below.
		default:
			fmt.Fprintf(os.Stderr, "registry %s: %v; retraining from scratch\n", reg.Dir(), lerr)
		}
	}
	if model == nil && artifact == nil {
		fmt.Fprintf(os.Stderr, "training %s backend on %s (%d stars, %d samples)...\n",
			*kindFlag, *name, d.Train.N(), d.Train.Len())
		if artifact, err = spec.Train(d.Train, opts); err != nil {
			fail("train: %v", err)
		}
		if reg != nil {
			if v, perr := reg.PublishArtifact(*name, *kindFlag, artifact); perr != nil {
				fmt.Fprintf(os.Stderr, "publish: %v\n", perr)
			} else {
				fmt.Fprintf(os.Stderr, "published %s/%s (%s)\n", *name, v, *kindFlag)
			}
		}
	}
	if isAERO && model == nil {
		// One shared in-memory model: scoring only reads the weights.
		if model, err = openModel(spec, artifact); err != nil {
			fail("open artifact: %v", err)
		}
	}
	if isAERO && artifact == nil {
		if artifact, err = model.MarshalBytes(); err != nil {
			fail("marshal model: %v", err)
		}
	}

	// DSPOT calibration: replay the training split through one scratch
	// backend. Every tenant's stage is built from these same scores, so
	// the first tenant fits the tail models and the rest restore that fit
	// into their own state while their windows warm on the live feed.
	dcfg := aero.DefaultDSPOTConfig()
	dcfg.Level, dcfg.Q = opts.Stream.Level, opts.Stream.Q
	var calibScores [][]float64
	if alarm == "dspot" {
		scratch, serr := openBackend(spec, isAERO, model, artifact)
		if serr != nil {
			fail("open calibration backend: %v", serr)
		}
		if calibScores, err = aero.StreamBackendScores(scratch, d.Train); err != nil {
			fail("dspot calibration replay: %v", err)
		}
	}

	// mkBackend constructs one tenant's serving backend.
	mkBackend := func() (aero.StreamBackend, error) {
		inner, merr := openBackend(spec, isAERO, model, artifact)
		if merr != nil || alarm != "dspot" {
			return inner, merr
		}
		return aero.NewDSPOTStage(inner, dcfg, calibScores)
	}

	probe, err := mkBackend()
	if err != nil {
		fail("backend: %v", err)
	}
	fmt.Fprintf(os.Stderr, "%s backend ready: alarm mode %s, threshold %.4f\n", probe.Kind(), alarm, probe.Threshold())

	// Warm fallback: one cheap artifact of the fallback kind, opened per
	// tenant. It is kept current from the same frames while the primary is
	// healthy and serves the alarm stream while the primary is quarantined.
	var fbArtifact []byte
	if fbSpec.Kind != "" {
		if *fallbackKind == *kindFlag {
			fbArtifact = artifact
		} else {
			fmt.Fprintf(os.Stderr, "training %s fallback backend...\n", *fallbackKind)
			if fbArtifact, err = fbSpec.Train(d.Train, opts); err != nil {
				fail("train fallback: %v", err)
			}
		}
	}

	// One registry carries every layer's series — engine counters and
	// stage histograms, DSPOT exceedances, ingest flow, the triage funnel,
	// retrain rounds, chaos injections — and is the one source of the
	// counts the stats lines print.
	mreg := aero.NewMetricsRegistry()
	// count reads one aggregate: a series, or a name summed over its
	// label sets.
	count := func(name string, labels ...string) uint64 {
		v, _ := mreg.Value(name, labels...)
		return uint64(v)
	}

	engineUp := time.Now()
	eng := aero.NewEngine(aero.EngineConfig{
		Metrics: mreg,
		Hygiene: aero.HygieneConfig{Policy: hygienePolicy},
		Health:  aero.HealthConfig{Disable: *noHealth, LatencyThreshold: *latencyThresh},
	})
	subs := make([]*aero.Subscription, *tenants)
	var chaosBackends []*aero.ChaosBackend
	for i := range subs {
		id := fmt.Sprintf("field-%03d", i)
		b, berr := mkBackend()
		if berr != nil {
			fail("backend %s: %v", id, berr)
		}
		if i < *chaosN {
			// Deterministic chaos soak: seeded per tenant, spread over the
			// whole replay at low rates so quarantine/recovery cycles are
			// visible in the stats without drowning the feed.
			cb := aero.NewChaosBackend(b, aero.ChaosPlan{
				Seed:       *chaosSeed + uint64(i),
				PanicEvery: 97, ErrEvery: 61, NaNEvery: 79,
				DelayEvery: 53, Delay: 2 * time.Millisecond,
			})
			chaosBackends = append(chaosBackends, cb)
			b = cb
		}
		if subs[i], err = eng.SubscribeBackend(id, b); err != nil {
			fail("subscribe %s: %v", id, err)
		}
		if fbArtifact != nil {
			fb, ferr := fbSpec.Open(fbArtifact)
			if ferr != nil {
				fail("fallback %s: %v", id, ferr)
			}
			if err := subs[i].SetFallback(fb); err != nil {
				fail("fallback %s: %v", id, err)
			}
		}
	}
	if len(chaosBackends) > 0 {
		faultinject.Observe(mreg, chaosBackends)
		fmt.Fprintf(os.Stderr, "chaos harness armed on %d tenants (seed %d)\n", *chaosN, *chaosSeed)
	}
	// Warm restarts: restore checkpointed backend states so tenants
	// resume with a full window instead of re-warming from a cold ring.
	if reg != nil {
		restored := 0
		for _, sub := range subs {
			blob, lerr := reg.LoadState(sub.ID)
			if lerr != nil {
				continue // no checkpoint for this tenant
			}
			if rerr := sub.RestoreState(blob); rerr != nil {
				fmt.Fprintf(os.Stderr, "restore %s: %v\n", sub.ID, rerr)
				continue
			}
			restored++
		}
		if restored > 0 {
			fmt.Fprintf(os.Stderr, "restored %d warm backend states from %s\n", restored, reg.Dir())
		}
	}
	fmt.Fprintf(os.Stderr, "engine up: %d tenants × %d frames each\n", *tenants, d.Test.Len())

	// Background lifecycle: retrain on the configured interval through
	// the kind's trainer and hot-swap every tenant on publish.
	var retrainer *aero.Retrainer
	if *retrainEvery > 0 {
		hooks := retrainHooks{spec: spec, opts: opts, subs: subs}
		if isAERO {
			hooks.opts.AERO = model.Config()
		}
		rtCfg := aero.RetrainerConfig{
			Registry: reg,
			Source:   func(string) (*aero.Series, error) { return d.Train, nil },
			Train:    hooks.train,
			Interval: *retrainEvery,
			Metrics:  mreg,
			Logf:     func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
			OnResult: func(res aero.RetrainResult) {
				if res.Err != nil {
					fmt.Fprintf(os.Stderr, "retrain: %v\n", res.Err)
					return
				}
				n := hooks.swap(res)
				seed := ""
				if isAERO {
					seed = fmt.Sprintf(", seed %d", hooks.seed(res.Round))
				}
				fmt.Fprintf(os.Stderr, "hot-swapped %s/%s (%s%s) into %d tenants mid-stream\n",
					*name, res.Version, res.Kind, seed, n)
			},
		}
		if retrainer, err = aero.NewRetrainer(rtCfg); err != nil {
			fail("retrainer: %v", err)
		}
		retrainer.Register(*name)
		retrainer.Start()
	}

	// Frame period of the replayed feed: the unit of the triage defaults,
	// and the stride a restored tenant's replay resumes past its cursor by.
	step := 1.0
	if d.Test.Len() > 1 {
		step = d.Test.Time[1] - d.Test.Time[0]
	}

	// Alarm/incident and error consumers. Feed output goes through a
	// flushed bufio.Writer: an unbuffered write syscall per alarm would
	// let stdout I/O backpressure the engine's fan-in channel during
	// alarm bursts. The writer is flushed whenever the feed channel goes
	// momentarily idle (the burst is over) and at shutdown.
	out := bufio.NewWriterSize(os.Stdout, 64<<10)
	var consumers sync.WaitGroup
	var triageStream *aero.TriageStream
	var topIncidents []aero.Incident
	noteIncident := func(inc aero.Incident) {
		topIncidents = append(topIncidents, inc)
		for i := len(topIncidents) - 1; i > 0 && topIncidents[i].Severity > topIncidents[i-1].Severity; i-- {
			topIncidents[i], topIncidents[i-1] = topIncidents[i-1], topIncidents[i]
		}
		if len(topIncidents) > 5 {
			topIncidents = topIncidents[:5]
		}
	}
	printIncident := func(inc aero.Incident) {
		if *quiet {
			return
		}
		tag := ""
		if inc.Demoted {
			tag = " [single-field: artifact?]"
		}
		fmt.Fprintf(out, "INCIDENT #%d onset=%.0fs span=%.0fs tenants=%d episodes=%d frames=%d peak=%.4f severity=%.2f%s\n",
			inc.ID, inc.Onset, inc.End-inc.Onset, inc.Tenants, len(inc.Episodes), inc.Frames, inc.Peak, inc.Severity, tag)
	}
	if *triage {
		// Dedup bucket: four frame periods (the correlation window
		// defaults to two buckets).
		tcfg := aero.TriageConfig{BucketWidth: 4 * step}
		var aerr error
		if triageStream, aerr = aero.AttachTriageObserved(eng, tcfg, 0, mreg); aerr != nil {
			fail("attach triage: %v", aerr)
		}
		// Resume triage mid-flight from the previous run's checkpoint:
		// open episodes continue instead of re-onsetting.
		if reg != nil {
			if blob, lerr := reg.LoadState("triage"); lerr == nil {
				if rerr := triageStream.Pipeline().RestoreState(blob); rerr != nil {
					fmt.Fprintf(os.Stderr, "restore triage state: %v\n", rerr)
				} else {
					fmt.Fprintf(os.Stderr, "restored triage state (%d episodes resume mid-flight)\n", count("aero_triage_open_episodes"))
				}
			}
		}
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			ch := triageStream.Incidents()
			for inc := range ch {
				noteIncident(inc)
				printIncident(inc)
				if len(ch) == 0 {
					out.Flush()
				}
			}
			out.Flush()
		}()
	} else {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			ch := eng.Alarms()
			for a := range ch {
				if !*quiet {
					fmt.Fprintf(out, "ALARM %s star %d t=%.0fs score %.4f\n", a.Sub, a.Variate, a.Time, a.Score)
				}
				if len(ch) == 0 {
					out.Flush()
				}
			}
			out.Flush()
		}()
	}
	consumers.Add(1)
	go func() {
		defer consumers.Done()
		for fe := range eng.Errors() {
			fmt.Fprintf(os.Stderr, "frame error %s t=%.0fs: %v\n", fe.Sub, fe.Time, fe.Err)
		}
	}()

	// checkpointAll persists every tenant's warm backend state and the
	// mid-flight triage state to the registry. The run-to-completion
	// epilogue, the signal-interrupted replay, and the network server's
	// drain hook all funnel through it, so every exit path leaves the
	// same resumable state behind.
	checkpointAll := func() error {
		if reg == nil {
			return nil
		}
		var firstErr error
		saved := 0
		for _, sub := range subs {
			blob, serr := sub.SnapshotState()
			if serr != nil {
				fmt.Fprintf(os.Stderr, "snapshot %s: %v\n", sub.ID, serr)
				if firstErr == nil {
					firstErr = serr
				}
				continue
			}
			if serr = reg.SaveState(sub.ID, blob); serr != nil {
				fmt.Fprintf(os.Stderr, "checkpoint %s: %v\n", sub.ID, serr)
				if firstErr == nil {
					firstErr = serr
				}
				continue
			}
			saved++
		}
		fmt.Fprintf(os.Stderr, "checkpointed %d warm backend states to %s\n", saved, reg.Dir())
		if triageStream != nil {
			p := triageStream.Pipeline()
			if blob, terr := p.SnapshotState(); terr != nil {
				fmt.Fprintf(os.Stderr, "snapshot triage: %v\n", terr)
				if firstErr == nil {
					firstErr = terr
				}
			} else if terr = reg.SaveState("triage", blob); terr != nil {
				fmt.Fprintf(os.Stderr, "checkpoint triage: %v\n", terr)
				if firstErr == nil {
					firstErr = terr
				}
			} else {
				fmt.Fprintf(os.Stderr, "checkpointed triage state (%d open episodes resume next run)\n",
					count("aero_triage_open_episodes"))
			}
		}
		return firstErr
	}

	// healthSummary renders the tenants' supervision counters as one
	// stats-line fragment: tenants per non-healthy state, cumulative
	// faults/quarantines/recoveries, and fallback service. Empty while
	// everything is healthy and nothing has ever faulted.
	healthSummary := func() string {
		faults := count("aero_engine_faults_total")
		dropped, repaired := count("aero_engine_hygiene_dropped_total"), count("aero_engine_hygiene_repaired_total")
		if faults == 0 && dropped == 0 && repaired == 0 {
			return ""
		}
		tenantsIn := func(h fmt.Stringer) uint64 { return count("aero_engine_tenants", "health", h.String()) }
		line := fmt.Sprintf(", health %d degraded/%d quarantined/%d probation (%d faults, %d panics, %d quarantines, %d recoveries)",
			tenantsIn(aero.HealthDegraded), tenantsIn(aero.HealthQuarantined), tenantsIn(aero.HealthProbation),
			faults, count("aero_engine_panics_total"), count("aero_engine_quarantines_total"), count("aero_engine_recoveries_total"))
		if fb := count("aero_engine_fallback_frames_total"); fb > 0 {
			line += fmt.Sprintf(", fallback served %d frames", fb)
		}
		if dropped+repaired > 0 {
			line += fmt.Sprintf(", hygiene %d dropped/%d repaired", dropped, repaired)
		}
		return line
	}
	chaosSummary := func() string {
		if len(chaosBackends) == 0 {
			return ""
		}
		injected := func(fault string) uint64 { return count("aero_chaos_injections_total", "fault", fault) }
		return fmt.Sprintf(", chaos injected %d panics/%d errors/%d nans/%d delays",
			injected("panic"), injected("error"), injected("nan"), injected("delay"))
	}
	// triageReduction is the percentage of alarms triage folded away.
	triageReduction := func(alarms, incidents uint64) float64 {
		if alarms == 0 {
			return 0
		}
		return 100 * (1 - float64(incidents)/float64(alarms))
	}

	// latencySummary renders the serving kind's score-stage percentiles
	// from the shared registry — the same histogram GET /metrics scrapes.
	// The kind label is taken from a live subscription (chaos wrapping
	// changes the registered kind), so lookup and registration agree.
	kindLabel := subs[len(subs)-1].Kind()
	latencySummary := func() string {
		h := mreg.FindHistogram("aero_engine_score_seconds", "kind", kindLabel)
		if h == nil {
			return ""
		}
		s := h.Snapshot()
		if s.Count == 0 {
			return ""
		}
		line := fmt.Sprintf(", score p50 %s / p99 %s",
			time.Duration(s.Quantile(0.5)).Round(time.Microsecond),
			time.Duration(s.Quantile(0.99)).Round(time.Microsecond))
		if th := mreg.FindHistogram("aero_dspot_step_seconds", "kind", kindLabel); th != nil {
			if ts := th.Snapshot(); ts.Count > 0 {
				line += fmt.Sprintf(", dspot step p99 %s",
					time.Duration(ts.Quantile(0.99)).Round(time.Microsecond))
			}
		}
		return line
	}

	// Periodic stats.
	statsDone := make(chan struct{})
	go func() {
		var tickC <-chan time.Time // nil, so never ready, with -stats 0
		if *statsEvery > 0 {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			tickC = tick.C
		}
		for {
			select {
			case <-tickC:
				frames := count("aero_engine_frames_total")
				line := fmt.Sprintf("stats: %d frames scored (%.0f/s), %d alarms (%d blocked), %d errors (%d reports dropped), %d queued",
					frames, float64(frames)/time.Since(engineUp).Seconds(),
					count("aero_engine_alarms_total"), count("aero_engine_alarms_blocked_total"),
					count("aero_engine_errors_total"), count("aero_engine_errors_dropped_total"),
					count("aero_engine_queue_depth"))
				line += latencySummary() + healthSummary() + chaosSummary()
				if alarm == "dspot" {
					line += fmt.Sprintf(", dspot %d exceedances", count("aero_dspot_exceedances_total"))
				}
				if triageStream != nil {
					alarmsIn, incidents := count("aero_triage_alarms_total"), count("aero_triage_incidents_total")
					line += fmt.Sprintf(", triage %d→%d (%.1f%% reduction)", alarmsIn, incidents, triageReduction(alarmsIn, incidents))
				}
				fmt.Fprintln(os.Stderr, line)
			case <-statsDone:
				return
			}
		}
	}()

	start := time.Now()
	relaunched := false
	serveMode := *listenAddr != "" || *httpAddr != ""
	if serveMode {
		// Network mode: the engine is fed over the wire instead of from
		// the test split; runServe blocks until a shutdown signal drains
		// the server (checkpointing through the hook above).
		relaunched = runServe(serveEnv{
			eng: eng, subs: subs, metrics: mreg,
			listenAddr: *listenAddr, httpAddr: *httpAddr, httpPprof: *httpPprof,
			checkpoint: checkpointAll,
		})
	} else {
		// Replay mode: one feeder per tenant replays the test split
		// through the shared FrameSource. SIGINT/SIGTERM stop the feed at
		// the next frame; the normal epilogue below then checkpoints, so
		// an interrupted replay loses no warm state.
		stop := make(chan struct{})
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			if sig, ok := <-sigc; ok {
				fmt.Fprintf(os.Stderr, "%s: stopping replay, checkpointing...\n", sig)
				close(stop)
			}
		}()
		var feeders sync.WaitGroup
		for i := range subs {
			feeders.Add(1)
			go func(i int) {
				defer feeders.Done()
				id := subs[i].ID
				// A restored tenant already has a time cursor; shift the
				// replay so it continues strictly after the checkpointed feed.
				last, ok := subs[i].LastTime()
				src := aero.FrameSource{
					Time: d.Test.Time, Data: d.Test.Data,
					Rate: *rate, Stop: stop,
					Offset: aero.ResumeOffset(last, ok, d.Test.Time[0], step),
				}
				_, ferr := src.Feed(func(f aero.Frame) error { return eng.Ingest(id, f) })
				if ferr != nil && !errors.Is(ferr, aero.ErrFeedStopped) {
					fmt.Fprintf(os.Stderr, "ingest %s: %v\n", id, ferr)
				}
			}(i)
		}
		feeders.Wait()
		signal.Stop(sigc)
		close(sigc)
	}
	if retrainer != nil {
		retrainer.Close() // finish any in-flight retrain (its swap still lands)
	}
	eng.Flush()
	elapsed := time.Since(start)
	for i := 0; ; i++ {
		shard := strconv.Itoa(i)
		tenantsN, ok := mreg.Value("aero_engine_shard_tenants", "shard", shard)
		if !ok {
			break
		}
		if frames := count("aero_engine_shard_frames_total", "shard", shard); tenantsN > 0 || frames > 0 {
			fmt.Fprintf(os.Stderr, "shard %d: %d tenants, %d frames\n", i, uint64(tenantsN), frames)
		}
	}
	close(statsDone)
	eng.Close()
	consumers.Wait()

	// Checkpoint warm backend + triage states so the next run resumes
	// mid-window. Network mode already checkpointed through the drain
	// hook (before clients were told what to release), so only replay
	// mode checkpoints here.
	if !serveMode {
		checkpointAll()
	}

	// Triage epilogue: with a registry the mid-flight state was
	// checkpointed above (episodes resume on restart); without one flush
	// the remaining episodes into final incidents. Then report the
	// reduction and the top-ranked incidents.
	if triageStream != nil {
		if reg == nil {
			for _, inc := range triageStream.Pipeline().Finalize() {
				noteIncident(inc)
				printIncident(inc)
			}
			out.Flush()
		}
		alarmsIn, incidents := count("aero_triage_alarms_total"), count("aero_triage_incidents_total")
		fmt.Fprintf(os.Stderr, "triage: %d alarms → %d incidents (%.1f%% reduction; %d deduped, %d episodes, %d still open)\n",
			alarmsIn, incidents, triageReduction(alarmsIn, incidents), count("aero_triage_deduped_total"),
			count("aero_triage_episodes_total"), count("aero_triage_open_episodes"))
		for i, inc := range topIncidents {
			tag := ""
			if inc.Demoted {
				tag = " [single-field: artifact?]"
			}
			fmt.Fprintf(os.Stderr, "  top %d: incident #%d onset=%.0fs tenants=%d peak=%.4f severity=%.2f%s\n",
				i+1, inc.ID, inc.Onset, inc.Tenants, inc.Peak, inc.Severity, tag)
		}
	}

	if alarm == "dspot" {
		fmt.Fprintf(os.Stderr, "dspot tails: %d exceedances\n", count("aero_dspot_exceedances_total"))
	}
	if h := healthSummary() + chaosSummary(); h != "" {
		fmt.Fprintf(os.Stderr, "containment:%s\n", h[1:])
	}
	if l := latencySummary(); l != "" {
		fmt.Fprintf(os.Stderr, "latency:%s\n", l[1:])
	}
	frames := count("aero_engine_frames_total")
	fmt.Fprintf(os.Stderr, "done: %d frames over %d tenants in %s (%.0f frames/s), %d alarms, %d retrains, %d hot-swaps\n",
		frames, *tenants, elapsed.Round(time.Millisecond), float64(frames)/elapsed.Seconds(),
		count("aero_engine_alarms_total"), count("aero_lifecycle_publishes_total"), count("aero_engine_swaps_total"))
	if relaunched {
		fmt.Fprintln(os.Stderr, "successor process is serving; this process exits")
	}
}

// retrainHooks wires the background retrainer to the serving tenants.
type retrainHooks struct {
	spec aero.BackendSpec
	opts aero.BackendOptions // for AERO: the served model's config
	subs []*aero.Subscription
}

// seed is the AERO training seed of a retrain round: the served model's
// seed plus the round, so every round is reproducible from the log.
func (h retrainHooks) seed(round int) int64 { return h.opts.AERO.Seed + int64(round) }

// train refits the serving kind through its spec.
func (h retrainHooks) train(_ string, round int, series *aero.Series) (string, []byte, error) {
	opts := h.opts
	opts.AERO.Seed = h.seed(round)
	artifact, err := h.spec.Train(series, opts)
	return h.spec.Kind, artifact, err
}

// swap installs a published artifact into every tenant and returns how
// many took it. An AERO artifact is parsed once and that one model swaps
// into every tenant (a DSPOT stage passes it through), so the tenants
// keep sharing one set of weights; other kinds swap the artifact.
func (h retrainHooks) swap(res aero.RetrainResult) int {
	var model *aero.Model
	if h.spec.Kind == "aero" {
		var err error
		if model, err = openModel(h.spec, res.Artifact); err != nil {
			fmt.Fprintf(os.Stderr, "open %s: %v\n", res.Version, err)
			return 0
		}
	}
	n := 0
	for _, sub := range h.subs {
		var err error
		if model != nil {
			err = sub.Swap(model)
		} else {
			err = sub.SwapArtifact(res.Artifact)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "swap %s: %v\n", sub.ID, err)
			continue
		}
		n++
	}
	return n
}

// openModel parses an AERO artifact into the model its detectors share.
func openModel(spec aero.BackendSpec, artifact []byte) (*aero.Model, error) {
	b, err := spec.Open(artifact)
	if err != nil {
		return nil, err
	}
	return b.(*aero.StreamDetector).Model(), nil
}

// openBackend constructs one cold backend instance. AERO tenants share
// the in-memory model (scoring only reads the weights) instead of
// re-parsing the artifact per tenant; every other kind opens through its
// spec.
func openBackend(spec aero.BackendSpec, isAERO bool, model *aero.Model, artifact []byte) (aero.StreamBackend, error) {
	if isAERO {
		return aero.NewStreamDetector(model)
	}
	return spec.Open(artifact)
}
