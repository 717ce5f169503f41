// Package aero is the public surface of this repository: a from-scratch
// Go reproduction of AERO, the two-stage anomaly detection framework for
// astronomical observations from "From Chaos to Clarity: Time Series
// Anomaly Detection in Astronomical Observations" (Hao et al., ICDE 2024).
//
// # Overview
//
// Astronomical survey telescopes produce one magnitude (brightness) series
// per star. Two properties make the resulting multivariate time series
// unusual: variates are physically independent (stars do not influence one
// another), yet environmental interference — clouds, dawn sky background,
// atmospheric drift — hits many stars *simultaneously*, producing
// "concurrent noise" that is spatially and temporally random. Standard
// detectors either ignore cross-star structure (univariate methods: every
// cloud becomes a false alarm) or assume stable inter-variate correlations
// (multivariate methods: wrong during the noise-free majority of time).
//
// AERO resolves the tension with two stages: a Transformer encoder–decoder
// models each star independently and flags anomaly candidates by
// reconstruction error, then a graph convolution over a *window-wise
// learned graph* (re-derived from the stage-1 error patterns at every
// sliding window) reconstructs exactly the errors shared by several stars,
// cancelling concurrent noise while leaving genuine single-star events —
// flares, novae, occultations — prominent.
//
// # Quick start
//
//	d := aero.SyntheticMiddle().Generate()
//	det, _ := aero.New(aero.SmallConfig(), d.Train.N())
//	_ = det.Fit(d.Train)
//	labels, _ := det.Detect(d.Test)
//
// See examples/ for runnable programs and internal/experiments for the
// harness regenerating every table and figure of the paper.
//
// # Scope
//
// The package re-exports what the commands (cmd/), the examples
// (examples/), the serving benchmark (bench/) and the Quick start above
// name, plus the types their signatures mention — nothing more. The
// ablation variants, the incremental and refit policies, the health and
// hygiene constants, the fault and triage detail types and the other
// dataset presets live in the internal packages (core, evt, engine,
// alerts, dataset, ...), which the repository's own tests import
// directly.
package aero

import (
	"net"
	"os"

	"aero/internal/alerts"
	"aero/internal/anomaly"
	"aero/internal/backend"
	"aero/internal/baselines"
	"aero/internal/core"
	"aero/internal/dataset"
	"aero/internal/engine"
	"aero/internal/evt"
	"aero/internal/faultinject"
	"aero/internal/ingest"
	"aero/internal/lifecycle"
	"aero/internal/metrics"
)

// Model is a trainable/trained AERO detector. See core.Model.
type Model = core.Model

// Config holds AERO hyperparameters.
type Config = core.Config

// New constructs an untrained AERO model for n variates (stars).
func New(cfg Config, n int) (*Model, error) { return core.New(cfg, n) }

// Load restores a model previously persisted with Model.Save; it is ready
// for Scores/Detect without retraining.
func Load(path string) (*Model, error) { return core.Load(path) }

// StreamDetector performs frame-at-a-time online detection (§III-F).
type StreamDetector = core.StreamDetector

// Frame is one observation instant for streaming detection.
type Frame = core.Frame

// NewStreamDetector wraps a fitted model for online, frame-at-a-time
// detection with bounded memory. The steady-state scoring path is
// allocation-free: the window lives in a fixed circular buffer and all
// tensors are reused from a per-detector scratch.
func NewStreamDetector(m *Model) (*StreamDetector, error) {
	return core.NewStreamDetector(m)
}

// NewStreamDetectorWorkers is NewStreamDetector. Its second argument is
// accepted and unused: scoring a frame is one goroutine on every path.
//
// Deprecated: use NewStreamDetector.
func NewStreamDetectorWorkers(m *Model, _ int) (*StreamDetector, error) {
	return core.NewStreamDetector(m)
}

// StreamBackend is the pluggable contract of the streaming pipeline:
// any frame-at-a-time detector the engine can serve — the AERO
// StreamDetector, the streaming FluxEV baseline adapter, or a
// DSPOT-wrapped composition of either.
type StreamBackend = core.StreamBackend

// BackendSpec describes one registered backend kind: its tag, a trainer
// producing a published artifact, and an opener constructing a serving
// StreamBackend from one.
type BackendSpec = backend.Spec

// BackendOptions carries the per-kind training/calibration knobs.
type BackendOptions = backend.Options

// DefaultBackendOptions pairs the paper's AERO hyperparameters with the
// reference streaming-adapter settings; SmallBackendOptions is the
// CPU-friendly profile.
func DefaultBackendOptions() BackendOptions { return backend.DefaultOptions() }

// SmallBackendOptions is the CPU-friendly backend-training profile.
func SmallBackendOptions() BackendOptions { return backend.SmallOptions() }

// BackendKinds lists every registered backend kind, sorted.
func BackendKinds() []string { return backend.Kinds() }

// LookupBackend returns the spec registered for a backend kind.
func LookupBackend(kind string) (BackendSpec, bool) { return backend.Get(kind) }

// TrainBackend fits the named backend kind on a training series and
// returns its published artifact.
func TrainBackend(kind string, train *Series, opts BackendOptions) ([]byte, error) {
	return backend.Train(kind, train, opts)
}

// DSPOTStage wraps any StreamBackend with per-variate streaming DSPOT
// (Siffer et al., KDD 2017 §4.4): each raw score is re-centred on its
// variate's trailing mean and alarms above the POT level calibrated on
// that variate's scores, instead of the backend's pooled train-time
// threshold.
type DSPOTStage = backend.DSPOTStage

// DSPOTConfig parameterizes the DSPOT alarming stage.
type DSPOTConfig = backend.DSPOTConfig

// DefaultDSPOTConfig mirrors the paper's POT protocol (level 0.99,
// q 1e-3). Level and Q are the stage's only settings: every star's
// 20-frame drift window is fixed, and its level is set at calibration.
func DefaultDSPOTConfig() DSPOTConfig { return backend.DefaultDSPOTConfig() }

// RefitStats are a DSPOT stage's cumulative tail counters: its
// exceedances, scores in (t, z]. The level is never refitted, so Refits
// reads 0.
type RefitStats = evt.RefitStats

// NewDSPOTStage wraps a backend with DSPOT alarmers calibrated on
// per-variate score sequences (see StreamBackendScores). Stages built
// from the same config and bit-equal scores share one tail fit: the
// first fits, the rest restore that fit, each into its own state.
func NewDSPOTStage(inner StreamBackend, cfg DSPOTConfig, calib [][]float64) (*DSPOTStage, error) {
	return backend.NewDSPOTStage(inner, cfg, calib)
}

// StreamBackendScores replays a series through a stream backend and
// returns the per-variate post-warm score sequences — the raw material
// for POT/DSPOT calibration.
func StreamBackendScores(b StreamBackend, s *Series) ([][]float64, error) {
	return baselines.StreamScores(b, s)
}

// Engine is a sharded, multi-tenant streaming detection engine: many
// StreamDetector-backed tenants scored by a fixed worker pool, with
// backpressure-aware ingest and a fan-in alarm channel. See
// internal/engine for the full semantics.
type Engine = engine.Engine

// EngineConfig parameterizes NewEngine; the zero value uses production
// defaults (2×GOMAXPROCS shards, GOMAXPROCS workers).
type EngineConfig = engine.Config

// Subscription is the handle on one engine tenant: per-tenant stats and
// live graph snapshots.
type Subscription = engine.Subscription

// NewEngine starts a multi-tenant streaming engine. Register tenants with
// SubscribeBackend, feed frames with Ingest or the Samples channel, and
// consume Alarms continuously until Close.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// HealthConfig parameterizes per-tenant fault supervision: consecutive
// faults degrade then quarantine a tenant onto its warm fallback, a
// frame-counted jittered backoff schedules probation probes, and clean
// probes recover it. The zero value enables supervision with production
// defaults; set Disable to turn the state machine off.
type HealthConfig = engine.HealthConfig

// Tenant fault-containment states.
const (
	HealthDegraded    = engine.HealthDegraded
	HealthQuarantined = engine.HealthQuarantined
	HealthProbation   = engine.HealthProbation
)

// HygieneConfig parameterizes the frame-validation stage ahead of every
// backend push; the zero value is off.
type HygieneConfig = engine.HygieneConfig

// HygienePolicy selects how frames carrying NaN/Inf magnitudes are
// treated: rejected, or repaired by holding the last finite value.
type HygienePolicy = engine.HygienePolicy

// ParseHygienePolicy parses the flag spellings "off", "drop", "hold",
// "gap".
func ParseHygienePolicy(s string) (HygienePolicy, error) { return engine.ParseHygienePolicy(s) }

// ChaosPlan is a deterministic fault schedule for the fault-injection
// harness: panics, errors, NaN-scored alarms, and latency spikes keyed
// purely by (seed, frame index). See internal/faultinject.
type ChaosPlan = faultinject.Plan

// ChaosBackend wraps a StreamBackend with a ChaosPlan's fault schedule —
// the deterministic chaos harness behind aeroserve -chaos and the
// containment golden tests.
type ChaosBackend = faultinject.Backend

// NewChaosBackend wraps inner under the plan's fault schedule.
func NewChaosBackend(inner StreamBackend, plan ChaosPlan) *ChaosBackend {
	return faultinject.New(inner, plan)
}

// TriagePipeline is the streaming alert-triage subsystem: the engine's
// raw cross-tenant alarm flood reduced to a short, ranked incident feed
// through four stages — per-source dedup against the open episode,
// per-source episode coalescing, cross-tenant onset correlation, and
// breadth-weighted severity ranking. Deterministic for a fixed alarm
// sequence, allocation-free on the benign path, and checkpointable
// mid-episode, with state linear in open episodes and pending
// incidents. See internal/alerts.
type TriagePipeline = alerts.Pipeline

// TriageConfig parameterizes the triage pipeline; the zero value uses
// production defaults.
type TriageConfig = alerts.Config

// TriageStream is a triage pipeline attached to a live engine via its
// alarm tap, emitting ranked incidents on a channel.
type TriageStream = alerts.Stream

// Incident is one ranked triage output: a cluster of alarm episodes
// whose onsets coincide across tenants.
type Incident = alerts.Incident

// DefaultTriageConfig returns the production triage defaults.
func DefaultTriageConfig() TriageConfig { return alerts.DefaultConfig() }

// NewTriagePipeline returns an empty triage pipeline; feed it alarms in
// stream order with Push.
func NewTriagePipeline(cfg TriageConfig) *TriagePipeline { return alerts.NewPipeline(cfg) }

// AttachTriage installs a triage pipeline as the engine's alarm consumer
// (taking ownership of the Alarms channel) and returns its ranked
// incident feed. buffer sizes the incident channel (≤0 = default).
func AttachTriage(e *Engine, cfg TriageConfig, buffer int) (*TriageStream, error) {
	return alerts.Attach(e, cfg, buffer)
}

// AttachTriageObserved is AttachTriage with an optional metrics registry:
// each alarm's triage push is timed into aero_triage_push_seconds and
// finalized incidents are counted. Pass a nil registry for plain Attach.
func AttachTriageObserved(e *Engine, cfg TriageConfig, buffer int, reg *MetricsRegistry) (*TriageStream, error) {
	return alerts.AttachObserved(e, cfg, buffer, reg)
}

// MetricsRegistry is the dependency-free metrics registry shared by every
// layer: counters, gauges and log-linear latency histograms, scraped as
// Prometheus text by IngestServer's GET /metrics (or WritePrometheus
// directly). Pass one registry through EngineConfig.Metrics,
// IngestServerConfig.Metrics, RetrainerConfig.Metrics and
// AttachTriageObserved so every series lands in one scrape. A nil
// registry disables instrumentation everywhere at the cost of a
// nil-check. See internal/metrics and the Observability section of
// DESIGN.md.
type MetricsRegistry = metrics.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsHistogram is a lock-free log-linear latency histogram
// (nanosecond samples, ≤6.25% relative bucket error); Record is three
// atomic adds and allocation-free. Used standalone by aeroload for
// client-side send→ack latency.
type MetricsHistogram = metrics.Histogram

// NewMetricsHistogram returns an unregistered histogram, for callers that
// want percentiles without a registry (e.g. load generators).
func NewMetricsHistogram() *MetricsHistogram { return metrics.NewHistogram() }

// IngestServer is the network front door: it terminates the compact
// length-prefixed binary frame protocol over TCP (versioned magic,
// per-tenant handshake, CRC-guarded frames, credit-based flow control
// sized to engine queue headroom) plus a JSON-lines HTTP interop
// endpoint, and drains losslessly for zero-downtime restarts (every
// accepted frame scored and checkpointed before clients are told which
// prefix to release). See internal/ingest.
type IngestServer = ingest.Server

// IngestServerConfig wires an IngestServer to its engine, tenant lookup
// and drain-time checkpoint hook.
type IngestServerConfig = ingest.ServerConfig

// IngestClient is the protocol client: sequenced frames, a bounded
// resend buffer, credit-window flow control (Send blocks when the
// server's shard is saturated — the engine's lossless backpressure,
// felt end-to-end), and automatic reconnect-with-resend across a
// server's drain/restart handoff.
type IngestClient = ingest.Client

// IngestClientConfig parameterizes DialIngest.
type IngestClientConfig = ingest.ClientConfig

// IngestClientStats snapshots a client's delivery counters.
type IngestClientStats = ingest.ClientStats

// FrameSource replays a variate-major series as a paced frame stream —
// the one feeder shared by aeroserve's file replay and the aeroload
// network client.
type FrameSource = ingest.FrameSource

// ErrFeedStopped is returned by FrameSource.Feed when its Stop channel
// closes before the series is exhausted.
var ErrFeedStopped = ingest.ErrStopped

// ResumeOffset computes the timestamp shift for a tenant restored from
// a checkpoint, so a resumed replay continues strictly after the
// checkpointed cursor instead of rewinding.
func ResumeOffset(last float64, haveLast bool, seriesStart, step float64) float64 {
	return ingest.ResumeOffset(last, haveLast, seriesStart, step)
}

// NewIngestServer validates cfg and returns an idle ingest server; call
// Serve with a listener (see ListenInherited) to start accepting.
func NewIngestServer(cfg IngestServerConfig) (*IngestServer, error) { return ingest.NewServer(cfg) }

// DialIngest connects a protocol client to an ingest server and
// performs the tenant handshake.
func DialIngest(cfg IngestClientConfig) (*IngestClient, error) { return ingest.Dial(cfg) }

// ListenInherited returns a TCP listener for addr, preferring one
// inherited from a parent process mid zero-downtime restart; the bool
// reports whether the socket was inherited.
func ListenInherited(addr string) (ln net.Listener, inherited bool, err error) {
	return ingest.Listen(addr)
}

// IngestListenerFile duplicates a TCP listener's descriptor so it can
// be handed to a successor process across a zero-downtime restart.
func IngestListenerFile(l net.Listener) (*os.File, error) { return ingest.ListenerFile(l) }

// IngestRelaunch re-execs the current binary with the duplicated
// listener descriptor; the child resumes accepting on the same socket
// (see ListenInherited). Returns the child's pid.
func IngestRelaunch(f *os.File) (int, error) { return ingest.Relaunch(f) }

// ModelRegistry is a versioned on-disk model store: atomic publishes,
// monotonically increasing per-tenant versions, quarantine of corrupt
// entries, and warm detector-state checkpoints. See internal/lifecycle.
type ModelRegistry = lifecycle.Registry

// ErrNoVersions is returned by ModelRegistry.Latest for a tenant with no
// loadable published model.
var ErrNoVersions = lifecycle.ErrNoVersions

// OpenRegistry opens (creating if needed) a model registry rooted at dir.
func OpenRegistry(dir string) (*ModelRegistry, error) { return lifecycle.OpenRegistry(dir) }

// Retrainer refits tenant models in the background — on a schedule or on
// demand — on a bounded worker pool, publishing every result to the
// registry. Pair its OnResult callback with Subscription.Swap (AERO) or
// SwapArtifact (any kind) for zero-downtime nightly retrains.
type Retrainer = lifecycle.Retrainer

// RetrainerConfig wires a Retrainer to its training data, registry and
// result consumer.
type RetrainerConfig = lifecycle.RetrainerConfig

// RetrainResult reports one finished background retrain (the version it
// published, and the kind and artifact to swap in).
type RetrainResult = lifecycle.Result

// NewRetrainer validates cfg and returns an idle retrainer; call Start to
// launch its workers and Close to stop them.
func NewRetrainer(cfg RetrainerConfig) (*Retrainer, error) { return lifecycle.NewRetrainer(cfg) }

// DefaultConfig returns the paper's hyperparameters (W=200, ω=60, d_m=64,
// 4 heads, 1 encoder layer, Adam 1e-3, POT level 0.99 / q 1e-3).
func DefaultConfig() Config { return core.DefaultConfig() }

// SmallConfig returns a CPU-friendly profile with the same architecture at
// reduced size, suitable for laptops and CI.
func SmallConfig() Config { return core.SmallConfig() }

// Series is a multivariate magnitude series with ground-truth annotations.
type Series = dataset.Series

// Dataset couples an unlabelled training split with a labelled test split.
type Dataset = dataset.Dataset

// Stats summarizes a dataset as in the paper's Table I.
type Stats = dataset.Stats

// SyntheticConfig parameterizes the paper's synthetic benchmark generator.
type SyntheticConfig = dataset.SyntheticConfig

// GWACConfig parameterizes the simulated GWAC Astroset generator.
type GWACConfig = dataset.GWACConfig

// SyntheticMiddle is the paper's Table I SyntheticMiddle preset; the
// other presets live in internal/dataset.
var SyntheticMiddle = dataset.SyntheticMiddle

// ComputeStats derives Table I statistics from a dataset.
func ComputeStats(d *Dataset) Stats { return dataset.ComputeStats(d) }

// ReadDataset reads a dataset persisted as CSV files (see cmd/aerogen).
var ReadDataset = dataset.ReadDataset

// Confusion aggregates detection counts and derives precision/recall/F1.
type Confusion = anomaly.Confusion

// EvaluateAdjusted applies the point-adjust protocol and evaluates
// predictions against ground truth for one variate.
func EvaluateAdjusted(pred, truth []bool) Confusion {
	return anomaly.EvaluateAdjusted(pred, truth)
}

// POTThreshold calibrates an anomaly threshold from scores with
// Peaks-Over-Threshold extreme value theory (level/q as in §IV-B).
func POTThreshold(scores []float64, level, q float64) (float64, error) {
	th, err := evt.POT(scores, level, q)
	return th.Z, err
}

// BaselineDetector is the contract implemented by all eleven baselines.
type BaselineDetector = baselines.Detector

// BaselineConfig carries hyperparameters shared by the learned baselines.
type BaselineConfig = baselines.Config

// Baselines returns fresh instances of all eleven comparison methods from
// the paper's evaluation, in table order.
func Baselines(cfg BaselineConfig) []BaselineDetector {
	return []BaselineDetector{
		baselines.NewTemplateMatching(),
		baselines.NewSR(),
		baselines.NewSPOT(),
		baselines.NewFluxEV(),
		baselines.NewDonut(cfg),
		baselines.NewOmniAnomaly(cfg),
		baselines.NewAnomalyTransformer(cfg),
		baselines.NewTranAD(cfg),
		baselines.NewGDN(cfg),
		baselines.NewESG(cfg),
		baselines.NewTimesNet(cfg),
	}
}

// SmallBaselineConfig is the CPU-friendly baseline profile.
func SmallBaselineConfig() BaselineConfig { return baselines.SmallConfig() }
