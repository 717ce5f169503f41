// Package aero is the public API of this repository: a from-scratch Go
// reproduction of AERO, the two-stage anomaly detection framework for
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

// Variant selects a model ablation (Table IV); VariantFull is normal AERO.
type Variant = core.Variant

// Ablation variants of the AERO model.
const (
	VariantFull                = core.VariantFull
	VariantNoTemporal          = core.VariantNoTemporal
	VariantMultivariateInput   = core.VariantMultivariateInput
	VariantNoShortWindow       = core.VariantNoShortWindow
	VariantNoNoise             = core.VariantNoNoise
	VariantNoNoiseMultivariate = core.VariantNoNoiseMultivariate
	VariantStaticGraph         = core.VariantStaticGraph
	VariantDynamicGraph        = core.VariantDynamicGraph
)

// New constructs an untrained AERO model for n variates (stars).
func New(cfg Config, n int) (*Model, error) { return core.New(cfg, n) }

// Load restores a model previously persisted with Model.Save; it is ready
// for Scores/Detect without retraining.
func Load(path string) (*Model, error) { return core.Load(path) }

// StreamDetector performs frame-at-a-time online detection (§III-F).
type StreamDetector = core.StreamDetector

// Frame is one observation instant for streaming detection.
type Frame = core.Frame

// Alarm is one threshold crossing reported by the stream detector.
type Alarm = core.Alarm

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

// GraphSnapshotter is the optional monitoring capability of backends
// that learn an inter-variate graph (AERO): a live window-wise
// adjacency.
type GraphSnapshotter = core.GraphSnapshotter

// BackendSpec describes one registered backend kind: its tag, a trainer
// producing a published artifact, and an opener constructing a serving
// StreamBackend from one.
type BackendSpec = backend.Spec

// BackendOptions carries the per-kind training/calibration knobs.
type BackendOptions = backend.Options

// StreamBaselineConfig parameterizes the streaming FluxEV adapter.
type StreamBaselineConfig = baselines.StreamConfig

// DefaultStreamBaselineConfig mirrors the batch FluxEV's settings.
func DefaultStreamBaselineConfig() StreamBaselineConfig { return baselines.DefaultStreamConfig() }

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

// OpenBackend constructs a cold serving backend of the named kind from
// its artifact; pair with Engine.SubscribeBackend.
func OpenBackend(kind string, artifact []byte) (StreamBackend, error) {
	return backend.Open(kind, artifact)
}

// DSPOTStage wraps any StreamBackend with per-variate streaming DSPOT
// (Siffer et al., KDD 2017 §4.4): raw scores are re-thresholded by a
// drift-corrected EVT tail model that adapts online, instead of the
// backend's static train-time threshold.
type DSPOTStage = backend.DSPOTStage

// DSPOTConfig parameterizes the adaptive-alarming stage.
type DSPOTConfig = backend.DSPOTConfig

// DefaultDSPOTConfig mirrors the paper's POT protocol (level 0.99,
// q 1e-3) with a 20-frame drift window and the amortized tail-refit
// schedule (DefaultRefitPolicy).
func DefaultDSPOTConfig() DSPOTConfig { return backend.DefaultDSPOTConfig() }

// RefitPolicy schedules the DSPOT tail model's Grimshaw refits: refit
// every Every-th exceedance and on tail-mean drift, over a bounded
// excess ring. The zero value is the exact policy (refit on every
// exceedance, as in Siffer et al.'s original SPOT).
type RefitPolicy = evt.RefitPolicy

// RefitStats are a tail model's cumulative maintenance counters — how
// many exceedances fed the ring and how many paid for a Grimshaw fit
// (warm-started vs full grid scan).
type RefitStats = evt.RefitStats

// DefaultRefitPolicy amortizes the tail maintenance: a warm refit every
// 384 exceedances, pulled forward by a 30% tail-mean drift or by a score
// within 10% of the threshold margin, over a 256-excess ring.
func DefaultRefitPolicy() RefitPolicy { return evt.DefaultRefitPolicy() }

// ExactRefitPolicy refits on every exceedance over a bounded ring —
// bit-identical to the original SPOT until the ring first overflows.
func ExactRefitPolicy() RefitPolicy { return evt.ExactRefitPolicy() }

// IncrementalPolicy controls the AERO StreamDetector's incremental
// streaming forward: sliding-window activation reuse on benign frames,
// with scheduled/drift/invalidation full recomputes and an exact
// alarm-boundary guard that keeps replay alarm sequences identical to the
// always-exact path. The zero value disables the incremental path.
type IncrementalPolicy = core.IncrementalPolicy

// IncrementalStats counts how a detector's scored frames were served
// (incremental vs each class of full recompute).
type IncrementalStats = core.IncrementalStats

// IncrementalInvalidator is the optional StreamBackend capability of
// dropping cached cross-frame activations; hosts call it after mutating
// window contents outside the ingest path.
type IncrementalInvalidator = core.IncrementalInvalidator

// DefaultIncrementalPolicy is the production default incremental schedule
// (refresh every 128 frames, one-row cone, 10% boundary guard).
func DefaultIncrementalPolicy() IncrementalPolicy { return core.DefaultIncrementalPolicy() }

// ExactIncrementalPolicy recomputes every frame — scores stay
// bit-identical to the non-incremental detector while caches are still
// maintained.
func ExactIncrementalPolicy() IncrementalPolicy { return core.ExactIncrementalPolicy() }

// NewDSPOTStage wraps a backend with DSPOT alarmers calibrated on
// per-variate score sequences (see StreamBackendScores). Stages built
// from the same config and bit-equal scores share one tail fit: the
// first fits, the rest restore that fit, each into its own state.
func NewDSPOTStage(inner StreamBackend, cfg DSPOTConfig, calib [][]float64) (*DSPOTStage, error) {
	return backend.NewDSPOTStage(inner, cfg, calib)
}

// OpenAdaptiveBackend opens a serving backend of the given kind wrapped
// in a freshly calibrated DSPOT stage (the calibration series is
// replayed through a scratch instance; the serving instance starts
// cold).
func OpenAdaptiveBackend(spec BackendSpec, artifact []byte, cfg DSPOTConfig, calib *Series) (*DSPOTStage, error) {
	return backend.OpenAdaptive(spec, artifact, cfg, calib)
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

// SubscriptionStats snapshots one tenant's counters.
type SubscriptionStats = engine.SubscriptionStats

// ShardStats snapshots one engine shard (frames/s, alarms, queue depth).
type ShardStats = engine.ShardStats

// EngineAlarm is an alarm attributed to the tenant that raised it.
type EngineAlarm = engine.Alarm

// EngineSample is one frame addressed to a tenant, the unit of the
// engine's channel ingest path.
type EngineSample = engine.Sample

// FrameError reports a frame the engine could not score.
type FrameError = engine.FrameError

// NewEngine starts a multi-tenant streaming engine. Register tenants with
// Subscribe, feed frames with Ingest or the Samples channel, and consume
// Alarms continuously until Close.
func NewEngine(cfg EngineConfig) *Engine { return engine.New(cfg) }

// HealthConfig parameterizes per-tenant fault supervision: consecutive
// faults degrade then quarantine a tenant onto its warm fallback, a
// frame-counted jittered backoff schedules probation probes, and clean
// probes recover it. The zero value enables supervision with production
// defaults; set Disable to turn the state machine off.
type HealthConfig = engine.HealthConfig

// HealthState is a tenant's fault-containment state.
type HealthState = engine.HealthState

// Tenant fault-containment states.
const (
	HealthHealthy     = engine.HealthHealthy
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

// Frame-hygiene policies.
const (
	HygieneOff      = engine.HygieneOff
	HygieneDrop     = engine.HygieneDrop
	HygieneHoldLast = engine.HygieneHoldLast
	HygieneGapMark  = engine.HygieneGapMark
)

// ParseHygienePolicy parses the flag spellings "off", "drop", "hold",
// "gap".
func ParseHygienePolicy(s string) (HygienePolicy, error) { return engine.ParseHygienePolicy(s) }

// PanicError is the error a contained backend panic is converted into:
// the panic value plus the goroutine stack at recovery.
type PanicError = engine.PanicError

// ErrQuarantined marks frames rejected because their tenant is
// quarantined and has no fallback backend to serve them.
var ErrQuarantined = engine.ErrQuarantined

// ErrNotReady is the typed error SPOT/DSPOT tail models return from Step
// before Fit has calibrated them.
var ErrNotReady = evt.ErrNotReady

// GuardPush pushes one frame into a backend with panic containment: a
// panicking backend yields a *PanicError instead of killing the calling
// goroutine. The benign path adds zero allocations. The engine applies
// this guard to every tenant push; GuardPush is the same protection for
// callers driving a StreamBackend directly.
func GuardPush(det StreamBackend, f Frame) ([]Alarm, error) { return engine.GuardPush(det, f) }

// ChaosPlan is a deterministic fault schedule for the fault-injection
// harness: panics, errors, NaN-scored alarms, and latency spikes keyed
// purely by (seed, frame index). See internal/faultinject.
type ChaosPlan = faultinject.Plan

// ChaosBackend wraps a StreamBackend with a ChaosPlan's fault schedule —
// the deterministic chaos harness behind aeroserve -chaos and the
// containment golden tests.
type ChaosBackend = faultinject.Backend

// ErrInjected is the error injected by ChaosBackend on error frames.
var ErrInjected = faultinject.ErrInjected

// NewChaosBackend wraps inner under the plan's fault schedule.
func NewChaosBackend(inner StreamBackend, plan ChaosPlan) *ChaosBackend {
	return faultinject.New(inner, plan)
}

// TriagePipeline is the streaming alert-triage subsystem: the engine's
// raw cross-tenant alarm flood reduced to a short, ranked incident feed
// through four stages — stable-Bloom dedup, per-source episode
// coalescing, cross-tenant onset correlation (with lead-lag histograms
// per tenant pair), and breadth-weighted severity ranking. Deterministic
// for a fixed alarm sequence, allocation-free on the benign path, and
// checkpointable mid-episode. See internal/alerts.
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

// IncidentEpisode is one coalesced run of alarms from a single
// (tenant, variate) source inside an incident.
type IncidentEpisode = alerts.Episode

// TriageStats snapshots the triage pipeline's counters, including the
// alarm→incident reduction ratio.
type TriageStats = alerts.Stats

// LeadLagStat summarizes one ordered tenant pair's onset-offset
// histogram: "Lead's episodes start ~Offset before Lag's".
type LeadLagStat = alerts.LeadLagStat

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

// MetricsNow returns the shared monotonic clock reading (nanoseconds
// since process start) every instrument stamps with.
func MetricsNow() int64 { return metrics.Now() }

// TraceConfig sizes the per-tenant flight recorder (EngineConfig.Trace):
// ring depth and the slow-frame pin threshold.
type TraceConfig = engine.TraceConfig

// TraceSnapshot is a point-in-time copy of one tenant's flight-recorder
// ring, from Subscription.Trace; its JSON method renders the wire form
// served at GET /trace/{tenant}.
type TraceSnapshot = metrics.TraceSnapshot

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

// IngestServerStats snapshots the ingest front end's counters.
type IngestServerStats = ingest.ServerStats

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

// IngestDataWireSize reports the encoded on-the-wire size in bytes of
// one n-variate data frame (framing, header and CRC included).
func IngestDataWireSize(n int) int { return ingest.DataWireSize(n) }

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

// ModelVersion identifies one published model of one registry tenant.
type ModelVersion = lifecycle.Version

// ErrNoVersions is returned by ModelRegistry.Latest for a tenant with no
// loadable published model.
var ErrNoVersions = lifecycle.ErrNoVersions

// OpenRegistry opens (creating if needed) a model registry rooted at dir.
func OpenRegistry(dir string) (*ModelRegistry, error) { return lifecycle.OpenRegistry(dir) }

// Retrainer refits tenant models in the background — on a schedule or on
// demand — on a bounded worker pool, publishing every result to the
// registry. Pair its OnResult callback with Subscription.Swap for
// zero-downtime nightly retrains.
type Retrainer = lifecycle.Retrainer

// RetrainerConfig wires a Retrainer to its training data, registry and
// result consumer.
type RetrainerConfig = lifecycle.RetrainerConfig

// RetrainResult reports one finished background retrain (the seed it is
// reproducible from, the version it published, the model to swap in).
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

// Preset dataset configurations matching the paper's Table I.
var (
	SyntheticMiddle = dataset.SyntheticMiddle
	SyntheticHigh   = dataset.SyntheticHigh
	SyntheticLow    = dataset.SyntheticLow
	AstrosetMiddle  = dataset.AstrosetMiddle
	AstrosetHigh    = dataset.AstrosetHigh
	AstrosetLow     = dataset.AstrosetLow
)

// ComputeStats derives Table I statistics from a dataset.
func ComputeStats(d *Dataset) Stats { return dataset.ComputeStats(d) }

// WriteDataset / ReadDataset persist datasets as CSV files.
var (
	WriteDataset = dataset.WriteDataset
	ReadDataset  = dataset.ReadDataset
)

// Confusion aggregates detection counts and derives precision/recall/F1.
type Confusion = anomaly.Confusion

// EvaluateAdjusted applies the point-adjust protocol and evaluates
// predictions against ground truth for one variate.
func EvaluateAdjusted(pred, truth []bool) Confusion {
	return anomaly.EvaluateAdjusted(pred, truth)
}

// PointAdjust applies the point-adjust protocol used by the paper's
// evaluation (§IV-C).
func PointAdjust(pred, truth []bool) []bool { return anomaly.PointAdjust(pred, truth) }

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

// DefaultBaselineConfig mirrors the paper's baseline setup.
func DefaultBaselineConfig() BaselineConfig { return baselines.DefaultConfig() }

// SmallBaselineConfig is the CPU-friendly baseline profile.
func SmallBaselineConfig() BaselineConfig { return baselines.SmallConfig() }
