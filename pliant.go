// Package pliant is a library-scale reproduction of "Pliant: Leveraging
// Approximation to Improve Datacenter Resource Efficiency" (Kulkarni, Qi,
// Delimitrou — HPCA 2019): an online cloud runtime that colocates
// latency-critical interactive services with approximate-computing
// applications, dynamically trading the approximate applications' output
// quality (and, when needed, cores) for the interactive service's tail
// latency.
//
// The package exposes the system's public surface:
//
//   - Scenario construction and execution (RunScenario): an interactive
//     service model (NGINX, memcached, or MongoDB), one or more approximate
//     applications from the 24-app catalog, and a runtime policy (Pliant's
//     controller, the precise baseline, a static-approximation ablation, the
//     impact-aware arbiter, or the online variant-impact learner) colocated
//     on a simulated server.
//   - The approximation design-space exploration (Explore) that derives each
//     application's pareto-frontier variants.
//   - The experiment registry (Experiments, RunExperiment) that regenerates
//     every table and figure of the paper's evaluation.
//   - The paper's extension paths: ACCEPT-style hint files for user-provided
//     applications (ParseHints, Sec. 6.5), an online variant-impact learner
//     (RuntimeLearner, Sec. 6.5), and an online, event-driven cluster
//     scheduler informed by the runtime's telemetry (RunSched, Sec. 6.4):
//     jobs stream in over a horizon, services ride time-varying load
//     shapes, and placement policies consume each node's live runtime
//     telemetry.
//   - An energy dimension behind all of it (EnergyModelFor,
//     ScenarioConfig.EnergyModel, SchedConfig.Energy): per-node power curves
//     derived from the platform spec, joules accumulated in virtual time,
//     node-lifecycle autoscaling (ConsolidateAutoscaler), and the
//     approx-for-watts policy (ApproxForWattsAutoscaler) that spends
//     approximation slack on lower frequency states — the "energy"
//     experiment quantifies how many watts approximation buys at equal QoS.
//
// All randomness is seeded: equal configurations reproduce results
// bit-for-bit. See DESIGN.md for the architecture and the
// hardware-substitution rationale, and EXPERIMENTS.md for paper-vs-measured
// results.
package pliant

import (
	"io"

	"github.com/approx-sched/pliant/internal/accept"
	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/approx"
	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/core"
	"github.com/approx-sched/pliant/internal/dse"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/experiments"
	"github.com/approx-sched/pliant/internal/export"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/serve"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/trace"
	"github.com/approx-sched/pliant/internal/version"
	"github.com/approx-sched/pliant/internal/workload"
)

// Version returns the one-line build identity every pliant CLI prints for
// -version, derived from the toolchain's embedded build info.
func Version() string { return version.String() }

// Core simulation types.
type (
	// Duration is a span of virtual time in nanoseconds.
	Duration = sim.Duration
)

// Duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Platform modeling.
type (
	// PlatformSpec describes the server hardware model.
	PlatformSpec = platform.Spec
)

// TablePlatform returns the paper's Table 1 server: dual-socket Xeon
// E5-2699 v4 with 55MB LLC and 6 irq-dedicated cores.
func TablePlatform() PlatformSpec { return platform.TablePlatform() }

// SmallPlatform returns a scaled-down server for quick experiments.
func SmallPlatform() PlatformSpec { return platform.SmallPlatform() }

// Interactive services.
type (
	// ServiceClass selects one of the paper's three interactive services.
	ServiceClass = service.Class
	// ServiceConfig is a service model; obtain presets via ServicePreset.
	ServiceConfig = service.Config
)

// The paper's three latency-critical services.
const (
	NGINX     = service.NGINX
	Memcached = service.Memcached
	MongoDB   = service.MongoDB
)

// ServicePreset returns the calibrated model for a service class.
func ServicePreset(c ServiceClass) ServiceConfig { return service.Preset(c) }

// QoSOf returns a service's p99 QoS target (10ms / 200µs / 100ms).
func QoSOf(c ServiceClass) Duration { return service.QoSOf(c) }

// Approximate applications.
type (
	// AppProfile statically describes one approximate application.
	AppProfile = app.Profile
	// ApproxEffect is a variant's impact on time, traffic, and quality.
	ApproxEffect = approx.Effect
)

// Applications returns the 24-application catalog (PARSEC, SPLASH-2,
// MineBench, BioPerf) in the paper's presentation order.
func Applications() []AppProfile { return app.Catalog() }

// ApplicationNames returns the catalog names.
func ApplicationNames() []string { return app.Names() }

// ApplicationByName returns one catalog profile.
func ApplicationByName(name string) (AppProfile, error) { return app.ByName(name) }

// Design-space exploration.
type (
	// ExploreOptions tunes the design-space exploration.
	ExploreOptions = dse.Options
	// ExploreResult holds all examined candidates and the pareto-selected
	// variants for one application.
	ExploreResult = dse.Result
)

// DefaultExploreOptions mirrors the paper: 5% inaccuracy budget.
func DefaultExploreOptions() ExploreOptions { return dse.DefaultOptions() }

// Explore enumerates and selects approximate variants for an application.
func Explore(prof AppProfile, opts ExploreOptions) (ExploreResult, error) {
	return dse.Explore(prof, opts)
}

// VariantsFor returns an application's runtime variant table (precise first,
// then pareto-selected variants least→most approximate), memoized.
func VariantsFor(prof AppProfile) ([]ApproxEffect, error) { return dse.VariantsFor(prof) }

// ParseHints reads an ACCEPT-style hints document (the paper's Sec. 6.5
// user interface for public clouds) and returns the application profile it
// declares. Such profiles run in scenarios via ScenarioConfig.CustomApps.
func ParseHints(r io.Reader) (AppProfile, error) { return accept.Parse(r) }

// Runtime policies.
type (
	// Policy decides actuation for each decision interval. The actions a
	// Decide returns are valid until its next call: the built-in policies
	// reuse one buffer, so copy them to keep them.
	Policy = core.Policy
	// PolicySnapshot is the per-interval controller input. Its Apps slice
	// is valid only during Decide and is rewritten at the next report:
	// copy it to keep it.
	PolicySnapshot = core.Snapshot
	// PolicyAction is one actuation step. RunScenario fails with an error
	// when a policy returns an app outside the snapshot, a variant the app
	// lacks or an unknown kind.
	PolicyAction = core.Action
	// RuntimeKind selects a built-in runtime policy.
	RuntimeKind = colocate.RuntimeKind
)

// Policy action kinds.
const (
	SwitchVariant = core.SwitchVariant
	ReclaimCore   = core.ReclaimCore
	ReturnCore    = core.ReturnCore
)

// Built-in runtimes.
const (
	RuntimePliant       = colocate.Pliant
	RuntimePrecise      = colocate.Precise
	RuntimeStaticApprox = colocate.StaticApprox
	RuntimeImpactAware  = colocate.ImpactAware
	RuntimeLearner      = colocate.Learner
)

// Scenarios.
type (
	// ScenarioConfig describes one colocation: service, applications,
	// runtime, load, and decision parameters.
	ScenarioConfig = colocate.Config
	// ScenarioResult is the outcome of one run.
	ScenarioResult = colocate.Result
)

// RunScenario executes one colocation scenario.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) { return colocate.Run(cfg) }

// WriteResultJSON serializes a scenario result as JSON for programmatic
// consumers.
func WriteResultJSON(w io.Writer, res ScenarioResult) error {
	return export.WriteResultJSON(w, res)
}

// WriteTraceCSV writes the run's per-interval series as a CSV table, ready
// for plotting the paper's dynamic-behavior figures.
func WriteTraceCSV(w io.Writer, res ScenarioResult) error {
	return export.WriteTraceCSV(w, res)
}

// Time-varying load shapes (cluster-horizon workloads).
type (
	// DiurnalLoad is a sinusoidal day: ±Amp around 1 over PeriodSec.
	DiurnalLoad = workload.Diurnal
	// ReplayLoad replays a recorded (time, multiplier) trace.
	ReplayLoad = workload.Replay
)

// NewDiurnalLoad returns a validated diurnal shape.
func NewDiurnalLoad(amp, periodSec float64) (DiurnalLoad, error) {
	return workload.NewDiurnal(amp, periodSec)
}

// NewReplayLoad returns a validated trace-replay shape.
func NewReplayLoad(timesSec, mult []float64) (ReplayLoad, error) {
	return workload.NewReplay(timesSec, mult)
}

// Production trace ingestion (internal/trace): parse Google ClusterData-style
// task events or Azure VM-trace-style rows into a canonical job stream,
// normalize it (rebase, rescale, deterministically down-sample), and replay
// it through the online scheduler via SchedConfig.Trace.
type (
	// ClusterTrace is a parsed, validated, arrival-ordered trace.
	ClusterTrace = trace.Trace
	// TraceFormat selects a supported trace schema.
	TraceFormat = trace.Format
	// TraceOptions tunes trace normalization (span, rate/duration scaling,
	// down-sampling).
	TraceOptions = trace.Options
	// TraceSynthConfig tunes the schema-exact fixture generator.
	TraceSynthConfig = trace.SynthConfig
)

// The supported trace schemas.
const (
	GoogleTraceFormat = trace.Google
	AzureTraceFormat  = trace.Azure
)

// ParseTrace reads a cluster trace in the given format, streaming.
func ParseTrace(r io.Reader, f TraceFormat) (*ClusterTrace, error) { return trace.Parse(r, f) }

// SynthesizeTrace emits a schema-exact CSV fixture for tests and demos — the
// real parse path without gigabytes of trace data.
func SynthesizeTrace(cfg TraceSynthConfig) []byte { return trace.Synthesize(cfg) }

// Energy modeling and autoscaling: the watts that approximation buys. A
// power model derived from the platform spec attaches to scenarios
// (ScenarioConfig.EnergyModel) and scheduling runs (SchedConfig.Energy);
// autoscalers park idle nodes and spend approximation slack on lower
// frequency states (SchedConfig.Autoscaler).
type (
	// EnergyModel is a per-node power curve (idle/active over utilization,
	// frequency ladder, wake cost) derived from a PlatformSpec.
	EnergyModel = energy.Model
	// AutoscaleController decides lifecycle and frequency transitions at
	// every scheduling boundary.
	AutoscaleController = autoscale.Controller
	// AutoscaleView is the cluster snapshot controllers decide against.
	AutoscaleView = autoscale.View
	// AutoscaleAction is one lifecycle actuation.
	AutoscaleAction = autoscale.Action
	// ConsolidateAutoscaler parks surplus idle nodes behind a capacity
	// reserve and wakes them under backlog.
	ConsolidateAutoscaler = autoscale.Consolidate
	// ApproxForWattsAutoscaler adds slack-funded frequency scaling on top
	// of consolidation — the Pliant-style energy policy.
	ApproxForWattsAutoscaler = autoscale.ApproxForWatts
)

// EnergyModelFor derives a power model from a server spec: peak draw
// calibrated to the Table 1 part's TDP, a ~45%-of-peak idle floor, and a
// three-state frequency ladder at 60/80/100% of base frequency.
func EnergyModelFor(spec PlatformSpec) EnergyModel { return energy.ModelFor(spec) }

// Online cluster scheduling (the event-driven form of Sec. 6.4: job streams,
// time-varying load, telemetry-fed placement).
type (
	// SchedConfig describes one online scheduling run.
	SchedConfig = sched.Config
	// SchedResult aggregates an online scheduling run.
	SchedResult = sched.Result
	// ClusterNode is one server in a scheduling run (SchedConfig.Nodes),
	// identified by the interactive service it hosts.
	ClusterNode = cluster.Node
	// SchedPolicy decides placement at every scheduling window. Place must
	// be a pure function of its arguments that returns -1 or the Index of a
	// node whose offered Free > 0, and must not keep nodes. Jobs are not
	// offered while no node has a free slot: such a job is deferred with
	// Deferrals++ and a placement record with 0 candidates.
	SchedPolicy = sched.Policy
	// SchedJob is the job view offered to policies.
	SchedJob = sched.Job
	// SchedNodeState is the live node view offered to policies. A
	// SchedPolicy may pick only a node offered with Free > 0; parked,
	// draining, waking and down nodes are offered with Free = 0.
	SchedNodeState = sched.NodeState
	// FirstFitPlacement is the telemetry-blind online baseline.
	FirstFitPlacement = sched.FirstFit
	// BestFitPlacement packs slots tightest-first.
	BestFitPlacement = sched.BestFit
	// SpreadPlacement scatters jobs emptiest-node-first — the QoS-friendly,
	// watts-hostile endpoint of the energy study.
	SpreadPlacement = sched.Spread
	// TelemetryAwarePlacement consumes live runtime telemetry and per-app
	// pressure for placement and admission.
	TelemetryAwarePlacement = sched.TelemetryAware
)

// RunSched executes one online scheduling study: jobs arrive over the
// horizon, an online policy places or defers them at every scheduling
// window, and each node runs its colocation under the Pliant runtime with
// time-varying service load.
func RunSched(cfg SchedConfig) (SchedResult, error) { return sched.Run(cfg) }

// CompareSchedPolicies runs the same arrival stream under several online
// policies.
func CompareSchedPolicies(cfg SchedConfig, policies ...SchedPolicy) ([]SchedResult, error) {
	return sched.Compare(cfg, policies...)
}

// RenderSchedComparison formats an online policy comparison table.
func RenderSchedComparison(results []SchedResult) string { return sched.Render(results) }

// WriteSchedResultJSON serializes an online scheduling result as JSON.
func WriteSchedResultJSON(w io.Writer, res SchedResult) error {
	return export.WriteSchedResultJSON(w, res)
}

// WriteSchedTraceCSV writes the cluster-horizon series (queue depth,
// utilization, QoS-met fraction, …) as a CSV table.
func WriteSchedTraceCSV(w io.Writer, res SchedResult) error {
	return export.WriteSchedTraceCSV(w, res)
}

// Step-driven scheduling (the serving layer's engine surface): a SchedRunner
// holds one online run open and advances it one scheduling window at a time,
// with live snapshots and mid-run job injection. Driving a runner to its
// horizon is byte-identical to RunSched on the same config.
type (
	// SchedRunner is one open, step-driven online scheduling run.
	SchedRunner = sched.Runner
)

// NewSchedRunner validates the config and opens a step-driven run.
func NewSchedRunner(cfg SchedConfig) (*SchedRunner, error) { return sched.NewRunner(cfg) }

// Fault injection and recovery (internal/fault): seeded, virtual-time
// failures wired through the online scheduler. A FaultPlan attached via
// SchedConfig.Faults compiles — purely from the run seed — into a typed event
// stream: MTTF/MTTR node crash/recover churn, scripted correlated outages
// that drop whole failure domains, telemetry dropouts that freeze a node's
// feedback, and straggler windows that degrade its effective frequency.
// Crashed nodes drop their jobs back to the queue under a per-job retry
// budget with exponential backoff and domain-aware anti-affinity on retry;
// the DegradeUnderLossController funds the capacity shortfall by waking
// reserves instead of shedding jobs. Fault-injected runs stay byte-identical
// across shard counts.
type (
	// FaultPlan describes a run's fault injection (SchedConfig.Faults).
	FaultPlan = fault.Plan
	// FaultOutage is one scripted correlated failure-domain outage.
	FaultOutage = fault.Outage
	// DegradeUnderLossController wraps a normal autoscaler and, while crashed
	// capacity leaves demand unmet, wakes every reserve and snaps survivors
	// to nominal frequency instead of shedding jobs.
	DegradeUnderLossController = fault.DegradeUnderLoss
)

// Observability (internal/obs): a deterministic, virtual-time view into a
// scheduling run. An Observer attached via SchedConfig.Obs carries three
// channels — a ring-buffered decision tracer exportable as Chrome
// trace-event JSON (Perfetto-loadable), a metrics registry snapshotted at
// every window boundary (Prometheus text format or CSV), and a wall-clock
// shard profiler surfaced in SchedResult.ShardProfiles. Tracer and metrics
// output is byte-identical for any shard count; attaching an observer never
// perturbs simulation results.
type (
	// Observer bundles the three observability channels for one run.
	Observer = obs.Observer
	// ObserverOptions tunes observer construction (the trace ring's
	// capacity, a limit the ring grows to rather than allocates up front).
	ObserverOptions = obs.Options
	// ObsTracer is the bounded virtual-time decision tracer: its ring grows
	// by doubling to what the run emits, up to its capacity, and once it is
	// full-size Emit makes no allocations.
	ObsTracer = obs.Tracer
	// ObsRecord is one fixed-size tracer record.
	ObsRecord = obs.Record
	// ObsRecordKind discriminates tracer records.
	ObsRecordKind = obs.Kind
	// ObsRegistry is the metrics registry (counters, gauges, histograms).
	ObsRegistry = obs.Registry
	// ObsTraceMeta names the lanes of a Chrome trace export.
	ObsTraceMeta = obs.TraceMeta
	// ShardProfile is one shard's wall-clock account of a run.
	ShardProfile = obs.ShardProfile
)

// Tracer record kinds.
const (
	ObsKindWindow     = obs.KindWindow
	ObsKindEpisode    = obs.KindEpisode
	ObsKindPlacement  = obs.KindPlacement
	ObsKindAutoscale  = obs.KindAutoscale
	ObsKindLifecycle  = obs.KindLifecycle
	ObsKindReplayDrop = obs.KindReplayDrop
	ObsKindFault      = obs.KindFault
)

// NewObserver builds an observer with all three channels attached. Attach a
// fresh one per run via SchedConfig.Obs.
func NewObserver(opts ObserverOptions) *Observer { return obs.New(opts) }

// WriteChromeTrace renders a tracer's records as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: one timeline
// lane per node plus a scheduler lane.
func WriteChromeTrace(w io.Writer, t *ObsTracer, meta ObsTraceMeta) error {
	return obs.WriteChromeTrace(w, t, meta)
}

// WriteMetricsProm writes a registry's current values in Prometheus text
// exposition format.
func WriteMetricsProm(w io.Writer, r *ObsRegistry) error { return obs.WriteMetricsProm(w, r) }

// WriteMetricsCSV writes a registry's per-window snapshots as a CSV table,
// one row per scheduling boundary.
func WriteMetricsCSV(w io.Writer, r *ObsRegistry) error { return obs.WriteMetricsCSV(w, r) }

// The serving layer (internal/serve): a long-running shadow-scheduler daemon
// over the step-driven engine. A ServeServer manages named sessions — each
// one or more lockstep engines advanced faster-than-real-time on a session
// goroutine — behind an HTTP API (cmd/pliant-served): JSON session specs,
// bounded ingest queues with 429 backpressure, Server-Sent-Events decision
// streams, and Prometheus metrics. A session with several candidate policies
// is a shadow replay with per-window verdict diffs. Sessions replayed through
// the daemon export byte-identical JSON/CSV to batch RunSched.
type (
	// ServeServer is the daemon: session manager + http.Handler.
	ServeServer = serve.Server
	// ServeOptions tunes a ServeServer.
	ServeOptions = serve.Options
	// ServeSpec is the JSON form of one session's configuration — the same
	// surface the pliant-sched flags expose, resolved by the same code.
	ServeSpec = serve.Spec
	// ServeTraceSpec carries a production trace in a session spec.
	ServeTraceSpec = serve.TraceSpec
	// ServeOutageSpec is one scripted outage in a session spec.
	ServeOutageSpec = serve.OutageSpec
	// ServeResolved is a spec lowered onto the scheduler's native config.
	ServeResolved = serve.Resolved
	// ShadowWindowVerdict is one window's cross-policy diff.
	ShadowWindowVerdict = serve.WindowVerdict
)

// NewServeServer returns an empty session manager; mount it on any net/http
// server (it implements http.Handler) or call its ListenAndServe.
func NewServeServer(opts ServeOptions) *ServeServer { return serve.NewServer(opts) }

// ResolveServeSpec lowers a session spec exactly as the pliant-sched flags
// would — the shared configuration surface of the CLI and the daemon.
func ResolveServeSpec(sp ServeSpec) (ServeResolved, error) { return sp.Resolve() }

// Experiments.
type (
	// ExperimentProfile selects the execution scale of experiments.
	ExperimentProfile = experiments.Profile
	// ExperimentEntry is one registered paper table/figure.
	ExperimentEntry = experiments.Entry
	// Renderer renders an experiment result as the paper's rows/series.
	Renderer = experiments.Renderer
)

// FastProfile returns the scaled experiment profile (minutes of CPU).
func FastProfile() ExperimentProfile { return experiments.Fast() }

// FullProfile returns the paper-scale experiment profile (hours of CPU).
func FullProfile() ExperimentProfile { return experiments.Full() }

// Experiments returns every registered experiment, one per paper table or
// figure.
func Experiments() []ExperimentEntry { return experiments.Registry() }

// RunExperiment runs one experiment by ID ("table1", "fig1dse", "fig1impact",
// "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "overhead",
// "sched", "energy", "trace", "obs", "fault", "shadow").
func RunExperiment(id string, p ExperimentProfile) (Renderer, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(p)
}
