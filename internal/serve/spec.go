// Package serve is the shadow-scheduler daemon: the long-running serving
// layer over the online scheduler (DESIGN.md §16). A Server holds named
// sessions, each one or more step-driven sched.Runner instances advanced
// faster-than-real-time on a session goroutine; an HTTP API (cmd/pliant-served,
// stdlib net/http only) creates sessions from a JSON Spec, submits jobs into
// bounded ingest queues with 429 backpressure, streams decisions and window
// telemetry over Server-Sent Events, and serves Prometheus metrics. A session
// with K candidate policies is a shadow replay: one arrival feed fanned out
// to K engines in lockstep with per-window verdict diffs. Determinism
// survives serving: a session replayed through the daemon produces
// byte-identical JSON/CSV exports to the same config under batch sched.Run
// (golden-pinned at shards 1 and 4).
package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/trace"
	"github.com/approx-sched/pliant/internal/workload"
)

// Spec is the JSON form of one session's configuration — the same surface the
// pliant-sched flags expose, field for field (the CLI builds a Spec from its
// flags and resolves it through the same code), so a daemon session and a
// batch run cannot drift semantically. Zero values take the CLI's defaults.
type Spec struct {
	// Name labels the session (default: the server assigns "s<N>").
	Name string `json:"name,omitempty"`

	// Seed drives all randomness (default 1, as -seed).
	Seed uint64 `json:"seed,omitempty"`

	// Nodes lists the cluster's services, one node per entry: nginx,
	// memcached, mongodb (default memcached,nginx,mongodb, as -nodes).
	// MaxApps is the per-node slot count (default 3, as -maxapps).
	Nodes   []string `json:"nodes,omitempty"`
	MaxApps int      `json:"max_apps,omitempty"`

	// Policies are the candidate placement policies: first-fit, best-fit,
	// spread, telemetry, or all (expanded). One policy is a plain session;
	// two or more make it a shadow replay with per-window verdict diffs.
	// Default: telemetry.
	Policies []string `json:"policies,omitempty"`

	// HorizonSec / EpochSec bound the run (defaults 240 / 12, as
	// -horizon/-epoch).
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	EpochSec   float64 `json:"epoch_sec,omitempty"`

	// Rate is the Poisson job arrival rate per second (0 = sized to
	// capacity, as -rate). SubmitOnly silences the synthetic stream
	// entirely: jobs enter only through the submission API.
	Rate       float64 `json:"rate,omitempty"`
	SubmitOnly bool    `json:"submit_only,omitempty"`

	// Load / Shape / Amp / PeriodSec / Peak set the service-load shape
	// (defaults 0.65 / diurnal / 0.25 / one day across the horizon / 1.6,
	// as -load/-shape/-amp/-period/-peak).
	Load      float64 `json:"load,omitempty"`
	Shape     string  `json:"shape,omitempty"`
	Amp       float64 `json:"amp,omitempty"`
	PeriodSec float64 `json:"period_sec,omitempty"`
	Peak      float64 `json:"peak,omitempty"`

	// TimeScale, Shards as the flags of the same names.
	TimeScale float64 `json:"timescale,omitempty"`
	Shards    int     `json:"shards,omitempty"`

	// Jobs cycles the catalog apps jobs draw from (default: seed-shuffled
	// catalog; with a trace, the candidate set), as -jobs.
	Jobs []string `json:"jobs,omitempty"`

	// Energy attaches the Table 1 power model; Autoscale selects the node
	// lifecycle controller (none, consolidate, approx-for-watts,
	// degrade-under-loss) and implies Energy, as -energy/-autoscale.
	Energy    bool   `json:"energy,omitempty"`
	Autoscale string `json:"autoscale,omitempty"`

	// Fault knobs, as -mttf/-mttr/-fault-domain/-outage/-retries/
	// -trace-faults. Resolve refuses a plan expected to compile to more
	// than maxFaultEvents events.
	MTTFSec     float64      `json:"mttf_sec,omitempty"`
	MTTRSec     float64      `json:"mttr_sec,omitempty"`
	FaultDomain int          `json:"fault_domain,omitempty"`
	Outages     []OutageSpec `json:"outages,omitempty"`
	Retries     int          `json:"retries,omitempty"`
	TraceFaults bool         `json:"trace_faults,omitempty"`

	// Trace replays an uploaded production trace as the arrival feed.
	Trace *TraceSpec `json:"trace,omitempty"`

	// QueueCap bounds the session's ingest queue (default 64); a full queue
	// answers 429 + Retry-After instead of buffering unboundedly.
	QueueCap int `json:"queue_cap,omitempty"`

	// PaceMS throttles the session to one scheduling window per this many
	// wall-clock milliseconds. 0 advances flat-out (faster-than-real-time is
	// the point); a positive pace keeps a session alive long enough for
	// interactive submission and SSE tailing. Virtual-time results are
	// byte-identical at any pace — only when jobs are injected relative to
	// the virtual clock can differ, never how a given injection unfolds.
	PaceMS int `json:"pace_ms,omitempty"`
}

// OutageSpec is one scripted rack outage — the at:domain:duration triple of
// the -outage flag as JSON.
type OutageSpec struct {
	AtSec       float64 `json:"at_sec"`
	Domain      int     `json:"domain"`
	DurationSec float64 `json:"duration_sec"`
}

// TraceSpec carries a production trace in the session body: either the CSV
// text inline (an upload) or a synthesizer config (fixtures, demos), plus
// the normalization knobs of the -trace-* flags.
type TraceSpec struct {
	// Format is the schema: google or azure (default google).
	Format string `json:"format,omitempty"`

	// CSV is the raw trace text. Mutually exclusive with Synthesize.
	CSV string `json:"csv,omitempty"`

	// Synthesize generates a schema-exact fixture instead of an upload.
	Synthesize *SynthSpec `json:"synthesize,omitempty"`

	// RateScale compresses the time axis (0 = rescale so the last arrival
	// lands at 90% of the horizon, as -trace-scale); MaxJobs down-samples
	// (0 = twice the cluster's slots, as -trace-jobs).
	RateScale float64 `json:"rate_scale,omitempty"`
	MaxJobs   int     `json:"max_jobs,omitempty"`
}

// SynthSpec tunes the fixture generator (trace.SynthConfig as JSON).
type SynthSpec struct {
	// Jobs is capped at 200,000 (maxSynthJobs); Resolve rejects more.
	Jobs        int     `json:"jobs,omitempty"`
	SpanSec     float64 `json:"span_sec,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	Orphans     float64 `json:"orphans,omitempty"`
	FailureFrac float64 `json:"failure_frac,omitempty"`
}

// Resolved is a Spec lowered onto the scheduler's native config: everything
// a session (or the CLI) needs to run. Cfg.Policy is left nil — the caller
// sets it per candidate policy.
type Resolved struct {
	Name     string
	Cfg      sched.Config
	Policies []sched.Policy

	// Trace is the parsed, normalized trace when the spec carried one
	// (already attached to Cfg.Trace); surfaced so callers can print its
	// ingest summary.
	Trace *trace.Trace

	// QueueCap is the session ingest bound (defaulted); PaceMS the
	// wall-clock window pace (0 = flat-out).
	QueueCap int
	PaceMS   int
}

// maxNodes bounds a spec's nodes list at 16× the 256-node cluster of
// perfbench's storm-coordinator workload, the largest one benchmarked, so a
// session spec cannot size a cluster (and its per-node runner state) by
// body length alone.
const maxNodes = 16 * 256

// maxDurationSec is the longest span, in seconds, that sim.Duration's int64
// nanoseconds can hold; a horizon or epoch at or past it would wrap negative.
const maxDurationSec = math.MaxInt64 / float64(sim.Second)

// Resolve lowers the spec exactly as the pliant-sched flags would.
func (sp Spec) Resolve() (Resolved, error) {
	nodeNames := sp.Nodes
	if len(nodeNames) == 0 {
		nodeNames = []string{"memcached", "nginx", "mongodb"}
	}
	if len(nodeNames) > maxNodes {
		return Resolved{}, fmt.Errorf("serve: nodes lists %d entries, more than %d", len(nodeNames), maxNodes)
	}
	maxApps := sp.MaxApps
	if maxApps == 0 {
		maxApps = 3
	}
	nodes, err := nodesFor(nodeNames, maxApps)
	if err != nil {
		return Resolved{}, err
	}

	horizon := sp.HorizonSec
	if horizon == 0 {
		horizon = 240
	}
	epoch := sp.EpochSec
	if epoch == 0 {
		epoch = 12
	}
	// Negated so NaN (reachable through the CLI flags) is refused too.
	if !(horizon < maxDurationSec) {
		return Resolved{}, fmt.Errorf("serve: horizon_sec %g exceeds the %.0f s a virtual-time span can hold", horizon, maxDurationSec)
	}
	if !(epoch < maxDurationSec) {
		return Resolved{}, fmt.Errorf("serve: epoch_sec %g exceeds the %.0f s a virtual-time span can hold", epoch, maxDurationSec)
	}

	var tr *trace.Trace
	switch {
	case sp.Trace != nil:
		if sp.SubmitOnly {
			return Resolved{}, fmt.Errorf("serve: submit_only and trace are mutually exclusive")
		}
		tr, err = sp.Trace.load(horizon, len(nodes)*maxApps)
		if err != nil {
			return Resolved{}, err
		}
	case sp.SubmitOnly:
		// No synthetic stream: every job enters through the submission API.
	case sp.Rate == 0:
		// sched sizes the default rate so that twice the slots arrive over
		// the horizon; counted in float64 so a huge max_apps cannot wrap.
		if n := 2 * float64(len(nodes)) * float64(maxApps); n > maxSynthJobs {
			return Resolved{}, fmt.Errorf("serve: max_apps %d on %d nodes sizes the default rate at about %.3g arrivals, more than %d",
				maxApps, len(nodes), n, maxSynthJobs)
		}
	default:
		// Negated so NaN is refused too.
		if n := sp.Rate * horizon; !(n <= maxSynthJobs) {
			return Resolved{}, fmt.Errorf("serve: rate %g expects about %.3g arrivals over %g s, more than %d",
				sp.Rate, n, horizon, maxSynthJobs)
		}
	}

	shapeKind := sp.Shape
	if shapeKind == "" {
		shapeKind = "diurnal"
	}
	amp := sp.Amp
	if amp == 0 {
		amp = 0.25
	}
	peak := sp.Peak
	if peak == 0 {
		peak = 1.6
	}
	ls, err := shapeFor(shapeKind, amp, sp.PeriodSec, peak, horizon, tr)
	if err != nil {
		return Resolved{}, err
	}

	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	load := sp.Load
	if load == 0 {
		load = 0.65
	}
	scale := sp.TimeScale
	if scale == 0 {
		scale = 1
	}
	cfg := sched.Config{
		Seed:       seed,
		Nodes:      nodes,
		Horizon:    sim.Duration(horizon * float64(sim.Second)),
		Epoch:      sim.Duration(epoch * float64(sim.Second)),
		JobsPerSec: sp.Rate,
		BaseLoad:   load,
		Shape:      ls,
		TimeScale:  scale,
		Shards:     sp.Shards,
		JobNames:   sp.Jobs,
	}
	if tr != nil {
		cfg.Trace = tr
		cfg.JobsPerSec = 0
	}
	if sp.SubmitOnly {
		// Submission-only sessions silence the synthetic stream: the one
		// scheduled arrival lands far past any horizon, and every job enters
		// through Runner.Inject.
		cfg.Arrivals = silentArrivals{}
	}

	auto := sp.Autoscale
	if auto == "" {
		auto = "none"
	}
	if sp.Energy || auto != "none" {
		model := energy.ModelFor(platform.TablePlatform())
		cfg.Energy = &model
	}
	switch auto {
	case "none":
	case "consolidate":
		cfg.Autoscaler = autoscale.Consolidate{}
	case "approx-for-watts":
		cfg.Autoscaler = autoscale.ApproxForWatts{}
	case "degrade-under-loss":
		cfg.Autoscaler = fault.DegradeUnderLoss{}
	default:
		return Resolved{}, fmt.Errorf("unknown autoscaler %q (none, consolidate, approx-for-watts, degrade-under-loss)", auto)
	}

	plan, err := sp.faultPlan(tr, horizon)
	if err != nil {
		return Resolved{}, err
	}
	if plan != nil {
		// Negated so NaN is refused too.
		if n := faultEvents(plan, len(nodes), horizon); !(n <= maxFaultEvents) {
			return Resolved{}, fmt.Errorf("serve: the fault plan (mttf_sec %g, mttr_sec %g, %d outages) expects about %.3g events over %d nodes and %g s, more than %d",
				plan.MTTFSec, plan.MTTRSec, len(plan.Outages), n, len(nodes), horizon, maxFaultEvents)
		}
	}
	cfg.Faults = plan

	polNames := sp.Policies
	if len(polNames) == 0 {
		polNames = []string{"telemetry"}
	}
	policies, err := policiesFor(polNames)
	if err != nil {
		return Resolved{}, err
	}

	qcap := sp.QueueCap
	if qcap == 0 {
		qcap = DefaultQueueCap
	}
	if qcap < 1 {
		return Resolved{}, fmt.Errorf("serve: queue_cap must be positive (got %d)", qcap)
	}

	if sp.PaceMS < 0 {
		return Resolved{}, fmt.Errorf("serve: pace_ms must be non-negative (got %d)", sp.PaceMS)
	}
	return Resolved{
		Name:     sp.Name,
		Cfg:      cfg,
		Policies: policies,
		Trace:    tr,
		QueueCap: qcap,
		PaceMS:   sp.PaceMS,
	}, nil
}

// DefaultQueueCap bounds a session's ingest queue when the spec doesn't.
const DefaultQueueCap = 64

// silentArrivals is the never-firing job stream of submission-only sessions.
type silentArrivals struct{}

func (silentArrivals) Next(*sim.RNG, sim.Time) sim.Duration { return sim.Duration(1) << 62 }
func (silentArrivals) Rate() float64                        { return 0 }

// nodesFor expands service names into named cluster nodes, cache-N / web-N /
// db-N per service class.
func nodesFor(names []string, maxApps int) ([]cluster.Node, error) {
	counts := map[string]int{}
	var nodes []cluster.Node
	for _, name := range names {
		var cls service.Class
		var prefix string
		switch name {
		case "nginx":
			cls, prefix = service.NGINX, "web"
		case "memcached":
			cls, prefix = service.Memcached, "cache"
		case "mongodb":
			cls, prefix = service.MongoDB, "db"
		default:
			return nil, fmt.Errorf("unknown service %q (nginx, memcached, mongodb)", name)
		}
		counts[prefix]++
		nodes = append(nodes, cluster.Node{
			Name:    fmt.Sprintf("%s-%d", prefix, counts[prefix]),
			Service: cls,
			MaxApps: maxApps,
		})
	}
	return nodes, nil
}

// shapeFor builds the service-load shape of the given kind.
func shapeFor(kind string, amp, periodSec, peak, horizonSec float64, tr *trace.Trace) (workload.Shape, error) {
	switch kind {
	case "steady":
		return workload.Steady{}, nil
	case "diurnal":
		if periodSec == 0 {
			periodSec = horizonSec // one "day" compressed into the horizon
		}
		return workload.NewDiurnal(amp, periodSec)
	case "flash":
		return workload.NewFlash(1, peak, horizonSec/3, horizonSec/6)
	case "trace":
		// The services ride the replayed trace's own rate curve.
		if tr == nil {
			return nil, fmt.Errorf("shape trace needs a trace")
		}
		times, mult, err := tr.RateShape(12)
		if err != nil {
			return nil, err
		}
		return workload.NewReplay(times, mult)
	default:
		return nil, fmt.Errorf("unknown shape %q (steady, diurnal, flash, trace)", kind)
	}
}

// policiesFor resolves policy names, with "all" expanding to the full set.
// Duplicates are rejected: a shadow session's verdicts are keyed by policy
// name.
func policiesFor(names []string) ([]sched.Policy, error) {
	var out []sched.Policy
	seen := map[string]bool{}
	add := func(p sched.Policy) error {
		if seen[p.Name()] {
			return fmt.Errorf("duplicate policy %q", p.Name())
		}
		seen[p.Name()] = true
		out = append(out, p)
		return nil
	}
	for _, name := range names {
		switch name {
		case "first-fit":
			if err := add(sched.FirstFit{}); err != nil {
				return nil, err
			}
		case "best-fit":
			if err := add(sched.BestFit{}); err != nil {
				return nil, err
			}
		case "spread":
			if err := add(sched.Spread{}); err != nil {
				return nil, err
			}
		case "telemetry":
			if err := add(sched.TelemetryAware{}); err != nil {
				return nil, err
			}
		case "all":
			for _, p := range []sched.Policy{sched.FirstFit{}, sched.BestFit{}, sched.Spread{}, sched.TelemetryAware{}} {
				if err := add(p); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("unknown policy %q (first-fit, best-fit, spread, telemetry, all)", name)
		}
	}
	return out, nil
}

// faultPlan assembles the spec's fault plan over the replayed trace tr (nil
// without one): nil when no fault knob was touched, a trace-derived
// MTTF/MTTR base for trace faults, with the explicit knobs layered on top
// either way.
func (sp Spec) faultPlan(tr *trace.Trace, horizonSec float64) (*fault.Plan, error) {
	var plan fault.Plan
	armed := false
	if sp.MTTFSec < 0 || sp.MTTRSec < 0 {
		return nil, fmt.Errorf("mttf/mttr must be non-negative virtual seconds (0 = off/default)")
	}
	if sp.TraceFaults {
		if tr == nil {
			return nil, fmt.Errorf("trace faults need a trace")
		}
		derived, err := fault.FromTrace(tr, horizonSec)
		if err != nil {
			return nil, err
		}
		plan = derived
		armed = true
	}
	if sp.MTTFSec > 0 {
		plan.MTTFSec = sp.MTTFSec
		armed = true
	}
	if sp.MTTRSec > 0 {
		plan.MTTRSec = sp.MTTRSec
	}
	if sp.FaultDomain > 0 {
		plan.DomainSize = sp.FaultDomain
	}
	if sp.Retries != 0 {
		plan.RetryBudget = sp.Retries
	}
	if len(sp.Outages) > 0 {
		plan.Outages = make([]fault.Outage, len(sp.Outages))
		for i, o := range sp.Outages {
			plan.Outages[i] = fault.Outage{AtSec: o.AtSec, Domain: o.Domain, DurationSec: o.DurationSec}
		}
		armed = true
	}
	if !armed {
		return nil, nil
	}
	return &plan, nil
}

// maxFaultEvents caps the expected length of a session's fault schedule,
// which NewRunner compiles whole before the first window at 32 bytes per
// fault.Event. At maxSpecBytes/32 the schedule holds no more bytes than the
// largest spec body, so a few JSON numbers cannot make a session hold more
// than an upload could. The storm benchmark's plan (256 nodes, 120 s, MTTF
// 300 s) expects about 200 events, and an hourly MTTF on maxNodes nodes
// over a day about 200,000.
const maxFaultEvents = maxSpecBytes / 32

// faultEvents bounds the expected length of plan's compiled schedule on
// nodes over horizonSec from above. Each node's crash/recover cycle yields
// two events and lasts MTTF plus a repair that Compile floors at 1 s (an
// unset MTTR counts as that floor), and each outage crashes and recovers
// every node of its domain.
func faultEvents(plan *fault.Plan, nodes int, horizonSec float64) float64 {
	n := 0.0
	if plan.MTTFSec > 0 {
		n = 2 * float64(nodes) * horizonSec / (plan.MTTFSec + max(plan.MTTRSec, 1))
	}
	for _, o := range plan.Outages {
		lo, hi := plan.DomainNodes(o.Domain, nodes)
		n += 2 * float64(hi-lo)
	}
	return n
}

// maxSynthJobs caps TraceSpec.Synthesize.Jobs at the largest trace an inline
// CSV upload can carry (maxSpecBytes at about 150 bytes per job), so a
// synthesize config cannot make a session build more than an upload could.
// Resolve caps the synthetic job stream's expected arrivals (rate × horizon,
// or the 2 × slots the default rate is sized for) at the same figure, for
// the same reason: every arrival is a job the session keeps, so a few JSON
// numbers must not admit more jobs than an upload could bring in.
const maxSynthJobs = 200_000

// load parses and normalizes the trace spec for replay over the horizon,
// mirroring the CLI's loadTrace.
func (ts *TraceSpec) load(horizonSec float64, slots int) (*trace.Trace, error) {
	format := ts.Format
	if format == "" {
		format = "google"
	}
	f, err := trace.FormatByName(format)
	if err != nil {
		return nil, err
	}
	var raw io.Reader
	switch {
	case ts.Synthesize != nil && ts.CSV != "":
		return nil, fmt.Errorf("serve: trace csv and synthesize are mutually exclusive")
	case ts.Synthesize != nil:
		if ts.Synthesize.Jobs > maxSynthJobs {
			return nil, fmt.Errorf("serve: trace synthesize jobs %d exceeds the cap of %d", ts.Synthesize.Jobs, maxSynthJobs)
		}
		raw = bytes.NewReader(trace.Synthesize(trace.SynthConfig{
			Format:      f,
			Jobs:        ts.Synthesize.Jobs,
			SpanSec:     ts.Synthesize.SpanSec,
			Seed:        ts.Synthesize.Seed,
			Orphans:     ts.Synthesize.Orphans,
			FailureFrac: ts.Synthesize.FailureFrac,
		}))
	case ts.CSV != "":
		raw = strings.NewReader(ts.CSV)
	default:
		return nil, fmt.Errorf("serve: trace needs csv text or a synthesize config")
	}
	tr, err := trace.Parse(raw, f)
	if err != nil {
		return nil, err
	}
	opts := trace.Options{RateScale: ts.RateScale}
	if ts.RateScale == 0 {
		opts.TargetSpanSec = 0.9 * horizonSec
	}
	if ts.MaxJobs > 0 {
		opts.MaxJobs = ts.MaxJobs
	} else {
		opts.MaxJobs = 2 * slots
	}
	return tr.Normalize(opts)
}
