// Package colocate assembles and runs colocation scenarios: one interactive
// service sharing a server with one or more approximate applications under a
// chosen runtime policy. It mirrors the paper's testbed orchestration
// (Sec. 5): tenants start from a fair core allocation on one socket, the
// service is driven by an open-loop client at a fraction of its measured
// saturation, the performance monitor reports tail latency every decision
// interval, and the runtime policy actuates approximation degrees (through
// the dynamic-instrumentation substrate) and core reallocations.
package colocate

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/client"
	"github.com/approx-sched/pliant/internal/core"
	"github.com/approx-sched/pliant/internal/dse"
	"github.com/approx-sched/pliant/internal/dyninst"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/interference"
	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
	"github.com/approx-sched/pliant/internal/workload"
)

// RuntimeKind selects the runtime policy managing the colocation.
type RuntimeKind int

// The built-in runtimes.
const (
	// Pliant is the paper's runtime (Fig. 3 + round-robin arbiter).
	Pliant RuntimeKind = iota
	// Precise is the baseline: fair static allocation, no approximation.
	Precise
	// StaticApprox pins every app to its most approximate variant.
	StaticApprox
	// ImpactAware is the Sec. 6.5 future-work arbiter.
	ImpactAware
	// Learner is the Sec. 6.5 online-learning extension: variant impacts
	// are unknown a priori and learned from monitor feedback.
	Learner
)

// String names the runtime.
func (r RuntimeKind) String() string {
	switch r {
	case Pliant:
		return "pliant"
	case Precise:
		return "precise"
	case StaticApprox:
		return "static-approx"
	case ImpactAware:
		return "impact-aware"
	case Learner:
		return "learner"
	default:
		return fmt.Sprintf("runtime(%d)", int(r))
	}
}

// Config describes one scenario.
type Config struct {
	// Seed drives all pseudo-randomness; equal seeds reproduce runs
	// bit-for-bit.
	Seed uint64

	// Platform is the server model (defaults to platform.TablePlatform).
	Platform platform.Spec

	// Service selects the interactive service preset.
	Service service.Class

	// LoadFraction is the offered load as a fraction of the service's
	// saturation throughput at its fair-share core count (paper: 0.75–0.80
	// unless sweeping).
	LoadFraction float64

	// LoadShape, when set, makes the offered load time-varying: the
	// instantaneous load is LoadFraction times the shape's multiplier at the
	// current scenario time. Nil means steady load, as in the paper's runs.
	LoadShape workload.Shape

	// AppNames are names of the colocated approximate applications,
	// resolved against CustomApps first and then the built-in catalog.
	// Names may repeat: each entry is an independent instance.
	AppNames []string

	// AppWorkScale, when non-nil, scales each application's total work
	// (NominalExecSec) by the matching factor; it must be the same length as
	// AppNames. An online scheduler resuming a half-finished job hands the
	// episode a factor of 0.5 so the instance carries exactly the remaining
	// work. Nil means every app runs its full nominal work.
	AppWorkScale []float64

	// CustomApps are user-provided application profiles (e.g. parsed from
	// ACCEPT-style hint files) that AppNames may refer to.
	CustomApps []app.Profile

	// Runtime picks the controller policy; Policy overrides it when set.
	Runtime RuntimeKind
	Policy  core.Policy

	// FixedVariants, when non-nil, disables the controller and pins each
	// app to the given variant index for the whole run (used by the Fig. 1
	// per-variant impact study). Missing apps run precise.
	FixedVariants map[string]int

	// DecisionInterval is the controller period (paper default: 1 s).
	DecisionInterval sim.Duration

	// SlackThreshold is the revert threshold (paper default: 10%).
	SlackThreshold float64

	// TimeScale multiplies the service's request timescale (demand, QoS,
	// backlog) so the fast test profile simulates proportionally fewer
	// requests at identical utilization; 1 = paper scale.
	TimeScale float64

	// MaxDuration bounds the run; 0 means run until every app finishes
	// (plus a small grace period), capped at a safety horizon.
	MaxDuration sim.Duration

	// MinAppCores is the per-app core floor for reclamation (default 1).
	MinAppCores int

	// InstrumentApps applies the dynamic-instrumentation overhead even when
	// the policy never switches variants. The precise baseline runs
	// uninstrumented, as in the paper.
	InstrumentApps bool

	// EnergyModel, when set, attaches a power model to the node: every
	// decision-interval report carries that interval's utilization, watts,
	// and joules (monitor.Report.Util/Watts/Joules), the trace gains a
	// "watts" series, and the result totals energy. Nil (the default) keeps
	// all energy accounting off and results byte-identical to prior versions.
	EnergyModel *energy.Model

	// FreqGHz runs the node in a fixed frequency state below nominal: both
	// the service and the apps slow by nominal/FreqGHz (through the same
	// slowdown path contention uses) while the power curve draws
	// proportionally less. 0 means the model's nominal frequency. Requires
	// EnergyModel.
	FreqGHz float64

	// OnReport, when set, observes every decision-interval monitor report —
	// the mid-run telemetry feed a cluster scheduler consumes (Sec. 6.4). It
	// fires after the runtime policy has actuated and must not mutate the
	// scenario.
	OnReport func(monitor.Report)

	// Scratch, when set, supplies reusable episode state (engine arenas,
	// histograms, the result trace, queue and contention buffers) owned by
	// the caller's worker. Results are identical with or without it; it only
	// removes per-episode allocations. Must not be shared by concurrent runs.
	//
	// Aliasing: with a Scratch, Result.Trace is the Scratch's own trace. It
	// stays valid until the next episode run on the same Scratch, which
	// resets and refills it; copy what must outlive that.
	Scratch *Scratch
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Platform.CoresPerSocket == 0 {
		c.Platform = platform.TablePlatform()
	}
	if c.LoadFraction == 0 {
		c.LoadFraction = 0.78
	}
	if c.DecisionInterval == 0 {
		c.DecisionInterval = sim.Second
	}
	if c.SlackThreshold == 0 {
		c.SlackThreshold = 0.10
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.MinAppCores == 0 {
		c.MinAppCores = 1
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	switch {
	case len(c.AppNames) == 0:
		return fmt.Errorf("colocate: no approximate applications")
	case c.LoadFraction <= 0 || c.LoadFraction > 1.5:
		return fmt.Errorf("colocate: load fraction %v outside (0, 1.5]", c.LoadFraction)
	case c.TimeScale <= 0:
		return fmt.Errorf("colocate: time scale must be positive")
	case c.DecisionInterval < 10*sim.Millisecond:
		return fmt.Errorf("colocate: decision interval %v too small", c.DecisionInterval)
	case c.AppWorkScale != nil && len(c.AppWorkScale) != len(c.AppNames):
		return fmt.Errorf("colocate: work scale covers %d of %d apps", len(c.AppWorkScale), len(c.AppNames))
	}
	for i, f := range c.AppWorkScale {
		if f <= 0 || f > 1 {
			return fmt.Errorf("colocate: work scale %v for app %d outside (0, 1]", f, i)
		}
	}
	if c.EnergyModel != nil {
		if err := c.EnergyModel.Validate(); err != nil {
			return err
		}
		if nominal := c.EnergyModel.FreqAt(c.EnergyModel.Nominal()); c.FreqGHz != 0 &&
			(c.FreqGHz < 0 || c.FreqGHz > nominal) {
			// Above-nominal frequencies would extrapolate the power curve and
			// speed the node beyond the calibrated timing model.
			return fmt.Errorf("colocate: frequency %v outside (0, nominal %v]", c.FreqGHz, nominal)
		}
	} else if c.FreqGHz != 0 {
		return fmt.Errorf("colocate: FreqGHz needs an EnergyModel")
	}
	return c.Platform.Validate()
}

// AppResult summarizes one application after the run.
type AppResult struct {
	Name     string
	Done     bool
	ExecTime sim.Duration
	// RelNominal normalizes execution time to the isolated precise run on
	// the 8-core reference share; RelFairShare normalizes to the isolated
	// precise run on the cores this scenario's fair split actually granted
	// (they coincide for single-app colocations). The paper's
	// execution-time metrics correspond to RelFairShare.
	RelNominal   float64
	RelFairShare float64
	// Progress is the fraction of this run's work completed, in [0,1] —
	// relative to the (possibly AppWorkScale-reduced) work the instance was
	// given, which is what a resuming scheduler needs.
	Progress    float64
	Inaccuracy  float64 // percent
	FinalCores  int
	MaxYielded  int
	VariantMax  int // most approximate variant index available
	Switches    uint64
	DynOverhead float64
}

// Result is the outcome of one scenario run.
type Result struct {
	Service         string
	Runtime         string
	QoS             sim.Duration
	OverallP99      sim.Duration // whole-run p99, adaptation transients included
	TypicalP99      sim.Duration // median of per-interval p99s (steady-state reading)
	MaxIntervalP99  sim.Duration
	MeanIntervalP99 sim.Duration
	ViolationFrac   float64 // fraction of decision intervals in violation
	Intervals       int
	Duration        sim.Duration
	Served          uint64
	Dropped         uint64
	Apps            []AppResult

	// Joules, MeanWatts, and MeanUtil summarize node energy when the
	// scenario carried an EnergyModel (all zero otherwise): total energy,
	// mean power draw over the run, and mean socket utilization across
	// decision intervals.
	Joules    float64
	MeanWatts float64
	MeanUtil  float64

	// Trace carries the per-interval series for the dynamic-behavior
	// figures: "p99" (in QoS multiples), "svc.cores", and per app
	// "variant.<name>" and "yielded.<name>". A run on a Config.Scratch
	// returns the Scratch's trace, recycled by its next episode.
	Trace *stats.Trace
}

// P99OverQoS returns the whole-run p99 as a multiple of QoS.
func (r Result) P99OverQoS() float64 {
	return float64(r.OverallP99) / float64(r.QoS)
}

// TypicalOverQoS returns the steady-state (median-interval) p99 as a
// multiple of QoS — the reading the paper's aggregate bars reflect, robust
// to the adaptation transients visible in its dynamic-behavior figures.
func (r Result) TypicalOverQoS() float64 {
	return float64(r.TypicalP99) / float64(r.QoS)
}

// MeetsQoS reports whether the steady-state p99 met the target.
func (r Result) MeetsQoS() bool { return r.TypicalP99 <= r.QoS }

// safetyHorizon bounds runs that would otherwise never terminate.
const safetyHorizon = 600 * sim.Second

// Run executes the scenario and returns its result.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	return s.run()
}

// resolveApp finds an application profile by name: user-provided profiles
// shadow the built-in catalog.
func resolveApp(cfg Config, name string) (app.Profile, error) {
	for _, p := range cfg.CustomApps {
		if p.Name == name {
			return p, nil
		}
	}
	return app.ByName(name)
}

// seriesKeys are one application's per-app trace series names.
type seriesKeys struct {
	variant, yielded string
}

// scenario holds the assembled simulation.
type scenario struct {
	cfg   Config
	eng   *sim.Engine
	rng   *sim.RNG
	alloc *platform.Allocation
	model *interference.Model

	// tenants are the allocation IDs: the service first, then app i at
	// index i+1. Built once in build, read by every contention refresh.
	svcTenant platform.TenantID
	tenants   []platform.TenantID
	svc       *service.Instance
	gen       *client.Generator
	mon       *monitor.Monitor
	policy    core.Policy

	apps      []*dyninst.Process
	appNames  []string
	keys      []seriesKeys // per-app trace series names, made once in build
	initCores []int
	yielded   []int
	maxYield  []int
	histogram *stats.Histogram // whole-run latency
	trace     *stats.Trace

	// Buffers reused across contention refreshes and policy reports:
	// demands[0] and slow[0] are the service's, entry i+1 app i's.
	demands []interference.Demand
	slow    []float64
	views   []core.AppView

	intervals    int
	violations   int
	maxP99       sim.Duration
	sumP99       float64
	intervalP99s []float64
	runningApps  int

	// Energy accounting (active only when cfg.EnergyModel is set): the
	// frequency the node runs at, the execution-time multiplier it implies,
	// the per-run accumulator, and the last interval's power draw (used to
	// close the final partial interval).
	svcCfg    service.Config
	freqGHz   float64
	freqSlow  float64
	acc       energy.Accumulator
	lastWatts float64
	utilSum   float64

	// err is the first policy action that broke the core.Action contract;
	// it stops the run.
	err error
}

func build(cfg Config) (*scenario, error) {
	sc := cfg.Scratch
	s := &scenario{
		cfg:          cfg,
		rng:          sim.NewRNG(cfg.Seed),
		eng:          sc.engine(),
		histogram:    sc.latencyHist(),
		trace:        sc.resultTrace(),
		intervalP99s: sc.intervalBuf(),
	}
	s.demands, s.slow, s.views = sc.appBuffers(len(cfg.AppNames))

	var err error
	s.alloc, err = platform.NewAllocation(cfg.Platform)
	if err != nil {
		return nil, err
	}
	s.model, err = interference.New(cfg.Platform)
	if err != nil {
		return nil, err
	}

	// Fair initial allocation: the service and every app get equal shares.
	s.svcTenant = "svc"
	s.tenants = make([]platform.TenantID, 0, len(cfg.AppNames)+1)
	s.tenants = append(s.tenants, s.svcTenant)
	for i, name := range cfg.AppNames {
		s.tenants = append(s.tenants, platform.TenantID(fmt.Sprintf("app%d:%s", i, name)))
	}
	if err := s.alloc.FairShare(s.tenants...); err != nil {
		return nil, err
	}
	fairSvcCores := s.alloc.Cores(s.svcTenant)

	// Frequency state: lower states slow service and apps alike through the
	// same multiplicative path contention uses, and the power curve draws
	// proportionally less.
	s.freqSlow = 1
	if cfg.EnergyModel != nil {
		m := cfg.EnergyModel
		s.freqGHz = cfg.FreqGHz
		if s.freqGHz == 0 {
			s.freqGHz = m.FreqAt(m.Nominal())
		}
		s.freqSlow = m.FreqAt(m.Nominal()) / s.freqGHz
	}

	// Interactive service and its open-loop client.
	svcCfg := service.Preset(cfg.Service).Scaled(cfg.TimeScale)
	s.svcCfg = svcCfg
	s.svc, err = service.New(s.eng, s.rng.Split(1), svcCfg, fairSvcCores, s.observeLatency)
	if err != nil {
		return nil, err
	}
	sc.adoptQueue(s.svc)
	qps := svcCfg.SaturationQPS(fairSvcCores) * cfg.LoadFraction
	var arr workload.ArrivalProcess
	if cfg.LoadShape != nil {
		arr, err = workload.NewShapedPoisson(qps, cfg.LoadShape)
	} else {
		arr, err = workload.NewPoisson(qps)
	}
	if err != nil {
		return nil, err
	}
	s.gen, err = client.New(s.eng, s.rng.Split(2), s.svc, arr)
	if err != nil {
		return nil, err
	}

	// Approximate applications under the instrumentation substrate.
	n := len(cfg.AppNames)
	s.apps = make([]*dyninst.Process, 0, n)
	s.appNames = make([]string, 0, n)
	s.keys = make([]seriesKeys, 0, n)
	s.initCores = make([]int, 0, n)
	for i, name := range cfg.AppNames {
		prof, err := resolveApp(cfg, name)
		if err != nil {
			return nil, err
		}
		variants, err := dse.VariantTable(prof)
		if err != nil {
			return nil, err
		}
		if cfg.AppWorkScale != nil {
			// Resumed job: the instance carries only the remaining work. The
			// variant table is unaffected — effects are relative multipliers.
			prof.NominalExecSec *= cfg.AppWorkScale[i]
		}
		cores := s.alloc.Cores(s.tenantOf(i))
		inst, err := app.NewInstance(s.eng, s.rng.Split(uint64(10+i)), prof, variants, cores, s.appFinished)
		if err != nil {
			return nil, err
		}
		overhead := 0.0
		if s.instrumented() {
			overhead = inst.Profile().DynOverhead
		}
		proc, err := dyninst.Launch(s.eng, inst, overhead)
		if err != nil {
			return nil, err
		}
		s.apps = append(s.apps, proc)
		s.appNames = append(s.appNames, name)
		s.keys = append(s.keys, seriesKeys{variant: "variant." + name, yielded: "yielded." + name})
		s.initCores = append(s.initCores, cores)
	}
	s.yielded = make([]int, len(s.apps))
	s.maxYield = make([]int, len(s.apps))
	s.runningApps = len(s.apps)

	// Runtime policy.
	s.policy = cfg.Policy
	if s.policy == nil {
		switch cfg.Runtime {
		case Pliant:
			s.policy = core.NewPliantPolicy(s.rng.Split(3))
		case Precise:
			s.policy = core.PrecisePolicy{}
		case StaticApprox:
			s.policy = core.StaticApproxPolicy{}
		case ImpactAware:
			s.policy = core.NewImpactAwarePolicy()
		case Learner:
			s.policy = core.NewLearnerPolicy()
		default:
			return nil, fmt.Errorf("colocate: unknown runtime %v", cfg.Runtime)
		}
	}
	if cfg.FixedVariants != nil {
		s.policy = nil // pinned-variant mode: no controller
	}

	// Monitor on the service's QoS.
	monCfg := monitor.DefaultConfig(svcCfg.QoS)
	monCfg.Interval = cfg.DecisionInterval
	monCfg.Scratch = sc.monitorHist()
	s.mon, err = monitor.New(s.eng, monCfg, s.onReport)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// instrumented reports whether apps run under the instrumentation overhead:
// any runtime that may switch variants needs the substrate attached. The
// precise baseline runs uninstrumented unless explicitly requested.
func (s *scenario) instrumented() bool {
	if s.cfg.InstrumentApps {
		return true
	}
	if s.cfg.FixedVariants != nil {
		return true
	}
	return !(s.cfg.Policy == nil && s.cfg.Runtime == Precise)
}

func (s *scenario) observeLatency(d sim.Duration) {
	s.histogram.Record(float64(d))
	s.mon.Observe(d)
}

func (s *scenario) appFinished() {
	s.runningApps--
	s.refreshContention()
	if s.runningApps == 0 {
		// All applications done: the colocation study is over.
		s.eng.Stop()
	}
}

// tenantOf returns the allocation tenant ID for app index i.
func (s *scenario) tenantOf(i int) platform.TenantID { return s.tenants[i+1] }

// refreshContention recomputes the interference model from current demands
// and pushes slowdowns into the service and every app.
func (s *scenario) refreshContention() {
	now := s.eng.Now()
	s.demands = append(s.demands[:0], s.svc.Demand(s.svcTenant))
	for i, proc := range s.apps {
		s.demands = append(s.demands, proc.App().Demand(s.tenantOf(i), now))
	}
	s.model.EvaluateInto(s.demands, s.slow)
	s.svc.SetSlowdown(s.slow[0] * s.freqSlow)
	for i, proc := range s.apps {
		proc.App().SetSlowdown(s.slow[i+1] * s.freqSlow)
	}
}

// advanceApps brings every app model up to the current time.
func (s *scenario) advanceApps() {
	now := s.eng.Now()
	for _, proc := range s.apps {
		proc.App().Advance(now)
	}
}

// onReport is the decision-interval callback: record series, then let the
// policy actuate.
func (s *scenario) onReport(r monitor.Report) {
	s.advanceApps()
	s.intervals++
	if r.Violation {
		s.violations++
	}
	if r.P99 > s.maxP99 {
		s.maxP99 = r.P99
	}
	s.sumP99 += float64(r.P99)
	s.intervalP99s = append(s.intervalP99s, float64(r.P99))

	t := r.At.Seconds()
	s.trace.Series("p99").Append(t, float64(r.P99)/float64(r.QoS))
	s.trace.Series("svc.cores").Append(t, float64(s.svc.Cores()))
	for i, proc := range s.apps {
		s.trace.Series(s.keys[i].variant).Append(t, float64(proc.Variant()))
		s.trace.Series(s.keys[i].yielded).Append(t, float64(s.yielded[i]))
	}

	if s.policy == nil {
		s.emitReport(r)
		return
	}
	snapshot := core.Snapshot{
		Report:         r,
		Apps:           s.appViews(),
		ServiceCores:   s.svc.Cores(),
		MinAppCores:    s.cfg.MinAppCores,
		SlackThreshold: s.cfg.SlackThreshold,
	}
	for _, act := range s.policy.Decide(snapshot) {
		if err := s.apply(act); err != nil {
			s.err = fmt.Errorf("colocate: policy %s: %w", s.policy.Name(), err)
			s.eng.Stop()
			return
		}
	}
	s.refreshContention()
	s.emitReport(r)
}

// emitReport forwards the report to the external telemetry observer, if any,
// enriching it with the interval's energy figures when a model is attached.
func (s *scenario) emitReport(r monitor.Report) {
	if s.cfg.EnergyModel != nil {
		r = s.accountEnergy(r)
	}
	if s.cfg.OnReport != nil {
		s.cfg.OnReport(r)
	}
}

// accountEnergy folds one decision interval into the node's energy ledger:
// socket utilization from the apps' core occupancy plus the service's
// measured throughput against its frequency-adjusted capacity, watts from
// the power curve, joules integrated over virtual time. Pure arithmetic —
// the telemetry path stays allocation-free.
func (s *scenario) accountEnergy(r monitor.Report) monitor.Report {
	usable := s.cfg.Platform.UsableCores()
	if usable == 0 {
		return r
	}
	appCores := 0
	for _, proc := range s.apps {
		if !proc.App().Done() {
			appCores += proc.App().Cores()
		}
	}
	svcUtil := 0.0
	if sec := r.Interval.Seconds(); sec > 0 {
		capacity := s.svcCfg.SaturationQPS(s.svc.Cores()) / s.freqSlow
		if capacity > 0 {
			svcUtil = float64(r.Seen) / (capacity * sec)
			if svcUtil > 1 {
				svcUtil = 1
			}
		}
	}
	util := (float64(appCores) + svcUtil*float64(s.svc.Cores())) / float64(usable)
	watts := s.cfg.EnergyModel.Power(util, s.freqGHz)
	s.acc.Advance(r.At, watts)
	s.lastWatts = watts
	s.utilSum += util

	r.Util = util
	r.Watts = watts
	r.Joules = watts * r.Interval.Seconds()
	s.trace.Series("watts").Append(r.At.Seconds(), watts)
	return r
}

// appViews fills the reused view buffer with the policy's view of every app.
// The buffer is rewritten at every report (core.Snapshot.Apps documents the
// lending rule for policies).
func (s *scenario) appViews() []core.AppView {
	views := s.views
	for i, proc := range s.apps {
		a := proc.App()
		quality := 0.0
		if n := a.MostApproximate(); n > 0 {
			quality = a.Effect(n).Inaccuracy / float64(n)
		}
		views[i] = core.AppView{
			Name:            s.appNames[i],
			Variant:         a.Variant(),
			MostApproximate: a.MostApproximate(),
			Cores:           a.Cores(),
			YieldedCores:    s.yielded[i],
			Done:            a.Done(),
			QualityPerStep:  quality,
		}
	}
	return views
}

// apply actuates one policy action. An action outside the core.Action
// contract (an app not in the snapshot, a variant the app lacks, an unknown
// kind) is an error; a reclaim at the core floor, a return with nothing
// yielded and a switch on a finished app are quiet no-ops.
func (s *scenario) apply(act core.Action) error {
	if act.App < 0 || act.App >= len(s.apps) {
		return fmt.Errorf("%v names app %d, outside the colocation's %d apps", act, act.App, len(s.apps))
	}
	proc := s.apps[act.App]
	switch act.Kind {
	case core.SwitchVariant:
		if err := proc.SwitchTo(act.To); err != nil {
			return fmt.Errorf("%v on app %s: %w", act, s.appNames[act.App], err)
		}
	case core.ReclaimCore:
		tenant := s.tenantOf(act.App)
		if s.alloc.Cores(tenant) <= s.cfg.MinAppCores {
			return nil
		}
		if err := s.alloc.Move(tenant, s.svcTenant, 1); err != nil {
			return fmt.Errorf("%v: %w", act, err)
		}
		s.yielded[act.App]++
		if s.yielded[act.App] > s.maxYield[act.App] {
			s.maxYield[act.App] = s.yielded[act.App]
		}
		proc.App().SetCores(s.alloc.Cores(tenant))
		s.svc.SetCores(s.alloc.Cores(s.svcTenant))
	case core.ReturnCore:
		if s.yielded[act.App] == 0 {
			return nil
		}
		tenant := s.tenantOf(act.App)
		if err := s.alloc.Move(s.svcTenant, tenant, 1); err != nil {
			return fmt.Errorf("%v: %w", act, err)
		}
		s.yielded[act.App]--
		proc.App().SetCores(s.alloc.Cores(tenant))
		s.svc.SetCores(s.alloc.Cores(s.svcTenant))
	default:
		return fmt.Errorf("%v has an unknown kind", act)
	}
	return nil
}

// physicsPeriod is how often app progress and phase-dependent contention are
// re-evaluated between decisions.
const physicsPeriod = 200 * sim.Millisecond

func (s *scenario) run() (Result, error) {
	// Pin fixed variants after a trivial delay so the dyninst switch
	// latency is absorbed before measurement matters.
	if s.cfg.FixedVariants != nil {
		for i, proc := range s.apps {
			if v, ok := s.cfg.FixedVariants[s.appNames[i]]; ok {
				_ = proc.SwitchTo(v)
			}
		}
	}
	s.gen.Start()
	stopPhysics := s.eng.Ticker(physicsPeriod, func(sim.Time) {
		s.advanceApps()
		s.refreshContention()
	})
	defer stopPhysics()

	horizon := safetyHorizon
	if s.cfg.MaxDuration > 0 {
		horizon = s.cfg.MaxDuration
	}
	s.eng.Run(sim.Time(horizon))
	s.advanceApps()
	s.cfg.Scratch.keep(s.intervalP99s, s.svc)
	if s.err != nil {
		return Result{}, s.err
	}

	res := Result{
		Service:        service.Preset(s.cfg.Service).Name,
		Runtime:        s.runtimeName(),
		QoS:            service.Preset(s.cfg.Service).Scaled(s.cfg.TimeScale).QoS,
		OverallP99:     sim.Duration(s.histogram.P99()),
		MaxIntervalP99: s.maxP99,
		ViolationFrac:  0,
		Intervals:      s.intervals,
		Duration:       s.eng.Now().Sub(0),
		Served:         s.svc.Served(),
		Dropped:        s.svc.Dropped(),
		Trace:          s.trace,
	}
	if s.intervals > 0 {
		res.ViolationFrac = float64(s.violations) / float64(s.intervals)
		res.MeanIntervalP99 = sim.Duration(s.sumP99 / float64(s.intervals))
		med := stats.Quantiles(s.intervalP99s, 0.5)
		res.TypicalP99 = sim.Duration(med[0])
	}
	if s.cfg.EnergyModel != nil {
		// Close the final partial interval at the last observed draw.
		s.acc.Advance(s.eng.Now(), s.lastWatts)
		res.Joules = s.acc.Joules
		if sec := res.Duration.Seconds(); sec > 0 {
			res.MeanWatts = res.Joules / sec
		}
		if s.intervals > 0 {
			res.MeanUtil = s.utilSum / float64(s.intervals)
		}
	}
	res.Apps = make([]AppResult, 0, len(s.apps))
	for i, proc := range s.apps {
		a := proc.App()
		prof := a.Profile()
		res.Apps = append(res.Apps, AppResult{
			Name:         prof.Name,
			Done:         a.Done(),
			ExecTime:     a.ExecTime(),
			RelNominal:   a.RelativeExecTime(),
			RelFairShare: a.ExecTime().Seconds() / prof.ExecTimeOn(s.initCores[i]),
			Progress:     a.Progress(),
			Inaccuracy:   a.Inaccuracy(),
			FinalCores:   a.Cores(),
			MaxYielded:   s.maxYield[i],
			VariantMax:   a.MostApproximate(),
			Switches:     a.Switches(),
			DynOverhead:  prof.DynOverhead,
		})
	}
	return res, nil
}

func (s *scenario) runtimeName() string {
	if s.cfg.FixedVariants != nil {
		return "fixed-variant"
	}
	if s.policy != nil {
		return s.policy.Name()
	}
	return s.cfg.Runtime.String()
}
