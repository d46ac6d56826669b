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
	"slices"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/client"
	"github.com/approx-sched/pliant/internal/core"
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
	// per-variant impact study). Missing apps run precise. Every key must
	// name an app in AppNames and every index lie in [0, MostApproximate]
	// of that app's variant table; anything else is an error.
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

	// Scratch, when set, is the episode arena owned by the caller's worker:
	// the scenario and every component of it are re-initialised in place
	// on it (see Scratch). Results are identical with or without it; it only
	// removes per-episode allocations. Must not be shared by concurrent runs.
	//
	// Aliasing: with a Scratch, Result.Trace and Result.Apps are the
	// Scratch's own. They stay valid until the next episode run on the same
	// Scratch, which resets and refills them; copy what must outlive that.
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
	if c.FixedVariants != nil {
		// Sorted, so the error names the same key on every run.
		keys := make([]string, 0, len(c.FixedVariants))
		for name := range c.FixedVariants {
			keys = append(keys, name)
		}
		slices.Sort(keys)
		for _, name := range keys {
			if !slices.Contains(c.AppNames, name) {
				return fmt.Errorf("colocate: fixed variant for %q, which is not among the apps %v", name, c.AppNames)
			}
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
	// Apps has one row per Config.AppNames entry. A run on a Config.Scratch
	// returns the Scratch's rows, recycled by its next episode.
	Apps []AppResult

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

// seriesKeys are one application's per-app trace series names.
type seriesKeys struct {
	variant, yielded string
}

// appSlot is app i's share of the scenario: its RNG stream, application
// instance and instrumented process, re-initialised in place every episode,
// and its per-episode bookkeeping.
type appSlot struct {
	rng  sim.RNG
	inst app.Instance
	proc dyninst.Process

	data      *appData // the app's name, series keys and resolved profile
	initCores int
	yielded   int
	maxYield  int
}

// scenario holds the assembled simulation. Everything in it is either
// re-initialised in place by build or reset with the tally, so one scenario
// serves a whole stream of episodes (see Scratch).
type scenario struct {
	cfg    Config
	policy core.Policy

	eng   *sim.Engine
	rng   sim.RNG
	alloc platform.Allocation
	model interference.Model

	// tenants are the allocation IDs: the service first, then app i at
	// index i+1. Built in build, read by every contention refresh.
	svcTenant platform.TenantID
	tenants   []platform.TenantID

	// svcCfg is the service preset at the episode's time scale, taken from
	// presets, which keeps each (class, time scale) the scenario has run,
	// so a stream of episodes mixing services builds each preset once.
	svcCfg    service.Config
	presets   []svcPreset
	svcRNG    sim.RNG
	svc       service.Instance
	genRNG    sim.RNG
	gen       client.Generator
	poisson   workload.Poisson
	shaped    workload.ShapedPoisson
	mon       monitor.Monitor
	physics   sim.Ticker
	policyRNG sim.RNG
	ctl       core.Controller // the built-in runtimes' controller

	slots     []appSlot
	histogram *stats.Histogram // whole-run latency
	trace     *stats.Trace

	// Buffers reused across contention refreshes and policy reports:
	// demands[0] and slow[0] are the service's, entry i+1 app i's.
	demands      []interference.Demand
	slow         []float64
	views        []core.AppView
	intervalP99s []float64
	appResults   []AppResult

	// The scenario's callbacks, bound once per scenario so that restarting
	// an episode in place allocates no method values.
	observeFn func(sim.Duration)
	finishFn  func()
	reportFn  func(monitor.Report)
	physicsFn func(sim.Time)

	tally
}

// svcPreset is a service preset at one time scale.
type svcPreset struct {
	class service.Class
	scale float64
	cfg   service.Config
}

// servicePreset returns service.Preset(class).Scaled(scale), building it
// on the scenario's first episode with that class and scale.
func (s *scenario) servicePreset(class service.Class, scale float64) service.Config {
	for _, p := range s.presets {
		if p.class == class && p.scale == scale {
			return p.cfg
		}
	}
	cfg := service.Preset(class).Scaled(scale)
	s.presets = append(s.presets, svcPreset{class, scale, cfg})
	return cfg
}

// tally is the per-episode state that starts from zero: build resets it
// whole.
type tally struct {
	intervals   int
	violations  int
	maxP99      sim.Duration
	sumP99      float64
	runningApps int

	// Energy accounting (active only when cfg.EnergyModel is set): the
	// frequency the node runs at, the execution-time multiplier it implies,
	// the per-run accumulator, and the last interval's power draw (used to
	// close the final partial interval).
	freqGHz   float64
	freqSlow  float64
	acc       energy.Accumulator
	lastWatts float64
	utilSum   float64

	// err is the first policy action that broke the core.Action contract;
	// it stops the run.
	err error
}

// build assembles the scenario for cfg, in place on the Scratch's arena when
// cfg carries one.
func build(cfg Config) (*scenario, error) {
	s := cfg.Scratch.scenario()
	s.cfg = cfg
	s.tally = tally{}
	if s.observeFn == nil {
		s.observeFn = s.observeLatency
		s.finishFn = s.appFinished
		s.reportFn = s.onReport
		s.physicsFn = s.physicsTick
	}
	if s.eng == nil {
		s.eng = sim.NewEngine()
		s.histogram = stats.NewLatencyHistogram()
		s.trace = stats.NewTrace()
	} else {
		s.eng.Reset()
		s.histogram.Reset()
		s.trace.Reset()
	}
	s.rng.Reseed(cfg.Seed)
	s.intervalP99s = s.intervalP99s[:0]

	n := len(cfg.AppNames)
	if cap(s.slots) < n {
		s.slots = make([]appSlot, n)
		s.demands = make([]interference.Demand, 0, n+1)
		s.slow = make([]float64, n+1)
		s.views = make([]core.AppView, n)
	}
	s.slots = s.slots[:n]
	s.demands, s.slow, s.views = s.demands[:0], s.slow[:n+1], s.views[:n]

	if err := s.alloc.Init(cfg.Platform); err != nil {
		return nil, err
	}
	if err := s.model.Init(cfg.Platform, interference.DefaultKnee); err != nil {
		return nil, err
	}

	// Fair initial allocation: the service and every app get equal shares.
	s.svcTenant = "svc"
	s.tenants = append(s.tenants[:0], s.svcTenant)
	for i, name := range cfg.AppNames {
		sl := &s.slots[i]
		sl.data = cfg.Scratch.appData(name)
		s.tenants = append(s.tenants, sl.data.tenant(i))
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
	s.svcCfg = s.servicePreset(cfg.Service, cfg.TimeScale)
	s.rng.SplitInto(&s.svcRNG, 1)
	if err := s.svc.Init(s.eng, &s.svcRNG, s.svcCfg, fairSvcCores, s.observeFn); err != nil {
		return nil, err
	}
	qps := s.svcCfg.SaturationQPS(fairSvcCores) * cfg.LoadFraction
	var arr workload.ArrivalProcess
	var err error
	if cfg.LoadShape != nil {
		s.shaped, err = workload.NewShapedPoisson(qps, cfg.LoadShape)
		arr = &s.shaped
	} else {
		s.poisson, err = workload.NewPoisson(qps)
		arr = &s.poisson
	}
	if err != nil {
		return nil, err
	}
	s.rng.SplitInto(&s.genRNG, 2)
	if err := s.gen.Init(s.eng, &s.genRNG, &s.svc, arr); err != nil {
		return nil, err
	}

	// Approximate applications under the instrumentation substrate.
	for i := range s.slots {
		sl := &s.slots[i]
		prof, variants, err := sl.data.resolve(cfg)
		if err != nil {
			return nil, err
		}
		if cfg.AppWorkScale != nil {
			// Resumed job: the instance carries only the remaining work. The
			// variant table is unaffected — effects are relative multipliers.
			prof.NominalExecSec *= cfg.AppWorkScale[i]
		}
		cores := s.alloc.Cores(s.tenantOf(i))
		s.rng.SplitInto(&sl.rng, uint64(10+i))
		if err := sl.inst.Init(s.eng, &sl.rng, prof, variants, cores, s.finishFn); err != nil {
			return nil, err
		}
		if v, ok := cfg.FixedVariants[sl.data.name]; ok && (v < 0 || v > sl.inst.MostApproximate()) {
			return nil, fmt.Errorf("colocate: fixed variant %d for %s outside [0, %d]", v, sl.data.name, sl.inst.MostApproximate())
		}
		overhead := 0.0
		if s.instrumented() {
			overhead = prof.DynOverhead
		}
		if err := sl.proc.Init(s.eng, &sl.inst, overhead); err != nil {
			return nil, err
		}
		sl.initCores = cores
		sl.yielded, sl.maxYield = 0, 0
	}
	s.runningApps = n

	// Runtime policy.
	s.policy = cfg.Policy
	if s.policy == nil {
		switch cfg.Runtime {
		case Pliant:
			s.rng.SplitInto(&s.policyRNG, 3)
			s.ctl.Init(core.RoundRobin, &s.policyRNG)
			s.policy = &s.ctl
		case Precise:
			s.policy = core.PrecisePolicy{}
		case StaticApprox:
			s.policy = core.StaticApproxPolicy{}
		case ImpactAware:
			s.ctl.Init(core.ImpactAware, nil)
			s.policy = &s.ctl
		case Learner:
			s.ctl.Init(core.Learner, nil)
			s.policy = &s.ctl
		default:
			return nil, fmt.Errorf("colocate: unknown runtime %v", cfg.Runtime)
		}
	}
	if cfg.FixedVariants != nil {
		s.policy = nil // pinned-variant mode: no controller
	}

	// Monitor on the service's QoS.
	monCfg := monitor.DefaultConfig(s.svcCfg.QoS)
	monCfg.Interval = cfg.DecisionInterval
	if err := s.mon.Init(s.eng, monCfg, s.reportFn); err != nil {
		return nil, err
	}
	return s, nil
}

// instrumented reports whether apps run under the instrumentation overhead:
// any runtime that may switch variants needs the substrate attached. The
// precise baseline runs uninstrumented, as in the paper.
func (s *scenario) instrumented() bool {
	if s.cfg.FixedVariants != nil {
		return true
	}
	return !(s.cfg.Policy == nil && s.cfg.Runtime == Precise)
}

func (s *scenario) observeLatency(d sim.Duration) {
	s.histogram.Record(float64(d))
	s.mon.Observe(d)
}

// physicsTick re-evaluates app progress and phase-dependent contention
// between decisions.
func (s *scenario) physicsTick(sim.Time) {
	s.advanceApps()
	s.refreshContention()
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
	for i := range s.slots {
		s.demands = append(s.demands, s.slots[i].inst.Demand(s.tenantOf(i), now))
	}
	s.model.EvaluateInto(s.demands, s.slow)
	s.svc.SetSlowdown(s.slow[0] * s.freqSlow)
	for i := range s.slots {
		s.slots[i].inst.SetSlowdown(s.slow[i+1] * s.freqSlow)
	}
}

// advanceApps brings every app model up to the current time.
func (s *scenario) advanceApps() {
	now := s.eng.Now()
	for i := range s.slots {
		s.slots[i].inst.Advance(now)
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
	for i := range s.slots {
		sl := &s.slots[i]
		s.trace.Series(sl.data.keys.variant).Append(t, float64(sl.proc.Variant()))
		s.trace.Series(sl.data.keys.yielded).Append(t, float64(sl.yielded))
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
	for i := range s.slots {
		if a := &s.slots[i].inst; !a.Done() {
			appCores += a.Cores()
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
	for i := range s.slots {
		sl := &s.slots[i]
		a := &sl.inst
		quality := 0.0
		if n := a.MostApproximate(); n > 0 {
			quality = a.Effect(n).Inaccuracy / float64(n)
		}
		views[i] = core.AppView{
			Name:            sl.data.name,
			Variant:         a.Variant(),
			MostApproximate: a.MostApproximate(),
			Cores:           a.Cores(),
			YieldedCores:    sl.yielded,
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
	if act.App < 0 || act.App >= len(s.slots) {
		return fmt.Errorf("%v names app %d, outside the colocation's %d apps", act, act.App, len(s.slots))
	}
	sl := &s.slots[act.App]
	switch act.Kind {
	case core.SwitchVariant:
		if err := sl.proc.SwitchTo(act.To); err != nil {
			return fmt.Errorf("%v on app %s: %w", act, sl.data.name, err)
		}
	case core.ReclaimCore:
		tenant := s.tenantOf(act.App)
		if s.alloc.Cores(tenant) <= s.cfg.MinAppCores {
			return nil
		}
		if err := s.alloc.Move(tenant, s.svcTenant, 1); err != nil {
			return fmt.Errorf("%v: %w", act, err)
		}
		sl.yielded++
		if sl.yielded > sl.maxYield {
			sl.maxYield = sl.yielded
		}
		sl.inst.SetCores(s.alloc.Cores(tenant))
		s.svc.SetCores(s.alloc.Cores(s.svcTenant))
	case core.ReturnCore:
		if sl.yielded == 0 {
			return nil
		}
		tenant := s.tenantOf(act.App)
		if err := s.alloc.Move(s.svcTenant, tenant, 1); err != nil {
			return fmt.Errorf("%v: %w", act, err)
		}
		sl.yielded--
		sl.inst.SetCores(s.alloc.Cores(tenant))
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
		for i := range s.slots {
			sl := &s.slots[i]
			if v, ok := s.cfg.FixedVariants[sl.data.name]; ok {
				if err := sl.proc.SwitchTo(v); err != nil {
					return Result{}, fmt.Errorf("colocate: pinning %s: %w", sl.data.name, err)
				}
			}
		}
	}
	s.gen.Start()
	s.physics.Start(s.eng, physicsPeriod, s.physicsFn)
	defer s.physics.Stop()

	horizon := safetyHorizon
	if s.cfg.MaxDuration > 0 {
		horizon = s.cfg.MaxDuration
	}
	s.eng.Run(sim.Time(horizon))
	s.advanceApps()
	if s.err != nil {
		return Result{}, s.err
	}

	res := Result{
		Service:        s.svcCfg.Name,
		Runtime:        s.runtimeName(),
		QoS:            s.svcCfg.QoS,
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
		// The buffer is not read again this episode, so it sorts in place.
		slices.Sort(s.intervalP99s)
		res.TypicalP99 = sim.Duration(stats.QuantileSorted(s.intervalP99s, 0.5))
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
	s.appResults = s.appResults[:0]
	for i := range s.slots {
		sl := &s.slots[i]
		a := &sl.inst
		prof := a.Profile()
		s.appResults = append(s.appResults, AppResult{
			Name:         prof.Name,
			Done:         a.Done(),
			ExecTime:     a.ExecTime(),
			RelNominal:   a.RelativeExecTime(),
			RelFairShare: a.ExecTime().Seconds() / prof.ExecTimeOn(sl.initCores),
			Progress:     a.Progress(),
			Inaccuracy:   a.Inaccuracy(),
			FinalCores:   a.Cores(),
			MaxYielded:   sl.maxYield,
			VariantMax:   a.MostApproximate(),
			Switches:     a.Switches(),
			DynOverhead:  prof.DynOverhead,
		})
	}
	res.Apps = s.appResults
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
