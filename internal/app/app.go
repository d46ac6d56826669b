// Package app models the approximate computing applications the paper
// co-schedules with interactive services: 24 workloads from PARSEC, SPLASH-2,
// MineBench, and BioPerf. Each application is described by a Profile — total
// work, parallel efficiency, phase-varying pressure on shared resources, and
// a set of approximable sites — and executed as an Instance that advances
// through its work inside the simulation, accumulating output-quality loss in
// proportion to how much of the execution ran at each approximation degree.
package app

import (
	"fmt"
	"math"

	"github.com/approx-sched/pliant/internal/approx"
	"github.com/approx-sched/pliant/internal/interference"
	"github.com/approx-sched/pliant/internal/sim"
)

// Suite identifies the benchmark suite an application comes from.
type Suite int

// The four benchmark suites of the paper (Sec. 5).
const (
	PARSEC Suite = iota
	SPLASH2
	MineBench
	BioPerf
)

// String names the suite.
func (s Suite) String() string {
	switch s {
	case PARSEC:
		return "PARSEC"
	case SPLASH2:
		return "SPLASH-2"
	case MineBench:
		return "MineBench"
	case BioPerf:
		return "BioPerf"
	default:
		return fmt.Sprintf("suite(%d)", int(s))
	}
}

// ReferenceCores is the core count execution times are normalized to: the
// fair share of the Table 1 socket between a service and one application.
const ReferenceCores = 8

// Profile statically describes one approximate application.
type Profile struct {
	Name  string
	Suite Suite

	// NominalExecSec is the isolated precise execution time on
	// ReferenceCores.
	NominalExecSec float64

	// ParallelExp captures scaling: speed(c) ∝ c^ParallelExp. 1.0 is
	// embarrassingly parallel; lower values model synchronization and
	// serial fractions.
	ParallelExp float64

	// LLCMB and BWPerCoreGBs are the precise-mode pressures on the shared
	// cache and memory bandwidth.
	LLCMB        float64
	BWPerCoreGBs float64

	// Sensitivity is how the application's own execution dilates under
	// shared-resource shortfall.
	Sensitivity interference.Sensitivity

	// Sites are the approximable locations found by ACCEPT hints or gprof
	// profiling (Sec. 3).
	Sites []approx.Site

	// AcceptHints records whether the ACCEPT framework supplied the sites
	// (true) or they came from gprof profiling of hot functions (false).
	AcceptHints bool

	// MaxVariants caps how many pareto-frontier variants the exploration
	// retains for this application (the paper keeps a small, per-app number
	// of representative points: canneal 4, raytrace 2, Bayesian 8, SNP 5).
	// Zero means no cap.
	MaxVariants int

	// DynOverhead is the execution-time overhead of running under the
	// dynamic instrumentation substrate (paper Sec. 6.2: 3.8% mean, 8.9%
	// worst case — water_spatial).
	DynOverhead float64

	// PhaseAmp and PhasePeriodSec describe deterministic execution phases:
	// resource pressure oscillates by ±PhaseAmp around nominal with the
	// given period, producing the transient contention bursts visible in
	// the paper's Fig. 4.
	PhaseAmp       float64
	PhasePeriodSec float64

	// QualityMetric describes what "inaccuracy" means for this app
	// (documentation only).
	QualityMetric string
}

// Validate reports structural problems in the profile.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("app: profile missing name")
	case p.NominalExecSec <= 0:
		return fmt.Errorf("app %s: nominal execution time must be positive", p.Name)
	case p.ParallelExp <= 0 || p.ParallelExp > 1:
		return fmt.Errorf("app %s: parallel exponent %v outside (0,1]", p.Name, p.ParallelExp)
	case p.LLCMB < 0 || p.BWPerCoreGBs < 0:
		return fmt.Errorf("app %s: negative resource pressure", p.Name)
	case len(p.Sites) == 0:
		return fmt.Errorf("app %s: no approximable sites", p.Name)
	case p.DynOverhead < 0 || p.DynOverhead > 0.2:
		return fmt.Errorf("app %s: implausible instrumentation overhead %v", p.Name, p.DynOverhead)
	case p.PhaseAmp < 0 || p.PhaseAmp >= 1:
		return fmt.Errorf("app %s: phase amplitude %v outside [0,1)", p.Name, p.PhaseAmp)
	case p.PhaseAmp > 0 && p.PhasePeriodSec <= 0:
		return fmt.Errorf("app %s: phase amplitude without period", p.Name)
	}
	for _, s := range p.Sites {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("app %s: %w", p.Name, err)
		}
	}
	return nil
}

// speed returns execution speed on c cores relative to ReferenceCores.
func (p Profile) speed(c int) float64 {
	if c < 1 {
		c = 1
	}
	return math.Pow(float64(c)/ReferenceCores, p.ParallelExp)
}

// ExecTimeOn returns the isolated precise execution time on c cores.
func (p Profile) ExecTimeOn(c int) float64 {
	return p.NominalExecSec / p.speed(c)
}

// Instance is a running approximate application inside a simulation.
type Instance struct {
	prof Profile
	eng  *sim.Engine
	rng  *sim.RNG

	// variants[0] is precise; higher indices are increasingly approximate.
	variants []approx.Effect

	cur      int
	cores    int
	speed    float64 // prof.speed(cores), kept with cores off the Advance path
	slowdown float64
	overhead float64 // 1 + instrumentation overhead, set when instrumented

	progress    float64 // fraction of logical output produced, 0..1
	inacc       float64 // accumulated quality loss, percent
	nondetWork  float64 // fraction of work executed under nondeterministic variants
	phaseShift  float64
	lastAdvance sim.Time
	started     sim.Time
	finished    bool
	finishedAt  sim.Time
	switches    uint64

	onFinish func()
}

// Init (re)initialises a in place as an application instance starting now,
// drawing its phase shift from rng. variants must begin with the precise
// effect (TimeScale 1, Inaccuracy 0); the remainder must be ordered from
// least to most approximate, as produced by the design-space exploration.
// On error a is unchanged and rng has not been drawn from.
func (a *Instance) Init(eng *sim.Engine, rng *sim.RNG, prof Profile, variants []approx.Effect, cores int, onFinish func()) error {
	if err := prof.Validate(); err != nil {
		return err
	}
	if len(variants) == 0 || variants[0] != approx.Precise() {
		return fmt.Errorf("app %s: variants must start with the precise effect", prof.Name)
	}
	for i := 1; i < len(variants); i++ {
		if variants[i].Inaccuracy < variants[i-1].Inaccuracy {
			return fmt.Errorf("app %s: variants not ordered by increasing inaccuracy", prof.Name)
		}
	}
	if cores < 1 {
		return fmt.Errorf("app %s: needs at least one core", prof.Name)
	}
	if onFinish == nil {
		onFinish = func() {}
	}
	*a = Instance{
		prof:        prof,
		eng:         eng,
		rng:         rng,
		variants:    variants,
		cores:       cores,
		speed:       prof.speed(cores),
		slowdown:    1.0,
		overhead:    1.0,
		phaseShift:  rng.Float64() * 2 * math.Pi,
		lastAdvance: eng.Now(),
		started:     eng.Now(),
		onFinish:    onFinish,
	}
	return nil
}

// Profile returns the application's static description.
func (a *Instance) Profile() Profile { return a.prof }

// Effect returns the effect of variant i (0 = precise) without copying the
// table; i must lie in [0, MostApproximate()].
func (a *Instance) Effect(i int) approx.Effect { return a.variants[i] }

// Variant returns the index of the active variant (0 = precise).
func (a *Instance) Variant() int { return a.cur }

// MostApproximate returns the index of the highest-degree variant.
func (a *Instance) MostApproximate() int { return len(a.variants) - 1 }

// Cores returns the current core allocation.
func (a *Instance) Cores() int { return a.cores }

// Switches returns how many variant switches have occurred.
func (a *Instance) Switches() uint64 { return a.switches }

// Done reports whether the application has completed its work.
func (a *Instance) Done() bool { return a.finished }

// Progress returns the fraction of work completed so far, in [0,1].
func (a *Instance) Progress() float64 { return a.progress }

// SetInstrumented applies the dynamic-instrumentation overhead (1+ovh
// execution-time multiplier). Called once by the dyninst substrate when the
// application is launched under it.
func (a *Instance) SetInstrumented(overheadFrac float64) {
	a.Advance(a.eng.Now())
	a.overhead = 1 + overheadFrac
}

// SetCores changes the core allocation, effective immediately.
func (a *Instance) SetCores(n int) {
	a.Advance(a.eng.Now())
	if n < 1 {
		n = 1
	}
	a.cores = n
	a.speed = a.prof.speed(n)
}

// SetSlowdown updates the contention inflation on the application's own
// execution.
func (a *Instance) SetSlowdown(f float64) {
	a.Advance(a.eng.Now())
	if f < 1 {
		f = 1
	}
	a.slowdown = f
}

// SetVariant switches the active approximation degree. Out-of-range indices
// are clamped; switching a finished application is a no-op.
func (a *Instance) SetVariant(i int) {
	if a.finished {
		return
	}
	a.Advance(a.eng.Now())
	if i < 0 {
		i = 0
	}
	if i >= len(a.variants) {
		i = len(a.variants) - 1
	}
	if i != a.cur {
		a.cur = i
		a.switches++
	}
}

// rate returns current progress in fractions/second.
func (a *Instance) rate() float64 {
	eff := a.variants[a.cur]
	denom := a.prof.NominalExecSec * eff.TimeScale * a.overhead * a.slowdown
	return a.speed / denom
}

// Advance moves the application's internal clock to now, consuming work at
// the current rate and accruing quality loss in proportion to the work done
// under the active variant. It is idempotent for equal timestamps and must be
// called (by the orchestration layer) before any state change and at every
// decision boundary.
func (a *Instance) Advance(now sim.Time) {
	if a.finished || now <= a.lastAdvance {
		a.lastAdvance = now
		return
	}
	dt := now.Sub(a.lastAdvance).Seconds()
	a.lastAdvance = now
	dp := dt * a.rate()
	// The epsilon absorbs floating-point residue so a run that nominally
	// completes exactly at a tick boundary does not linger at progress
	// 0.999999….
	if remaining := 1 - a.progress; dp+1e-9 >= remaining {
		// The app finishes partway through this span; pro-rate the time.
		frac := remaining / dp
		if frac > 1 {
			frac = 1
		}
		a.accrue(remaining)
		a.progress = 1
		a.finished = true
		a.finishedAt = a.lastAdvance - sim.Time((1-frac)*dt*float64(sim.Second))
		a.finalizeQuality()
		a.onFinish()
		return
	}
	a.accrue(dp)
	a.progress += dp
}

func (a *Instance) accrue(dp float64) {
	eff := a.variants[a.cur]
	a.inacc += eff.Inaccuracy * dp
	if eff.NonDeterministic {
		a.nondetWork += dp
	}
}

// finalizeQuality adds the run-to-run noise contributed by nondeterministic
// (synchronization-eliding) variants: the paper observes canneal exceeding
// its threshold (5.4%) under memcached "due to some non-determinism caused
// by synchronization elision".
func (a *Instance) finalizeQuality() {
	if a.nondetWork > 0 {
		a.inacc += a.nondetWork * a.rng.Exp(0.35)
	}
}

// Inaccuracy returns the accumulated output quality loss in percent. The
// final value is only meaningful once Done.
func (a *Instance) Inaccuracy() float64 { return a.inacc }

// ExecTime returns the wall-clock execution time. For finished apps it is
// the exact span; for running apps, the time elapsed so far.
func (a *Instance) ExecTime() sim.Duration {
	if a.finished {
		return a.finishedAt.Sub(a.started)
	}
	return a.lastAdvance.Sub(a.started)
}

// RelativeExecTime returns execution time normalized to the isolated precise
// run on ReferenceCores (the paper's "execution time normalized to precise").
func (a *Instance) RelativeExecTime() float64 {
	return a.ExecTime().Seconds() / a.prof.NominalExecSec
}

// phase returns the deterministic phase multiplier on resource pressure at
// time t.
func (a *Instance) phase(t sim.Time) float64 {
	if a.prof.PhaseAmp == 0 {
		return 1
	}
	omega := 2 * math.Pi / a.prof.PhasePeriodSec
	return 1 + a.prof.PhaseAmp*math.Sin(omega*t.Seconds()+a.phaseShift)
}

// llcScaleExp converts traffic reduction into cache-footprint reduction:
// perforated iterations skip their data, shrinking the effective working set
// somewhat less than linearly.
const llcScaleExp = 0.75

// Demand reports the application's current pressure on shared resources.
// Finished applications exert no pressure.
func (a *Instance) Demand(now sim.Time) interference.Demand {
	if a.finished {
		return interference.Demand{Sensitivity: a.prof.Sensitivity}
	}
	eff := a.variants[a.cur]
	ph := a.phase(now)
	return interference.Demand{
		LLCMB:       a.prof.LLCMB * math.Pow(eff.TrafficScale, llcScaleExp) * ph,
		MemBWGBs:    a.prof.BWPerCoreGBs * float64(a.cores) * eff.TrafficScale * ph,
		Sensitivity: a.prof.Sensitivity,
	}
}
