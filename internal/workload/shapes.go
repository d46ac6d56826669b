package workload

import (
	"fmt"
	"math"
	"sort"

	"github.com/approx-sched/pliant/internal/sim"
)

// Shape is a deterministic time-varying load multiplier: the offered load at
// time t is the base rate times Multiplier(t). Shapes model the load patterns
// a cluster-horizon study needs — diurnal swings, flash crowds, replayed
// traces — which the paper's fixed-fraction runs (minutes of steady load)
// abstract away. Multipliers are clamped positive by consumers; a shape whose
// multiplier dips to zero would starve the open-loop client.
type Shape interface {
	Name() string
	// Multiplier returns the load multiplier at t seconds from the start of
	// the run.
	Multiplier(tSec float64) float64
}

// minMultiplier is the floor consumers clamp shape multipliers to: an
// open-loop generator needs a strictly positive rate.
const minMultiplier = 0.01

// ClampMultiplier applies the positivity floor every Shape consumer uses.
func ClampMultiplier(m float64) float64 {
	if m < minMultiplier || math.IsNaN(m) {
		return minMultiplier
	}
	return m
}

// Steady is the constant shape: the paper's fixed-fraction load. A zero Level
// means 1.0, so the zero value is the identity shape.
type Steady struct{ Level float64 }

// Name identifies the shape.
func (s Steady) Name() string { return "steady" }

// Multiplier returns the constant level.
func (s Steady) Multiplier(float64) float64 {
	if s.Level == 0 {
		return 1
	}
	return s.Level
}

// Diurnal is a sinusoidal day: load swings by ±Amp around 1 with the given
// period. PhaseSec shifts the curve so t=PhaseSec is mid-ramp (the peak sits
// a quarter period after it).
type Diurnal struct {
	Amp       float64 // peak deviation from 1, in [0, 1)
	PeriodSec float64 // length of one "day"
	PhaseSec  float64
}

// NewDiurnal validates and returns a diurnal shape.
func NewDiurnal(amp, periodSec float64) (Diurnal, error) {
	// Negated so NaN is refused too.
	if !(amp >= 0 && amp < 1) {
		return Diurnal{}, fmt.Errorf("workload: diurnal amplitude %v outside [0,1)", amp)
	}
	if !(periodSec > 0) {
		return Diurnal{}, fmt.Errorf("workload: diurnal period must be positive, got %v", periodSec)
	}
	return Diurnal{Amp: amp, PeriodSec: periodSec}, nil
}

// Name identifies the shape.
func (d Diurnal) Name() string { return "diurnal" }

// Multiplier returns 1 + Amp·sin(2π(t−Phase)/Period).
func (d Diurnal) Multiplier(tSec float64) float64 {
	if d.PeriodSec <= 0 {
		return 1
	}
	return 1 + d.Amp*math.Sin(2*math.Pi*(tSec-d.PhaseSec)/d.PeriodSec)
}

// Flash is a step or flash crowd: the multiplier is the base level outside
// the event and Peak inside [StartSec, StartSec+DurationSec). A zero
// DurationSec makes the step permanent (load settles at the new level), a
// finite one models a transient flash crowd. In a zero-value literal,
// Base == 0 resolves to the unit base via BaseLevel — the same
// usable-zero-value convention as Steady — but NewFlash requires the base
// spelled out, so a constructed shape never rides a hidden default.
type Flash struct {
	Base        float64
	Peak        float64
	StartSec    float64
	DurationSec float64
}

// NewFlash validates and returns a flash/step shape. The base must be
// explicitly positive: passing 0 here used to silently mean 1.0, the same
// unconfigurable-zero ambiguity autoscale.Consolidate's reserve had; callers
// who want the unit base pass 1.
func NewFlash(base, peak, startSec, durationSec float64) (Flash, error) {
	// Negated so NaN is refused too.
	if !(base > 0 && peak > 0) {
		return Flash{}, fmt.Errorf("workload: flash needs positive peak (got %v) and positive base (got %v; pass 1 for the unit base)",
			peak, base)
	}
	if !(startSec >= 0 && durationSec >= 0) {
		return Flash{}, fmt.Errorf("workload: flash start %v / duration %v must be non-negative", startSec, durationSec)
	}
	return Flash{Base: base, Peak: peak, StartSec: startSec, DurationSec: durationSec}, nil
}

// Name identifies the shape.
func (f Flash) Name() string { return "flash" }

// BaseLevel resolves the outside-the-event multiplier: Base, or 1.0 for the
// zero-value literal. This is the single place the zero value gains meaning;
// Multiplier and any future consumer go through it.
func (f Flash) BaseLevel() float64 {
	if f.Base == 0 {
		return 1
	}
	return f.Base
}

// Multiplier implements Shape.
func (f Flash) Multiplier(tSec float64) float64 {
	if tSec < f.StartSec {
		return f.BaseLevel()
	}
	if f.DurationSec > 0 && tSec >= f.StartSec+f.DurationSec {
		return f.BaseLevel()
	}
	return f.Peak
}

// Replay is a trace-replay shape: a step function through recorded
// (time, multiplier) samples, holding each value until the next sample — the
// same semantics as production load traces replayed at interval granularity.
// Duplicate instants are legal (real exports revise a sample in place by
// appending a second row at the same timestamp) and resolve last-sample-wins.
type Replay struct {
	TimesSec []float64 // non-decreasing sample instants
	Mult     []float64 // multiplier in effect from the matching instant
}

// NewReplay validates and returns a replay shape. Times must not decrease;
// duplicate instants are allowed and mean the later sample revises the
// earlier one.
func NewReplay(timesSec, mult []float64) (Replay, error) {
	if len(timesSec) == 0 || len(timesSec) != len(mult) {
		return Replay{}, fmt.Errorf("workload: replay needs equal, non-empty sample slices (%d times, %d multipliers)",
			len(timesSec), len(mult))
	}
	if !sort.Float64sAreSorted(timesSec) {
		return Replay{}, fmt.Errorf("workload: replay times must not decrease")
	}
	for _, m := range mult {
		if m <= 0 {
			return Replay{}, fmt.Errorf("workload: replay multiplier %v not positive", m)
		}
	}
	return Replay{TimesSec: timesSec, Mult: mult}, nil
}

// Name identifies the shape.
func (r Replay) Name() string { return "replay" }

// Multiplier returns the sample in effect at t: the latest sample at or
// before t, or the first sample before the trace starts. Among samples
// sharing one instant the last wins — SearchFloat64s would land on the
// first of the run and silently keep a revised-away value.
func (r Replay) Multiplier(tSec float64) float64 {
	if len(r.TimesSec) == 0 {
		return 1
	}
	// First index with time strictly after t; the sample before it (the last
	// one at or before t) is in effect.
	i := sort.Search(len(r.TimesSec), func(k int) bool { return r.TimesSec[k] > tSec })
	if i == 0 {
		return r.Mult[0]
	}
	return r.Mult[i-1]
}

// Shifted evaluates an inner shape at t+BySec: a scheduler handing a node an
// episode starting at cluster time T shifts the cluster-horizon shape by T so
// the episode's local clock sees the right part of the day.
type Shifted struct {
	Inner Shape
	BySec float64
}

// Name identifies the shape.
func (s Shifted) Name() string { return s.Inner.Name() + "+shift" }

// Multiplier implements Shape.
func (s Shifted) Multiplier(tSec float64) float64 { return s.Inner.Multiplier(tSec + s.BySec) }

// ShapedPoisson is a non-stationary Poisson process: exponential gaps whose
// rate is BaseQPS·Shape.Multiplier(t), with the rate frozen at the draw
// instant. For shapes that vary slowly relative to the inter-arrival gap —
// diurnal periods and flash-crowd plateaus are many thousands of gaps long —
// this piecewise-stationary approximation is standard and indistinguishable
// from thinning.
type ShapedPoisson struct {
	BaseQPS float64
	Shape   Shape
}

// NewShapedPoisson validates and returns a shaped Poisson process.
func NewShapedPoisson(baseQPS float64, shape Shape) (ShapedPoisson, error) {
	if !(baseQPS > 0) { // negated so NaN is refused too
		return ShapedPoisson{}, fmt.Errorf("workload: shaped poisson needs positive base qps, got %v", baseQPS)
	}
	if shape == nil {
		return ShapedPoisson{}, fmt.Errorf("workload: shaped poisson needs a shape")
	}
	return ShapedPoisson{BaseQPS: baseQPS, Shape: shape}, nil
}

// Next draws an exponential gap at the rate in effect now. A non-positive
// or non-finite effective rate — a zero-rate literal bypassing
// NewShapedPoisson, or a multiplier the clamp cannot rescue — yields the
// finite cap rather than an Inf/NaN gap.
func (p ShapedPoisson) Next(rng *sim.RNG, now sim.Time) sim.Duration {
	return expGap(rng, p.BaseQPS*ClampMultiplier(p.Shape.Multiplier(now.Seconds())))
}

// Rate returns the base rate; the instantaneous rate is shaped around it.
func (p ShapedPoisson) Rate() float64 { return p.BaseQPS }
