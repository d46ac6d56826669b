package workload

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/sim"
)

// ArrivalProcess generates the inter-arrival gap before the next request.
type ArrivalProcess interface {
	// Next returns the gap from now to the next arrival. Stationary
	// processes ignore now; non-stationary ones (a shaped rate, a replayed
	// trace) read the gap distribution off it. Implementations must return
	// strictly positive durations.
	Next(rng *sim.RNG, now sim.Time) sim.Duration
	// Rate returns the mean arrival rate in requests/second.
	Rate() float64
}

// maxGapSec caps one inter-arrival gap at ~31 simulated years: beyond any
// reachable horizon, yet finite, so a degenerate rate can never push an
// Inf/NaN gap through DurationOf (whose float→int64 conversion would wrap an
// astronomical gap into a *negative* duration, which the ≤0 clamp then turns
// into a 1ns arrival storm — the exact inversion of "no arrivals").
const maxGapSec = 1e9

// gapOf converts a gap in seconds to a duration in (0, maxGapSec]: Inf, NaN
// and huge gaps take the cap, and gaps that round to zero or below take the
// minimum 1ns (zero gaps would starve the event loop ordering).
func gapOf(sec float64) sim.Duration {
	if !(sec < maxGapSec) { // catches Inf and NaN alongside huge gaps
		sec = maxGapSec
	}
	d := sim.DurationOf(sec)
	if d <= 0 {
		d = 1
	}
	return d
}

// expGap draws an exponential gap at rate arrivals/second. A zero, negative
// or NaN rate — a literal that bypassed its constructor — yields the finite
// cap, without a draw.
func expGap(rng *sim.RNG, rate float64) sim.Duration {
	if !(rate > 0) {
		return sim.DurationOf(maxGapSec)
	}
	return gapOf(rng.Exp(1 / rate))
}

// Poisson is the open-loop arrival process used by the paper's workload
// generators: exponential inter-arrival gaps, arrivals independent of
// completions, so a slow server accumulates queueing rather than throttling
// the offered load.
type Poisson struct {
	QPS float64
}

// NewPoisson returns a Poisson process at the given queries per second.
func NewPoisson(qps float64) (Poisson, error) {
	if !(qps > 0) { // negated so NaN is refused too
		return Poisson{}, fmt.Errorf("workload: poisson needs positive qps, got %v", qps)
	}
	return Poisson{QPS: qps}, nil
}

// Next draws an exponential gap.
func (p Poisson) Next(rng *sim.RNG, _ sim.Time) sim.Duration { return expGap(rng, p.QPS) }

// Rate returns the configured QPS.
func (p Poisson) Rate() float64 { return p.QPS }

// Uniform emits arrivals at a fixed spacing — a deterministic process useful
// for tests, since queues behave predictably under it.
type Uniform struct {
	QPS float64
}

// Next returns the fixed gap 1/QPS, or the finite cap for a zero, negative
// or NaN rate.
func (u Uniform) Next(*sim.RNG, sim.Time) sim.Duration {
	if !(u.QPS > 0) {
		return sim.DurationOf(maxGapSec)
	}
	return gapOf(1 / u.QPS)
}

// Rate returns the configured QPS.
func (u Uniform) Rate() float64 { return u.QPS }
