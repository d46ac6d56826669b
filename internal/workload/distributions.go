// Package workload provides the stochastic building blocks for driving the
// interactive services: arrival processes (open-loop Poisson, as in the
// paper's client generators), time-varying load shapes, trace replay, and
// service-demand distributions (log-normal with heavy right tails, bimodal
// disk-bound mixtures).
package workload

import (
	"math"

	"github.com/approx-sched/pliant/internal/sim"
)

// Sampler produces successive values of a distribution, in arbitrary units.
type Sampler interface {
	Sample(rng *sim.RNG) float64
	// Mean returns the distribution's analytic mean, used to compute
	// saturation throughput without simulation.
	Mean() float64
}

// Constant is a degenerate distribution.
type Constant float64

// Sample returns the constant value.
func (c Constant) Sample(*sim.RNG) float64 { return float64(c) }

// Mean returns the constant value.
func (c Constant) Mean() float64 { return float64(c) }

// LogNormal is parameterized by its median and the sigma of the underlying
// normal. Interactive request service times are well described by
// log-normals: most requests are quick, a few percent are much slower.
// NewLogNormal builds it with the per-sample constants already hoisted, and
// Scale multiplies it in place, so the request path pays one RNG draw and
// one multiply per sample whatever the time scale.
type LogNormal struct {
	mu, sigma float64
	scale     float64
	mean      float64
}

// NewLogNormal returns the log-normal with the given median and sigma.
func NewLogNormal(median, sigma float64) LogNormal {
	return LogNormal{mu: math.Log(median), sigma: sigma, scale: 1, mean: median * math.Exp(sigma*sigma/2)}
}

// Sample draws a log-normal value.
func (l LogNormal) Sample(rng *sim.RNG) float64 {
	return rng.LogNormal(l.mu, l.sigma) * l.scale
}

// Mean returns the analytic mean median·exp(sigma²/2), times the scale.
func (l LogNormal) Mean() float64 { return l.mean }

// Scale returns s with every sample multiplied by f. A LogNormal is scaled
// in place (its draw and mean arithmetic are unchanged: x·1 == x); any other
// sampler is wrapped once.
func Scale(s Sampler, f float64) Sampler {
	if l, ok := s.(LogNormal); ok {
		l.scale *= f
		l.mean *= f
		return l
	}
	return scaled{inner: s, f: f}
}

// scaled is Scale's wrapper for samplers with no scale of their own.
type scaled struct {
	inner Sampler
	f     float64
}

// Sample draws from the inner sampler and scales the value.
func (s scaled) Sample(rng *sim.RNG) float64 { return s.inner.Sample(rng) * s.f }

// Mean returns the inner mean, scaled.
func (s scaled) Mean() float64 { return s.inner.Mean() * s.f }

// Bimodal mixes two samplers: with probability PHeavy the heavy sampler is
// used. It models services where a fraction of requests miss cache and go to
// disk (MongoDB) or take a slow path.
type Bimodal struct {
	Light  Sampler
	Heavy  Sampler
	PHeavy float64
}

// Sample draws from the mixture.
func (b Bimodal) Sample(rng *sim.RNG) float64 {
	if rng.Bernoulli(b.PHeavy) {
		return b.Heavy.Sample(rng)
	}
	return b.Light.Sample(rng)
}

// Mean returns the mixture mean.
func (b Bimodal) Mean() float64 {
	return (1-b.PHeavy)*b.Light.Mean() + b.PHeavy*b.Heavy.Mean()
}
