// Package gen is a seedflow rule fixture: rand constructors whose seed
// arguments do and do not derive from the config seed.
package gen

import (
	"math/rand"
	"time"

	"github.com/approx-sched/pliant/internal/sim"
)

// Config mirrors the repo's convention: the run seed is a Seed-named field.
type Config struct {
	Seed  int64
	Nodes int
}

// Good seeds straight from the config field: no finding.
func Good(cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed))
}

// GoodMix derives a stream seed through sim.Mix64: legal provenance.
func GoodMix(cfg Config, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(sim.Mix64(uint64(cfg.Seed) ^ uint64(i)))))
}

// GoodParam receives the seed as a parameter: the name carries the taint.
func GoodParam(seed int64) rand.Source {
	return rand.NewSource(seed)
}

// GoodDerived routes the seed through local arithmetic before use.
func GoodDerived(cfg Config) rand.Source {
	s := cfg.Seed*2 + 1
	return rand.NewSource(s)
}

// GoodRNG builds the repo's own generator from mixed seed material.
func GoodRNG(cfg Config, node int) *sim.RNG {
	return sim.NewRNG(sim.Mix64(uint64(cfg.Seed)) + uint64(node))
}

// BadLiteral hardcodes the seed: a perfectly seeded generator with no
// provenance story, irreproducible from the run config.
func BadLiteral() *rand.Rand {
	return rand.New(rand.NewSource(42)) // want `\[seedflow\] rand\.New(Source)? seeded`
}

// BadClock seeds from the wall clock: differs every run.
func BadClock() rand.Source {
	return rand.NewSource(time.Now().UnixNano()) // want `\[seedflow\] rand\.NewSource seeded`
}

// BadVar launders a non-seed value through a local.
func BadVar(xs []int) rand.Source {
	n := int64(len(xs))
	return rand.NewSource(n) // want `\[seedflow\] rand\.NewSource seeded`
}

// BadRNG hands the repo generator a constant stream id with no seed mixed
// in.
func BadRNG() *sim.RNG {
	return sim.NewRNG(7) // want `\[seedflow\] sim\.NewRNG seeded`
}

// GoodReseed restarts an embedded generator in place from the config seed.
func GoodReseed(cfg Config, r *sim.RNG) {
	r.Reseed(uint64(cfg.Seed))
}

// BadReseed restarts a generator in place from a constant: the in-place form
// of BadRNG.
func BadReseed(r *sim.RNG) {
	r.Reseed(7) // want `\[seedflow\] RNG\.Reseed seeded`
}
