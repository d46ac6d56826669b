// Package client implements the open-loop workload generators that drive the
// interactive services, mirroring the paper's client machines: arrivals are
// generated independently of completions (so an overloaded server accumulates
// queueing rather than throttling the offered load), and end-to-end latency
// is observed on the client side where the paper's performance monitor lives.
package client

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// Generator drives one service instance with an arrival process.
type Generator struct {
	eng     *sim.Engine
	rng     *sim.RNG
	svc     *service.Instance
	arrival workload.ArrivalProcess

	running bool
	stopped bool
	sent    uint64
}

// New creates a generator. Call Start to begin offering load.
func New(eng *sim.Engine, rng *sim.RNG, svc *service.Instance, arrival workload.ArrivalProcess) (*Generator, error) {
	g := &Generator{}
	if err := g.Init(eng, rng, svc, arrival); err != nil {
		return nil, err
	}
	return g, nil
}

// Init (re)initialises g in place to the state New builds: stopped, nothing
// sent. No arrival of g may still be pending: run Init on a fresh or reset
// engine. On error g is unchanged.
func (g *Generator) Init(eng *sim.Engine, rng *sim.RNG, svc *service.Instance, arrival workload.ArrivalProcess) error {
	if eng == nil || rng == nil || svc == nil || arrival == nil {
		return fmt.Errorf("client: nil dependency")
	}
	if arrival.Rate() <= 0 {
		return fmt.Errorf("client: arrival rate must be positive")
	}
	*g = Generator{eng: eng, rng: rng, svc: svc, arrival: arrival}
	return nil
}

// Start begins generating arrivals at the current simulation time.
func (g *Generator) Start() {
	if g.running {
		return
	}
	g.running = true
	g.stopped = false
	g.scheduleNext()
}

// Stop halts generation after any already-scheduled arrival.
func (g *Generator) Stop() {
	g.stopped = true
	g.running = false
}

// Sent reports how many requests have been offered so far.
func (g *Generator) Sent() uint64 { return g.sent }

// Rate returns the offered load in requests/second.
func (g *Generator) Rate() float64 { return g.arrival.Rate() }

// nextGap draws the next inter-arrival gap, letting time-varying processes
// (workload.TimedArrival) see the current virtual time.
func (g *Generator) nextGap() sim.Duration {
	if ta, ok := g.arrival.(workload.TimedArrival); ok {
		return ta.NextAt(g.rng, g.eng.Now())
	}
	return g.arrival.Next(g.rng)
}

// scheduleNext arms the next arrival through the typed-event path: the
// generator itself is the handler, so the open-loop tick allocates nothing.
// Arrival timestamps never decrease (each is scheduled from the previous
// arrival), so they take the engine's sift-free monotone lane.
func (g *Generator) scheduleNext() {
	g.eng.AfterMonotoneTyped(g.nextGap(), g, 0)
}

// OnEvent implements sim.EventHandler: one arrival tick.
func (g *Generator) OnEvent(sim.Time, uint64) {
	if g.stopped {
		return
	}
	g.sent++
	g.svc.Arrive()
	g.scheduleNext()
}
