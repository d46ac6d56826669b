// Fault-injection wiring: how the compiled fault schedule (internal/fault)
// threads through the run loop without breaking shard invariance.
//
// The determinism argument mirrors the obs layer's: every fault event is
// consumed and applied on the coordinator's serial sections, never from shard
// goroutines. faultPrep runs before the window's episodes and
// precomputes the per-node crash instants; shard goroutines only READ that
// scratch (to truncate a crashed node's episode), so the concurrent window
// advance stays write-disjoint. applyFaults then mutates cluster state —
// requeues, state flips, staleness windows — serially after the merge
// barrier, in compiled event order, whatever the shard count. Fault-injected runs are therefore byte-identical for any
// shard count, which TestGoldenFaultStorm pins.
package sched

import (
	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/sim"
)

// faultRT is the run's fault-injection state.
type faultRT struct {
	plan   fault.Plan
	events []fault.Event
	cursor int // next unconsumed compiled event

	// Per-window scratch, coordinator-written in faultPrep before the
	// episode fan-out and read-only until applyFaults:
	//   win         — the events due in the elapsed window, in order
	//   crashAt     — node's first effective crash instant (-1 none)
	//   recoveredAt — node's last applied recovery instant (-1 none),
	//                 written by applyFaults for the energy accounting
	//   preState    — lifecycle state held at the window start
	//   preFreq     — frequency state held at the window start
	win         []fault.Event
	crashAt     []float64
	recoveredAt []float64
	preState    []autoscale.State
	preFreq     []int

	maskFree []int // anti-affinity Free-slot save/restore scratch

	crashes          int
	recoveries       int
	requeued         int
	lost             int
	downWindows      int
	staleWindows     int
	stragglerWindows int
}

// newFaultRT compiles the plan against the defaulted config. Call after
// Validate: the plan is assumed well-formed.
func newFaultRT(cfg Config) *faultRT {
	n := len(cfg.Nodes)
	f := &faultRT{
		plan:        *cfg.Faults,
		events:      cfg.Faults.Compile(cfg.Seed, n, cfg.Horizon.Seconds()),
		crashAt:     make([]float64, n),
		recoveredAt: make([]float64, n),
		preState:    make([]autoscale.State, n),
		preFreq:     make([]int, n),
	}
	return f
}

// faultPrep opens a window's fault bookkeeping at the boundary ending it:
// consume the events due by now, capture window-start state, and mark each
// node's first effective crash instant so episode runs (possibly on shard
// goroutines) can truncate at it. Serial-section only.
func (s *run) faultPrep(now sim.Time) {
	f := s.faults
	if f == nil {
		return
	}
	nowSec := now.Seconds()
	f.win = f.win[:0]
	for f.cursor < len(f.events) && f.events[f.cursor].AtSec <= nowSec {
		f.win = append(f.win, f.events[f.cursor])
		f.cursor++
	}
	for i, n := range s.nodes {
		f.crashAt[i] = -1
		f.recoveredAt[i] = -1
		f.preState[i] = n.state
		f.preFreq[i] = n.freq
	}
	// The first crash on a live node truncates its episode; later same-window
	// crash/recover churn only moves the state machine (the node has no
	// residents after the first crash requeues them).
	for _, ev := range f.win {
		if ev.Kind == fault.Crash && f.crashAt[ev.Node] < 0 &&
			s.nodes[ev.Node].state != autoscale.Down {
			f.crashAt[ev.Node] = ev.AtSec
		}
	}
}

// applyFaults replays the window's fault events against the merged cluster
// state, in compiled order, then takes the boundary fault census. Runs on
// the coordinator after the shard barrier, before
// the energy accounting reads the recovery instants.
func (s *run) applyFaults(now sim.Time) {
	f := s.faults
	if f == nil {
		return
	}
	for _, ev := range f.win {
		n := s.nodes[ev.Node]
		switch ev.Kind {
		case fault.Crash:
			if n.state == autoscale.Down {
				continue
			}
			s.crashNode(now, ev)
		case fault.Recover:
			if n.state != autoscale.Down {
				continue
			}
			n.state = autoscale.Active
			if s.cfg.Energy != nil {
				// Recovered hardware boots at nominal; the repair time (MTTR)
				// covers the boot, so no second wake charge.
				n.freq = s.cfg.Energy.Nominal()
			}
			f.recoveredAt[ev.Node] = ev.AtSec
			f.recoveries++
			s.obsFault(now, ev, 0)
			s.obsLifecycle(now, ev.Node, autoscale.Down, autoscale.Active)
		case fault.TelemetryStale:
			// Freeze the scheduler's view at the last snapshot the node
			// reported before the dropout.
			n.lastGood = n.tel
			n.staleUntil = ev.AtSec + ev.DurSec
			s.obsFault(now, ev, int64(ev.DurSec*1e3))
		case fault.Straggle:
			n.straggleUntil = ev.AtSec + ev.DurSec
			s.obsFault(now, ev, int64(ev.DurSec*1e3))
		}
	}

	// Boundary census: node-windows spent down, telemetry-stale, or
	// straggling — the robustness counters of the Result.
	nowSec := now.Seconds()
	down := 0
	for _, n := range s.nodes {
		switch {
		case n.state == autoscale.Down:
			down++
			f.downWindows++
		case n.straggleUntil > nowSec:
			f.stragglerWindows++
		}
		if n.staleUntil > nowSec && n.state != autoscale.Down {
			f.staleWindows++
		}
	}
	s.trace.Series("nodes.down").Append(nowSec, float64(down))
	s.obsFaultWindow(down)
}

// crashNode takes a live node down at the event instant: unfinished
// residents requeue with backoff (or drop as lost past their retry budget),
// the node's telemetry dies with it, and the lifecycle lands on Down.
func (s *run) crashNode(now sim.Time, ev fault.Event) {
	f := s.faults
	n := s.nodes[ev.Node]
	budget := f.plan.Retries()
	requeued := 0
	for _, job := range n.resident {
		job.Node = -1
		if job.Retries >= budget {
			job.Lost = true
			f.lost++
			s.obsJobLost()
			continue
		}
		job.Retries++
		job.retryAtSec = ev.AtSec + f.plan.BackoffSec(job.Retries)
		job.lastDomain = f.plan.DomainOf(ev.Node)
		s.pending = append(s.pending, job)
		f.requeued++
		requeued++
	}
	for i := range n.resident {
		n.resident[i] = nil
	}
	n.resident = n.resident[:0]
	n.tel = cluster.Telemetry{}
	from := n.state
	n.state = autoscale.Down
	f.crashes++
	s.obsFault(now, ev, int64(requeued))
	s.obsLifecycle(now, ev.Node, from, autoscale.Down)
}

// viewTelemetry is the scheduler-facing telemetry of node i at a boundary:
// the live feed, or the last-known-good snapshot while the feed is stale.
func (s *run) viewTelemetry(i int, nowSec float64) (cluster.Telemetry, bool) {
	n := s.nodes[i]
	if s.faults != nil && n.staleUntil > nowSec {
		return n.lastGood, true
	}
	return n.tel, false
}
