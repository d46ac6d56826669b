package colocate

import (
	"github.com/approx-sched/pliant/internal/core"
	"github.com/approx-sched/pliant/internal/interference"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
)

// Scratch is reusable per-episode simulation state: the event engine (heap
// and slot arenas), the whole-run latency histogram, the monitor's interval
// histogram, the per-interval p99 buffer, the result trace (with its point
// buffers), the service's pending-request queue, and the contention and
// policy buffers. An online scheduler runs
// thousands of short colocation episodes; threading one Scratch per worker
// through Config.Scratch lets every episode after the first reuse these
// buffers instead of reallocating them.
//
// A Scratch is owned by one sequential stream of episodes — it is not safe
// for concurrent use. Reuse is invisible to results: every component resets
// to its initial state, so runs are bit-identical with and without a Scratch.
// The one thing a caller sees is ownership: the Result.Trace of an episode
// run on a Scratch belongs to the Scratch and is recycled by its next
// episode.
//
// Every accessor below is nil-safe: on a nil Scratch it returns fresh state,
// so the scenario builder has one path with or without reuse.
type Scratch struct {
	eng     *sim.Engine
	hist    *stats.Histogram
	monHist *stats.Histogram
	p99s    []float64
	trace   *stats.Trace
	queue   service.QueueBuf

	demands []interference.Demand
	slow    []float64
	views   []core.AppView
}

// engine returns the scratch engine reset to t=0, creating it on first use.
func (sc *Scratch) engine() *sim.Engine {
	if sc == nil {
		return sim.NewEngine()
	}
	if sc.eng == nil {
		sc.eng = sim.NewEngine()
	} else {
		sc.eng.Reset()
	}
	return sc.eng
}

// latencyHist returns the scratch whole-run histogram, cleared.
func (sc *Scratch) latencyHist() *stats.Histogram {
	if sc == nil {
		return stats.NewLatencyHistogram()
	}
	if sc.hist == nil {
		sc.hist = stats.NewLatencyHistogram()
	} else {
		sc.hist.Reset()
	}
	return sc.hist
}

// monitorHist returns the scratch monitor histogram, cleared; nil without a
// scratch, which makes the monitor allocate its own.
func (sc *Scratch) monitorHist() *stats.Histogram {
	if sc == nil {
		return nil
	}
	if sc.monHist == nil {
		sc.monHist = stats.NewLatencyHistogram()
	} else {
		sc.monHist.Reset()
	}
	return sc.monHist
}

// resultTrace returns the scratch trace, reset.
func (sc *Scratch) resultTrace() *stats.Trace {
	if sc == nil {
		return stats.NewTrace()
	}
	if sc.trace == nil {
		sc.trace = stats.NewTrace()
	} else {
		sc.trace.Reset()
	}
	return sc.trace
}

// intervalBuf returns the reusable per-interval p99 buffer, emptied.
func (sc *Scratch) intervalBuf() []float64 {
	if sc == nil {
		return nil
	}
	return sc.p99s[:0]
}

// appBuffers returns the contention buffers (demands empty with room for
// the service and n apps, slow sized to match) and the policy view buffer
// (n entries), sized once per episode so no refresh or report grows them.
func (sc *Scratch) appBuffers(n int) ([]interference.Demand, []float64, []core.AppView) {
	if sc == nil {
		return make([]interference.Demand, 0, n+1), make([]float64, n+1), make([]core.AppView, n)
	}
	if cap(sc.demands) < n+1 {
		sc.demands = make([]interference.Demand, 0, n+1)
		sc.slow = make([]float64, n+1)
		sc.views = make([]core.AppView, n)
	}
	return sc.demands[:0], sc.slow[:n+1], sc.views[:n]
}

// adoptQueue lends the scratch's request-queue array to svc.
func (sc *Scratch) adoptQueue(svc *service.Instance) {
	if sc != nil {
		svc.UseQueue(&sc.queue)
	}
}

// keep takes back what the finished episode may have grown: the p99 buffer
// and the service's queue array.
func (sc *Scratch) keep(p99s []float64, svc *service.Instance) {
	if sc == nil {
		return
	}
	sc.p99s = p99s
	svc.ReleaseQueue(&sc.queue)
}
