// Package cluster is the node-episode and telemetry layer under the online
// scheduler (internal/sched), the form this repository gives the paper's
// closing remark (Sec. 6.4) that the runtime's information "can be
// incorporated in the cluster scheduler when deciding which applications to
// place on the same physical node". A cluster is a set of nodes, each hosting
// one interactive service; a node episode runs a set of approximate jobs on
// one node under the Pliant runtime, and the monitor's reports fold into the
// per-node Telemetry the scheduler's policies consume.
package cluster

import (
	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// Node is one server in the cluster, identified by the interactive service
// it hosts.
type Node struct {
	Name    string
	Service service.Class

	// MaxApps bounds how many approximate jobs the node accepts (the paper
	// evaluates up to 3 colocated approximate applications per host).
	MaxApps int
}

// NodeSeed derives the deterministic per-node seed the online scheduler
// builds its episode seeds from, so a node's random stream never depends on
// what runs on other nodes.
func NodeSeed(seed uint64, node int) uint64 {
	return seed ^ uint64(node+1)*0x9e3779b97f4a7c15
}

// NodeRun describes one node-colocation episode — the online scheduler's
// unit of execution: a set of approximate jobs on one node's service, run
// under the Pliant runtime for at most MaxDuration of virtual time.
type NodeRun struct {
	Seed         uint64
	Node         Node
	AppNames     []string
	AppWorkScale []float64 // remaining-work fraction per app (nil = full work)
	LoadFraction float64
	LoadShape    workload.Shape
	TimeScale    float64
	MaxDuration  sim.Duration
	OnReport     func(monitor.Report) // mid-run telemetry feed

	// EnergyModel attaches node power accounting to the episode: reports
	// carry watts/joules and the result totals energy. FreqGHz runs the node
	// in a lower frequency state (0 = nominal); see colocate.Config.
	EnergyModel *energy.Model
	FreqGHz     float64

	// Scratch is optional reusable episode state owned by the calling
	// worker; see colocate.Scratch.
	Scratch *colocate.Scratch
}

// RunNode executes one node episode.
func RunNode(r NodeRun) (colocate.Result, error) {
	return colocate.Run(colocate.Config{
		Seed:         r.Seed,
		Service:      r.Node.Service,
		AppNames:     r.AppNames,
		AppWorkScale: r.AppWorkScale,
		Runtime:      colocate.Pliant,
		LoadFraction: r.LoadFraction,
		LoadShape:    r.LoadShape,
		TimeScale:    r.TimeScale,
		MaxDuration:  r.MaxDuration,
		OnReport:     r.OnReport,
		EnergyModel:  r.EnergyModel,
		FreqGHz:      r.FreqGHz,
		Scratch:      r.Scratch,
	})
}

// Telemetry is the per-node runtime feedback a scheduler consumes: the
// paper's Sec. 6.4 "information [that] can be incorporated in the cluster
// scheduler", accumulated live from the monitor's decision-interval reports.
type Telemetry struct {
	// P99OverQoS is a recency-weighted mean of per-interval p99/QoS ratios;
	// 0 until the first report.
	P99OverQoS float64
	// ViolationFrac is the fraction of observed intervals in QoS violation.
	ViolationFrac float64
	// Reports counts observed intervals.
	Reports int

	// Watts is a recency-weighted mean of the node's power draw; 0 until the
	// first energy-bearing report (reports carry energy only when the episode
	// ran with an energy model attached).
	Watts float64
	// Joules accumulates the node's energy over observed intervals.
	Joules float64
	// PerfPerWatt is a recency-weighted mean of service throughput per watt
	// (requests/s/W ≡ requests/J). Like ViolationFrac it is policy-facing
	// surface: the built-in policies don't read it, but custom energy-aware
	// policies see it through NodeState.Telemetry.
	PerfPerWatt float64

	violations int
}

// QoSMet reports whether the recent tail has been within QoS. A node with no
// telemetry yet (idle, or first episode pending) trivially meets QoS.
func (t Telemetry) QoSMet() bool { return t.P99OverQoS <= 1 }

// telemetryAlpha is the recency weight of the p99 EWMA: high enough to track
// load swings within a scheduling window, low enough to smooth single-interval
// spikes.
const telemetryAlpha = 0.3

// Observe folds one monitor report into the telemetry. Pass it (or a wrapper)
// as the colocation's OnReport hook.
func (t *Telemetry) Observe(r monitor.Report) {
	ratio := float64(r.P99) / float64(r.QoS)
	if t.Reports == 0 {
		t.P99OverQoS = ratio
	} else {
		t.P99OverQoS = telemetryAlpha*ratio + (1-telemetryAlpha)*t.P99OverQoS
	}
	t.Reports++
	if r.Violation {
		t.violations++
	}
	t.ViolationFrac = float64(t.violations) / float64(t.Reports)

	// Energy telemetry rides the same reports when the episode carries a
	// power model; the first energy-bearing report seeds the EWMAs.
	if r.Watts > 0 {
		perf := 0.0
		if sec := r.Interval.Seconds(); sec > 0 {
			perf = float64(r.Seen) / sec / r.Watts
		}
		if t.Watts == 0 {
			t.Watts = r.Watts
			t.PerfPerWatt = perf
		} else {
			t.Watts = telemetryAlpha*r.Watts + (1-telemetryAlpha)*t.Watts
			t.PerfPerWatt = telemetryAlpha*perf + (1-telemetryAlpha)*t.PerfPerWatt
		}
		t.Joules += r.Joules
	}
}

// WindowStats aggregates the QoS outcome of one scheduling window over a set
// of busy nodes — the telemetry roll-up the online scheduler traces at every
// window boundary. It is shard-aware by construction: every field is
// order-insensitive (two counters and a running max), so per-shard stats
// folded node-locally and merged in a fixed shard order are byte-identical
// to a single engine folding all nodes in node order.
type WindowStats struct {
	// Busy and Met count busy nodes and those whose telemetry met QoS.
	Busy, Met int
	// WorstP99 is the worst node's recency-weighted p99/QoS this window.
	WorstP99 float64
}

// Fold accumulates one busy node's window telemetry.
func (w *WindowStats) Fold(t Telemetry) {
	w.Busy++
	if t.QoSMet() {
		w.Met++
	}
	if t.P99OverQoS > w.WorstP99 {
		w.WorstP99 = t.P99OverQoS
	}
}

// Merge folds another shard's stats into w. Call it over shards in a fixed
// order at the window barrier.
func (w *WindowStats) Merge(o WindowStats) {
	w.Busy += o.Busy
	w.Met += o.Met
	if o.WorstP99 > w.WorstP99 {
		w.WorstP99 = o.WorstP99
	}
}

// ShuffledJobs returns the first n catalog names in a seeded shuffle —
// deterministic job mixes for studies and benchmarks.
func ShuffledJobs(seed uint64, n int) []string {
	names := app.Names()
	rng := sim.NewRNG(seed)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if n > len(names) {
		n = len(names)
	}
	return names[:n]
}
