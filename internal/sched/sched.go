// Package sched implements an online, event-driven cluster scheduler in
// virtual time — the production form of the paper's Sec. 6.4 scheduler
// integration. Where internal/cluster places one static batch, sched models
// the stream a datacenter scheduler actually faces: approximate jobs arrive
// over a horizon via an arrival process, wait in a pending queue, and are
// placed (or deferred) by an online policy at every scheduling window, while
// each node's interactive service sees time-varying load (diurnal swings,
// flash crowds) and continuously feeds the scheduler its Pliant runtime
// telemetry — recent p99/QoS, violation fraction, and per-app pressure.
//
// Time is two-level: the cluster horizon advances in scheduling windows
// (epochs); within each window, every occupied node runs a real colocation
// episode (internal/colocate, via cluster.RunNode) for the window's span,
// resuming each job's remaining work and emitting mid-run telemetry. Node
// episodes are independent simulations, so Config.Shards partitions the
// cluster into shards that run each window's episodes in parallel across
// cores and merge deterministically at window boundaries (see shard.go),
// keeping runs bit-for-bit deterministic under a fixed seed and
// byte-identical for any shard count.
package sched

import (
	"fmt"
	"runtime"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
	"github.com/approx-sched/pliant/internal/trace"
	"github.com/approx-sched/pliant/internal/workload"
)

// Job is one approximate application moving through the scheduler.
type Job struct {
	ID  int
	App app.Profile

	// Pressure is the job's residual shared-resource pressure
	// (PressureOf), precomputed for policies.
	Pressure float64

	ArrivalSec float64
	// StartSec is when the job first began executing; -1 while queued.
	StartSec float64
	// FinishSec is when the job completed; -1 while unfinished.
	FinishSec float64
	// Node is the index of the node the job runs on; -1 while queued.
	Node int
	// Deferrals counts scheduling windows in which the policy declined to
	// place the job.
	Deferrals int
	// Done reports completion; Inaccuracy is the work-weighted output
	// quality loss in percent, final once Done.
	Done       bool
	Inaccuracy float64

	// Retries counts how many times a node crash threw the job back into
	// the pending queue; Lost marks a job dropped after exhausting its retry
	// budget (fault injection only).
	Retries int
	Lost    bool

	// remaining is the fraction of the job's nominal work still to run.
	remaining float64

	// retryAtSec is the virtual instant before which a requeued job is not
	// re-offered (crash-retry backoff); lastDomain is the failure domain
	// that crashed it, for anti-affinity spread (-1 when never crashed).
	retryAtSec float64
	lastDomain int
}

// WaitSec returns the time the job spent queued before starting, or its age
// at the horizon if it never started (horizonSec is only used then).
func (j Job) WaitSec(horizonSec float64) float64 {
	if j.StartSec >= 0 {
		return j.StartSec - j.ArrivalSec
	}
	return horizonSec - j.ArrivalSec
}

// NodeState is the live view of one node a policy decides against.
type NodeState struct {
	Index int
	Node  cluster.Node

	// Free is the number of unoccupied job slots.
	Free int
	// Resident lists the names of the jobs currently on the node.
	Resident []string
	// Pressure is the summed residual pressure of the resident jobs.
	Pressure float64
	// Telemetry is the node's Pliant runtime feedback from the most recent
	// window it was busy (zero value until then).
	Telemetry cluster.Telemetry
	// LoadMult is the service-load shape multiplier for the upcoming window.
	LoadMult float64
	// Lifecycle is the node's autoscaling state (always Active without an
	// autoscaler); non-active nodes are offered with Free = 0.
	Lifecycle autoscale.State
	// FreqState is the node's frequency-state index into the energy model's
	// ladder (0 until an energy model is attached).
	FreqState int
	// TelemetryStale marks Telemetry as a last-known-good snapshot: the
	// node's live feed dropped out (fault injection) and the values are
	// frozen at the dropout instant.
	TelemetryStale bool
}

// Config describes one online scheduling run.
type Config struct {
	// Seed drives all pseudo-randomness; equal configs reproduce results
	// byte-for-byte.
	Seed uint64

	// Nodes are the cluster's servers; every node needs MaxApps ≥ 1.
	Nodes []cluster.Node

	// Policy decides placement at every scheduling window.
	Policy Policy

	// Horizon is the cluster-time span of the run (default 240 s), rounded
	// down to a whole number of epochs.
	Horizon sim.Duration

	// Epoch is the scheduling window: placement decisions fire at its
	// boundaries and node episodes span it (default 12 s; must be at least
	// 1 s so episodes cover decision intervals).
	Epoch sim.Duration

	// JobsPerSec is the mean job arrival rate. Zero sizes a default so that
	// about two jobs per cluster slot arrive over the horizon.
	JobsPerSec float64

	// Arrivals overrides the Poisson job stream with a custom process.
	Arrivals workload.ArrivalProcess

	// Trace replays a production cluster trace (internal/trace) as the job
	// stream: each trace job arrives at its recorded instant (within the
	// horizon) and maps onto a catalog application by resource shape
	// (JobsFromTrace), so policies are judged on bursty, heavy-tailed
	// production arrivals rather than synthetic processes. Mutually
	// exclusive with Arrivals; overrides JobsPerSec. With a trace, JobNames
	// narrows the candidate catalog the mapping draws from instead of being
	// cycled directly. Works unchanged with Shards, Energy, and Autoscaler.
	Trace *trace.Trace

	// JobNames is the cycled sequence of catalog applications jobs draw
	// from; nil uses a seed-shuffled pass over the full catalog.
	JobNames []string

	// BaseLoad is the base offered load on every node's service (default
	// 0.70); the instantaneous load is BaseLoad times the Shape multiplier.
	BaseLoad float64

	// Shape is the cluster-horizon load shape (default steady).
	Shape workload.Shape

	// TimeScale multiplies the services' request timescale, as everywhere
	// in the repo; 1 = paper scale, 16 = fast profile.
	TimeScale float64

	// Deprecated: ignored; parallelism is Shards.
	Workers int

	// Shards is the run's parallelism: nodes are assigned round-robin to S
	// shards, each running its nodes' episodes every scheduling window on
	// its own scratch concurrently, with a deterministic merge barrier at
	// window boundaries (pending jobs, autoscaler verdicts, telemetry
	// roll-ups, and the energy ledger fold in a fixed order — see
	// DESIGN.md). Results are byte-identical for every value. Values below
	// 1 select GOMAXPROCS; values above the node count are clamped; 1 runs
	// every episode serially on the coordinator.
	Shards int

	// Energy attaches a per-node power model (internal/energy): episodes
	// report joules through their telemetry, idle/parked/waking draw is
	// accounted between episodes, and the Result carries cluster energy
	// totals plus per-boundary power series. Nil keeps all energy
	// accounting off and results byte-identical to prior versions.
	Energy *energy.Model

	// Autoscaler manages node lifecycle (park/wake with the model's wake
	// energy and delay) and frequency states at every scheduling boundary.
	// Requires Energy; nil keeps every node active at nominal frequency.
	Autoscaler autoscale.Controller

	// Faults attaches a fault-injection plan (internal/fault): node
	// crash/recover processes, scripted correlated outages, telemetry
	// dropout, and straggler windows, compiled into a deterministic event
	// schedule before the run starts and applied on the coordinator's serial
	// sections — so fault-injected runs stay byte-identical across shard
	// counts. Crashed nodes requeue their unfinished jobs with the plan's
	// retry budget and backoff; stragglers require Energy (they act through
	// the frequency path). Nil keeps all fault machinery off and results
	// byte-identical to prior versions.
	Faults *fault.Plan

	// Obs attaches the observability layer (internal/obs): a virtual-time
	// decision tracer, a metrics registry snapshotted at every window
	// boundary, and a wall-clock shard profiler. Every record and metric is
	// emitted from the run's serial coordinator sections, so obs outputs are
	// byte-identical at any shard count; enabling obs never perturbs the
	// simulation, so results are byte-identical to obs-off runs. Attach a
	// fresh Observer per run — registries are cumulative. Nil keeps
	// observability off with zero overhead on the hot path.
	Obs *obs.Observer
}

// withDefaults fills zero values.
func (c Config) withDefaults() Config {
	if c.Horizon == 0 {
		c.Horizon = 240 * sim.Second
	}
	if c.Epoch == 0 {
		c.Epoch = 12 * sim.Second
	}
	if c.Epoch > 0 {
		c.Horizon = c.Horizon / c.Epoch * c.Epoch
	}
	if c.BaseLoad == 0 {
		c.BaseLoad = 0.70
	}
	if c.Shape == nil {
		c.Shape = workload.Steady{}
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if n := len(c.Nodes); n > 0 && c.Shards > n {
		c.Shards = n
	}
	if c.JobsPerSec == 0 && c.Arrivals == nil && c.Trace == nil {
		slots := 0
		for _, n := range c.Nodes {
			slots += n.MaxApps
		}
		c.JobsPerSec = 2 * float64(slots) / c.Horizon.Seconds()
	}
	return c
}

// Validate reports configuration errors after defaulting.
func (c Config) Validate() error {
	switch {
	case len(c.Nodes) == 0:
		return fmt.Errorf("sched: no nodes")
	case c.Policy == nil:
		return fmt.Errorf("sched: no placement policy")
	case c.Epoch < sim.Second:
		return fmt.Errorf("sched: epoch %v below 1s", c.Epoch)
	case c.Horizon < c.Epoch:
		return fmt.Errorf("sched: horizon %v shorter than one epoch %v", c.Horizon, c.Epoch)
	case c.BaseLoad <= 0 || c.BaseLoad > 1.5:
		return fmt.Errorf("sched: base load %v outside (0, 1.5]", c.BaseLoad)
	case c.TimeScale <= 0:
		return fmt.Errorf("sched: time scale must be positive")
	case c.Trace == nil && c.Arrivals == nil && c.JobsPerSec <= 0:
		return fmt.Errorf("sched: job arrival rate must be positive")
	case c.Trace != nil && c.Arrivals != nil:
		return fmt.Errorf("sched: Trace and Arrivals are mutually exclusive job streams")
	case c.Trace != nil && len(c.Trace.Jobs) == 0:
		return fmt.Errorf("sched: trace replay with an empty trace")
	case c.Autoscaler != nil && c.Energy == nil:
		return fmt.Errorf("sched: autoscaler %s needs an energy model", c.Autoscaler.Name())
	}
	if c.Energy != nil {
		if err := c.Energy.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(len(c.Nodes), c.Energy != nil); err != nil {
			return err
		}
	}
	for i, n := range c.Nodes {
		if n.MaxApps < 1 {
			return fmt.Errorf("sched: node %d (%s) needs MaxApps ≥ 1", i, n.Name)
		}
	}
	for _, name := range c.JobNames {
		if _, err := app.ByName(name); err != nil {
			return err
		}
	}
	return nil
}

// JobOutcome is the per-job record in a Result.
type JobOutcome struct {
	ID         int
	App        string
	Node       string // "" if never placed
	ArrivalSec float64
	StartSec   float64 // -1 if never placed
	FinishSec  float64 // -1 if unfinished
	WaitSec    float64
	Done       bool
	Inaccuracy float64 // percent, final only when Done

	// Retries counts crash-driven requeues; Lost marks a job dropped after
	// exhausting its retry budget. Zero/false without fault injection.
	Retries int
	Lost    bool
}

// Result aggregates one online scheduling run.
type Result struct {
	Policy     string
	HorizonSec float64
	EpochSec   float64

	// Arrived / Placed / Completed / Pending count jobs that entered the
	// system, ever started, finished, and never started, respectively.
	Arrived   int
	Placed    int
	Completed int
	Pending   int

	// MeanWaitSec and MaxWaitSec cover placed jobs (queued-forever jobs are
	// reported via Pending, not folded into the mean).
	MeanWaitSec float64
	MaxWaitSec  float64

	// QoSMetFrac is the fraction of busy node-windows whose telemetry met
	// QoS — the service-side cost of each placement policy.
	QoSMetFrac float64

	// MeanUtilization is the mean fraction of occupied job slots across
	// scheduling windows.
	MeanUtilization float64

	// MeanInaccuracy averages quality loss over completed jobs.
	MeanInaccuracy float64

	// Episodes counts node-window colocation episodes simulated.
	Episodes int

	// Energy totals, all zero unless Config.Energy was set: cluster energy
	// over the horizon, its mean draw, how many node-windows nodes spent
	// parked or running busy below nominal frequency, and how many wake
	// transitions fired (each costing the model's wake energy).
	Joules             float64
	MeanWatts          float64
	ParkedNodeWindows  int
	LowFreqNodeWindows int
	Wakes              int

	// NodeJoules breaks the energy down per node, in node order.
	NodeJoules []NodeEnergy

	// Fault counters, all zero unless Config.Faults was set: crash and
	// recovery events applied, crash-driven job requeues, jobs dropped past
	// their retry budget, and boundary node-window censuses of nodes down,
	// telemetry-stale, and straggling. The retry ledger balances by
	// construction: Arrived = Placed + Pending + JobsLost, and Requeued sums
	// every job's Retries.
	Crashes              int
	Recoveries           int
	Requeued             int
	JobsLost             int
	DownNodeWindows      int
	StaleNodeWindows     int
	StragglerNodeWindows int

	Jobs []JobOutcome

	// Trace records the cluster-horizon series: "queue.depth",
	// "utilization", "running" at each window start; "qosmet" and
	// "p99.worst" at each window end; with an energy model also
	// "watts.cluster", "nodes.active", and "nodes.parked" per window.
	Trace *stats.Trace

	// ShardProfiles is the wall-clock account of each shard (slot 0 is the
	// shard the coordinator runs itself), populated only when
	// Config.Obs carried a profiler. Wall time is non-deterministic, so the
	// profiles are deliberately excluded from the JSON/CSV exports and every
	// golden-pinned artifact.
	ShardProfiles []obs.ShardProfile

	// Truncated marks a run finalized before its horizon — an interrupted
	// CLI flushing partial output, or a drained daemon session. Complete
	// runs leave it false, so the exports of a full day are unchanged.
	Truncated bool
}

// NodeEnergy is one node's share of the cluster energy ledger.
type NodeEnergy struct {
	Node   string
	Joules float64
}

// nodeRT is the scheduler's runtime state for one node.
type nodeRT struct {
	node     cluster.Node
	resident []*Job
	tel      cluster.Telemetry
	busy     int // windows with residents
	met      int // busy windows meeting QoS

	// Energy/lifecycle state (meaningful only with Config.Energy): the
	// autoscaling state, the frequency-state index, when a waking node
	// becomes placeable, and the node's energy ledger.
	state  autoscale.State
	freq   int
	wakeAt sim.Time
	joules float64

	// Fault state (meaningful only with Config.Faults): the scheduler's
	// last-known-good telemetry snapshot served while the live feed is stale
	// (until staleUntil), and the end of the node's straggler window.
	lastGood      cluster.Telemetry
	staleUntil    float64
	straggleUntil float64
}

// run carries one executing schedule.
type run struct {
	cfg   Config
	eng   *sim.Engine
	rng   *sim.RNG
	names []string

	nodes   []*nodeRT
	slots   int
	jobs    []*Job
	pending []*Job

	// Per-window buffers, rewritten every window: the policies' node
	// snapshot (each state keeps its Resident array), the autoscaler's node
	// views, and the spare half of the pending queue's double buffer, which
	// place fills with the jobs that stay queued and then swaps with
	// pending. Policies and autoscalers are lent them for the call only.
	states   []NodeState
	views    []autoscale.NodeView
	stillBuf []*Job

	window   int // index of the next window to simulate
	episodes int
	utilSum  float64
	utilN    int
	trace    *stats.Trace
	err      error

	// results[i] is node i's episode outcome for the window being merged,
	// reused across windows (only busy slots are written and read).
	results []episode

	// shards runs every window's node episodes (see shard.go).
	shards *shardGroup

	// faults is the fault-injection runtime (nil without Config.Faults).
	faults *faultRT

	// Energy counters (active only with cfg.Energy).
	parkedWindows  int
	lowFreqWindows int
	wakes          int

	// metrics holds the run's registered obs instruments (all nil with
	// cfg.Obs == nil or no registry — see obs.go).
	metrics schedMetrics
}

// Run executes one online scheduling study. It is the batch form of the
// step-driven Runner: construct, pump every window, finalize. Stepping is
// byte-identical to the previous monolithic engine run (golden-pinned), so
// the serving daemon and this batch path cannot drift apart.
func Run(cfg Config) (Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	defer r.Close()
	for {
		more, err := r.StepWindow()
		if err != nil {
			return Result{}, err
		}
		if !more {
			break
		}
	}
	return r.Finalize()
}

// arrive admits one job into the pending queue.
func (s *run) arrive() {
	name := s.names[len(s.jobs)%len(s.names)]
	prof, err := app.ByName(name)
	if err != nil {
		s.fail(err)
		return
	}
	j := &Job{
		ID:         len(s.jobs),
		App:        prof,
		Pressure:   PressureOf(prof),
		ArrivalSec: s.eng.Now().Seconds(),
		StartSec:   -1,
		FinishSec:  -1,
		Node:       -1,
		remaining:  1,
		lastDomain: -1,
	}
	s.jobs = append(s.jobs, j)
	s.pending = append(s.pending, j)
	s.obsJobArrived()
}

// boundary fires at the end of every scheduling window: it simulates the
// window that just elapsed, folds in completions, telemetry, and energy,
// steps the node lifecycle machine, lets the autoscaler actuate, then lets
// the policy drain the pending queue into the freed capacity for the next
// window.
func (s *run) boundary(now sim.Time) {
	if s.err != nil {
		return
	}
	epBefore := s.episodes
	s.faultPrep(now)
	s.simulateWindow(now)
	if s.err != nil {
		return
	}
	if now < sim.Time(s.cfg.Horizon) {
		s.stepLifecycle(now)
		s.autoscale(now)
		if s.err != nil {
			return
		}
		s.place(now)
		s.recordOccupancy(now)
	}
	s.obsWindow(now, s.episodes-epBefore)
	s.window++
}

// stepLifecycle applies the time-driven transitions at a boundary: drained
// nodes park, waking nodes whose delay elapsed become placeable.
func (s *run) stepLifecycle(now sim.Time) {
	for i, n := range s.nodes {
		switch n.state {
		case autoscale.Draining:
			if len(n.resident) == 0 {
				n.state = autoscale.Parked
				s.obsLifecycle(now, i, autoscale.Draining, autoscale.Parked)
			}
		case autoscale.Waking:
			if now >= n.wakeAt {
				n.state = autoscale.Active
				s.obsLifecycle(now, i, autoscale.Waking, autoscale.Active)
			}
		}
	}
}

// autoscale consults the lifecycle controller and applies its actions.
func (s *run) autoscale(now sim.Time) {
	if s.cfg.Autoscaler == nil {
		return
	}
	view := autoscale.View{
		NowSec:  now.Seconds(),
		Pending: len(s.pending),
		Nominal: s.cfg.Energy.Nominal(),
		Nodes:   s.views[:0],
	}
	for i, n := range s.nodes {
		tel, stale := s.viewTelemetry(i, now.Seconds())
		view.Nodes = append(view.Nodes, autoscale.NodeView{
			Index:      i,
			State:      n.state,
			Service:    n.node.Service.String(),
			Resident:   len(n.resident),
			Slots:      n.node.MaxApps,
			Freq:       n.freq,
			P99OverQoS: tel.P99OverQoS,
			Reports:    tel.Reports,
			Stale:      stale,
		})
	}
	s.views = view.Nodes
	for _, act := range s.cfg.Autoscaler.Decide(view) {
		if act.Node < 0 || act.Node >= len(s.nodes) {
			s.fail(fmt.Errorf("sched: autoscaler %s acted on unknown node %d", s.cfg.Autoscaler.Name(), act.Node))
			return
		}
		n := s.nodes[act.Node]
		switch act.Kind {
		case autoscale.Park:
			if n.state != autoscale.Active {
				continue
			}
			if len(n.resident) > 0 {
				n.state = autoscale.Draining
			} else {
				n.state = autoscale.Parked
			}
			s.obsAutoscale(now, act)
			s.obsLifecycle(now, act.Node, autoscale.Active, n.state)
		case autoscale.Wake:
			if n.state != autoscale.Parked {
				continue
			}
			n.state = autoscale.Waking
			n.wakeAt = now.Add(s.cfg.Energy.WakeDelay)
			n.freq = s.cfg.Energy.Nominal() // fresh nodes resume at nominal
			n.joules += s.cfg.Energy.WakeJ
			s.wakes++
			s.obsWakeEnergy(s.cfg.Energy.WakeJ)
			s.obsAutoscale(now, act)
			s.obsLifecycle(now, act.Node, autoscale.Parked, autoscale.Waking)
		case autoscale.SetFreq:
			if act.Freq < 0 || act.Freq >= len(s.cfg.Energy.FreqGHz) {
				s.fail(fmt.Errorf("sched: autoscaler %s set node %s to unknown frequency state %d",
					s.cfg.Autoscaler.Name(), n.node.Name, act.Freq))
				return
			}
			n.freq = act.Freq
			s.obsAutoscale(now, act)
		}
	}
}

// episodeSeed derives the deterministic seed of one node-window episode. The
// per-node seed and the window counter combine by carry-propagating addition
// and pass through the splitmix64 finalizer (sim.Mix64), replacing a bare
// XOR of multiplied counters. The XOR form had structured collisions across
// (node, window) pairs — NodeSeed(s, a) ^ w·C and NodeSeed(s, b) ^ v·C meet
// whenever the products differ by the same bits as the node terms, which
// carryless XOR makes easy to hit — silently correlating episode RNG
// streams. With addition, a within-run collision needs Δnode·φ ≡ Δwindow·C
// (mod 2⁶⁴) for bounded deltas — lattice-sparse rather than bit-structured —
// and the final mix decorrelates the streams of any near-colliding inputs.
func episodeSeed(seed uint64, node, window int) uint64 {
	return sim.Mix64(cluster.NodeSeed(seed, node) + uint64(window+1)*0xbf58476d1ce4e5b9)
}

// episode is the outcome of one node's window simulation.
type episode struct {
	// apps is the shard Scratch's result rows, recycled by the shard's next
	// episode: only foldEpisode reads it, straight after the episode.
	apps   []colocate.AppResult
	tel    cluster.Telemetry
	joules float64      // episode energy (with an energy model)
	span   sim.Duration // simulated span; < epoch when all apps finished
	err    error
}

// runEpisode executes node i's colocation for the window starting at
// winStart on shard sh, whose episode buffers it rewrites. It reads node and
// resident state but mutates nothing else — safe to call from the owning
// shard's goroutine as long as the node's fold has not happened yet.
func (s *run) runEpisode(i int, winStart float64, sh *shardRT) episode {
	n := s.nodes[i]
	sh.names, sh.scales = sh.names[:0], sh.scales[:0]
	for _, job := range n.resident {
		sh.names = append(sh.names, job.App.Name)
		sh.scales = append(sh.scales, job.remaining)
	}
	sh.shape = workload.Shifted{Inner: s.cfg.Shape, BySec: winStart}
	sh.tel = cluster.Telemetry{}
	if sh.observe == nil {
		sh.observe = sh.tel.Observe
	}
	nr := cluster.NodeRun{
		Seed:         episodeSeed(s.cfg.Seed, i, s.window),
		Node:         n.node,
		AppNames:     sh.names,
		AppWorkScale: sh.scales,
		LoadFraction: s.cfg.BaseLoad,
		LoadShape:    &sh.shape,
		TimeScale:    s.cfg.TimeScale,
		MaxDuration:  s.cfg.Epoch,
		OnReport:     sh.observe,
		Scratch:      sh.scratch,
	}
	if s.cfg.Energy != nil {
		nr.EnergyModel = s.cfg.Energy
		nr.FreqGHz = s.cfg.Energy.FreqAt(n.freq)
	}
	if f := s.faults; f != nil {
		if at := f.crashAt[i]; at >= 0 {
			// The node dies mid-window: truncate its episode at the crash
			// instant (floored at a millisecond for a boundary-adjacent crash).
			d := at - winStart
			if d < 1e-3 {
				d = 1e-3
			}
			nr.MaxDuration = sim.Duration(d * float64(sim.Second))
		}
		if n.straggleUntil > winStart {
			// Straggler: degraded effective frequency. Only reachable with an
			// energy model (Plan.Validate enforces), so FreqGHz is set.
			nr.FreqGHz *= f.plan.Factor()
		}
	}
	res, err := cluster.RunNode(nr)
	return episode{apps: res.Apps, tel: sh.tel, joules: res.Joules, span: res.Duration, err: err}
}

// foldEpisode applies node i's episode outcome: job completions and progress,
// the node's fresh telemetry, and its busy/met counters, folding the window
// roll-up into ws. It touches only node-i state (plus its resident jobs), so
// the owning shard may fold concurrently with other shards.
func (s *run) foldEpisode(i int, ep *episode, winStart float64, ws *cluster.WindowStats) {
	n := s.nodes[i]
	crashed := s.faults != nil && s.faults.crashAt[i] >= 0
	keep := n.resident[:0]
	for j, job := range n.resident {
		ar := ep.apps[j]
		if ar.Done {
			// Episode inaccuracy is relative to the episode's (remaining)
			// work; weight it back to whole-job terms.
			job.Inaccuracy += ar.Inaccuracy * job.remaining
			job.Done = true
			job.FinishSec = winStart + ar.ExecTime.Seconds()
			job.remaining = 0
		} else {
			if !crashed {
				job.Inaccuracy += ar.Inaccuracy * job.remaining
				job.remaining *= 1 - ar.Progress
			}
			// On a crashed node the unfinished jobs' work since the window
			// start is lost with the node — progress and inaccuracy roll back;
			// applyFaults requeues (or drops) them right after this fold.
			keep = append(keep, job)
		}
	}
	for j := len(keep); j < len(n.resident); j++ {
		n.resident[j] = nil
	}
	n.resident = keep
	n.tel = ep.tel
	n.busy++
	if ep.tel.QoSMet() {
		n.met++
	}
	ws.Fold(ep.tel)
}

// simulateWindow runs every occupied node's colocation for the window ending
// at now across the shards and merges the outcomes back into the shared
// cluster state in a deterministic order.
func (s *run) simulateWindow(now sim.Time) {
	var busyIdx []int
	for i, n := range s.nodes {
		if len(n.resident) > 0 {
			busyIdx = append(busyIdx, i)
		}
	}
	if s.results == nil {
		s.results = make([]episode, len(s.nodes))
	}

	// Every shard runs and folds its own nodes' episodes; shard roll-ups
	// merge in fixed shard order at the barrier.
	ws := s.shards.advance(now, busyIdx)
	for _, i := range busyIdx {
		if err := s.results[i].err; err != nil {
			s.fail(fmt.Errorf("sched: node %s window %d: %w", s.nodes[i].node.Name, s.window, err))
			return
		}
	}
	s.obsEpisodes(now, busyIdx)
	s.episodes += ws.Busy

	// Fault events due in the elapsed window mutate cluster state here, on
	// the coordinator, after the merge barrier — a serial section, so
	// fault-injected runs stay shard-invariant.
	s.applyFaults(now)

	// A node with no residents — idle all window, or just emptied by the
	// completions above — is its service running alone: it meets QoS by
	// construction, so it sheds any violation telemetry rather than
	// repelling the policy at this very boundary's placement pass.
	for _, n := range s.nodes {
		if len(n.resident) == 0 {
			n.tel = cluster.Telemetry{}
		}
	}

	s.accountWindow(now, s.results, busyIdx)

	if ws.Busy > 0 {
		s.trace.Series("qosmet").Append(now.Seconds(), float64(ws.Met)/float64(ws.Busy))
		s.trace.Series("p99.worst").Append(now.Seconds(), ws.WorstP99)
	}
}

// accountWindow folds the elapsed window into the cluster energy ledger:
// busy nodes contribute their episode's measured joules (plus idle draw for
// any early-finish remainder), idle active nodes the draw of their service
// riding alone, parked nodes the suspend floor, waking nodes the idle floor
// while they resume. Per-node sums accrue in node order, so totals stay
// byte-deterministic regardless of shard count.
func (s *run) accountWindow(now sim.Time, results []episode, busyIdx []int) {
	if s.cfg.Energy == nil {
		return
	}
	m := s.cfg.Energy
	ran := make([]bool, len(s.nodes))
	for _, i := range busyIdx {
		ran[i] = true
	}
	epochSec := s.cfg.Epoch.Seconds()
	nowSec := now.Seconds()
	winStart := nowSec - epochSec
	mid := nowSec - epochSec/2
	effLoad := s.cfg.BaseLoad * workload.ClampMultiplier(s.cfg.Shape.Multiplier(mid))

	windowJ := 0.0
	active, parked := 0, 0
	for i, n := range s.nodes {
		// With fault injection the ledger charges against the state the node
		// HELD over the window (applyFaults already flipped it), splitting at
		// the crash instant: the live draw until the crash, nothing while
		// down, and the idle floor from recovery to the boundary. Recovery
		// never re-charges WakeJ — the repair time covers the boot. With
		// faults off every instant is -1 and the pre-window state is the
		// current one, so the arms reduce to the original ledger exactly.
		st, freq := n.state, n.freq
		crashAtSec, recAtSec := -1.0, -1.0
		if f := s.faults; f != nil {
			st, freq = f.preState[i], f.preFreq[i]
			crashAtSec, recAtSec = f.crashAt[i], f.recoveredAt[i]
		}
		recTail := 0.0
		if recAtSec >= 0 {
			recTail = m.IdleW * (nowSec - recAtSec)
		}
		var j float64
		switch {
		case ran[i]:
			ep := results[i]
			j = ep.joules
			if crashAtSec >= 0 {
				// The episode truncated at the crash; no solo remainder.
				j += recTail
			} else if rem := epochSec - ep.span.Seconds(); rem > 1e-9 {
				// Episode ended early (all jobs finished): the service rides
				// alone for the remainder.
				j += m.PowerAt(s.soloUtil(effLoad, freq), freq) * rem
			}
			if freq < m.Nominal() {
				s.lowFreqWindows++
			}
		case st == autoscale.Down:
			// Down since before the window: dark until recovery, if any.
			j = recTail
		case st == autoscale.Parked:
			if crashAtSec >= 0 {
				j = m.ParkedW*(crashAtSec-winStart) + recTail
			} else {
				j = m.ParkedW * epochSec
				s.parkedWindows++
			}
		case st == autoscale.Waking:
			if crashAtSec >= 0 {
				j = m.IdleW*(crashAtSec-winStart) + recTail
			} else {
				j = m.IdleW * epochSec
			}
		default:
			// Active (or draining) with no residents: the service alone.
			solo := m.PowerAt(s.soloUtil(effLoad, freq), freq)
			if crashAtSec >= 0 {
				j = solo*(crashAtSec-winStart) + recTail
			} else {
				j = solo * epochSec
			}
		}
		n.joules += j
		windowJ += j
		switch n.state {
		case autoscale.Active, autoscale.Draining:
			active++
		case autoscale.Parked:
			parked++
		}
	}
	s.trace.Series("watts.cluster").Append(nowSec, windowJ/epochSec)
	s.trace.Series("nodes.active").Append(nowSec, float64(active))
	s.trace.Series("nodes.parked").Append(nowSec, float64(parked))
	s.obsEnergyWindow(windowJ, active, parked)
}

// soloUtil estimates the socket utilization of a node whose interactive
// service runs with no colocated jobs: the offered load fraction, inflated
// by the frequency slowdown and clamped at saturation.
func (s *run) soloUtil(effLoad float64, freq int) float64 {
	u := effLoad * s.cfg.Energy.SlowdownAt(freq)
	if u > 1 {
		return 1
	}
	return u
}

// nodeStates snapshots the policy's view of the cluster for the window
// starting at now.
func (s *run) nodeStates(now sim.Time) []NodeState {
	mid := now.Seconds() + s.cfg.Epoch.Seconds()/2
	loadMult := workload.ClampMultiplier(s.cfg.Shape.Multiplier(mid))
	if len(s.states) != len(s.nodes) {
		s.states = make([]NodeState, len(s.nodes))
	}
	states := s.states
	for i, n := range s.nodes {
		st := &states[i]
		*st = NodeState{
			Index:     i,
			Node:      n.node,
			Free:      n.node.MaxApps - len(n.resident),
			LoadMult:  loadMult,
			Lifecycle: n.state,
			FreqState: n.freq,
			Resident:  st.Resident[:0],
		}
		if !n.state.Placeable() {
			// Draining, parked, and waking nodes accept no new jobs.
			st.Free = 0
		}
		for _, job := range n.resident {
			st.Resident = append(st.Resident, job.App.Name)
			st.Pressure += job.Pressure
		}
		st.Telemetry, st.TelemetryStale = s.viewTelemetry(i, now.Seconds())
	}
	return states
}

// place drains the pending queue in arrival order through the policy. The
// cluster snapshot is built once and updated incrementally as jobs land —
// only the chosen node's state changes between offers. free counts the
// snapshot's nodes with a free slot; once it reaches 0 the Policy contract
// leaves a policy no answer but -1, so the rest of the queue is deferred
// without offers.
func (s *run) place(now sim.Time) {
	if len(s.pending) == 0 {
		return
	}
	states := s.nodeStates(now)
	free := freeCandidates(states)
	obsOn := s.cfg.Obs != nil
	f := s.faults
	nowSec := now.Seconds()
	still := s.stillBuf[:0]
	for _, job := range s.pending {
		if f != nil && job.retryAtSec > nowSec {
			// Crash-retry backoff: the job is not offered yet, and the policy
			// never saw it, so this is not a deferral.
			still = append(still, job)
			continue
		}
		choice, err := -1, error(nil)
		switch {
		case free == 0:
			// Nothing to offer: deferred exactly as a -1 answer would be.
		case f != nil && job.lastDomain >= 0 && f.plan.DomainSize > 1:
			// Anti-affinity: offer the retried job with its failed domain's
			// free slots masked out, spreading retries away from the blast
			// radius. A preference, not a constraint — if the rest of the
			// cluster is full, the failed domain beats the queue. With every
			// free slot inside the domain the masked offer could only be
			// answered -1, so it is not made.
			lo, hi := f.plan.DomainNodes(job.lastDomain, len(s.nodes))
			f.maskFree = f.maskFree[:0]
			outside := free
			for k := lo; k < hi; k++ {
				f.maskFree = append(f.maskFree, states[k].Free)
				if states[k].Free > 0 {
					outside--
				}
				states[k].Free = 0
			}
			if outside > 0 {
				choice, err = s.offer(job, states)
			}
			for k := lo; k < hi; k++ {
				states[k].Free = f.maskFree[k-lo]
			}
			if err == nil && choice < 0 {
				choice, err = s.offer(job, states)
			}
		default:
			choice, err = s.offer(job, states)
		}
		if err != nil {
			s.fail(err)
			return
		}
		if obsOn {
			s.obsPlacement(now, job, choice, free)
		}
		if choice < 0 {
			job.Deferrals++
			still = append(still, job)
			continue
		}
		n := s.nodes[choice]
		job.Node = choice
		if job.StartSec < 0 {
			// A requeued job keeps its first start: the wait statistics
			// measure time-to-first-placement, not crash churn.
			job.StartSec = nowSec
		}
		n.resident = append(n.resident, job)
		st := &states[choice]
		st.Free--
		if st.Free == 0 {
			free--
		}
		st.Resident = append(st.Resident, job.App.Name)
		st.Pressure += job.Pressure
	}
	clear(s.pending) // the spare half holds no stale job pointers
	s.stillBuf = s.pending[:0]
	s.pending = still
}

// offer asks the policy to place job and holds the answer to the Policy
// contract: -1, or the Index of a node offered with a free slot. It is
// checked against the slice the policy saw, so a node masked for
// anti-affinity counts as full even if it has room.
func (s *run) offer(job *Job, states []NodeState) (int, error) {
	choice := s.cfg.Policy.Place(*job, states)
	switch {
	case choice < 0:
		return -1, nil
	case choice >= len(states):
		return 0, fmt.Errorf("sched: policy %s placed job %d on unknown node %d", s.cfg.Policy.Name(), job.ID, choice)
	case states[choice].Free <= 0:
		return 0, fmt.Errorf("sched: policy %s placed job %d on node %s, which was offered with no free slot",
			s.cfg.Policy.Name(), job.ID, s.nodes[choice].node.Name)
	}
	return choice, nil
}

// freeCandidates counts the nodes with a free slot — place's starting
// count, and the tracer's candidate denominator.
func freeCandidates(states []NodeState) int {
	c := 0
	for i := range states {
		if states[i].Free > 0 {
			c++
		}
	}
	return c
}

// recordOccupancy appends the window-start series the schedule-horizon
// figures plot.
func (s *run) recordOccupancy(now sim.Time) {
	running := 0
	for _, n := range s.nodes {
		running += len(n.resident)
	}
	util := float64(running) / float64(s.slots)
	t := now.Seconds()
	s.trace.Series("queue.depth").Append(t, float64(len(s.pending)))
	s.trace.Series("running").Append(t, float64(running))
	s.trace.Series("utilization").Append(t, util)
	s.utilSum += util
	s.utilN++
}

// fail records the first error and halts the event loop.
func (s *run) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.eng.Stop()
}

// finalize folds the run into a Result.
func (s *run) finalize() Result {
	out := Result{
		Policy:     s.cfg.Policy.Name(),
		HorizonSec: s.cfg.Horizon.Seconds(),
		EpochSec:   s.cfg.Epoch.Seconds(),
		Arrived:    len(s.jobs),
		Episodes:   s.episodes,
		Trace:      s.trace,
	}
	busy, met := 0, 0
	for _, n := range s.nodes {
		busy += n.busy
		met += n.met
	}
	out.QoSMetFrac = 1
	if busy > 0 {
		out.QoSMetFrac = float64(met) / float64(busy)
	}
	if s.utilN > 0 {
		out.MeanUtilization = s.utilSum / float64(s.utilN)
	}
	if s.cfg.Energy != nil {
		for _, n := range s.nodes {
			out.Joules += n.joules
			out.NodeJoules = append(out.NodeJoules, NodeEnergy{Node: n.node.Name, Joules: n.joules})
		}
		if out.HorizonSec > 0 {
			out.MeanWatts = out.Joules / out.HorizonSec
		}
		out.ParkedNodeWindows = s.parkedWindows
		out.LowFreqNodeWindows = s.lowFreqWindows
		out.Wakes = s.wakes
	}
	if f := s.faults; f != nil {
		out.Crashes = f.crashes
		out.Recoveries = f.recoveries
		out.Requeued = f.requeued
		out.DownNodeWindows = f.downWindows
		out.StaleNodeWindows = f.staleWindows
		out.StragglerNodeWindows = f.stragglerWindows
	}
	if o := s.cfg.Obs; o != nil && o.Profile != nil {
		out.ShardProfiles = o.Profile.Shards()
	}

	waitSum := 0.0
	var inaccs []float64
	for _, j := range s.jobs {
		o := JobOutcome{
			ID:         j.ID,
			App:        j.App.Name,
			ArrivalSec: j.ArrivalSec,
			StartSec:   j.StartSec,
			FinishSec:  j.FinishSec,
			Done:       j.Done,
			Inaccuracy: j.Inaccuracy,
			WaitSec:    j.WaitSec(out.HorizonSec),
			Retries:    j.Retries,
			Lost:       j.Lost,
		}
		if j.Node >= 0 {
			o.Node = s.nodes[j.Node].node.Name
			out.Placed++
			waitSum += o.WaitSec
			if o.WaitSec > out.MaxWaitSec {
				out.MaxWaitSec = o.WaitSec
			}
		} else if j.Lost {
			// Dropped past its retry budget: neither placed nor pending. The
			// Arrived == Placed + Pending + JobsLost ledger balances by
			// construction because this is a per-job census.
			out.JobsLost++
		} else {
			out.Pending++
		}
		if j.Done {
			out.Completed++
			inaccs = append(inaccs, j.Inaccuracy)
		}
		out.Jobs = append(out.Jobs, o)
	}
	if out.Placed > 0 {
		out.MeanWaitSec = waitSum / float64(out.Placed)
	}
	out.MeanInaccuracy = stats.Mean(inaccs)
	return out
}

// Compare runs the same arrival stream under several policies and returns
// results in policy order.
func Compare(cfg Config, policies ...Policy) ([]Result, error) {
	out := make([]Result, 0, len(policies))
	for _, pol := range policies {
		c := cfg
		c.Policy = pol
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("sched: policy %s: %w", pol.Name(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Render prints a policy comparison table.
func Render(results []Result) string {
	s := "online scheduling comparison\n"
	s += fmt.Sprintf("  %-18s %9s %10s %10s %8s %11s %11s\n",
		"policy", "QoS met", "mean wait", "max wait", "util", "mean inacc", "done/arrived")
	for _, r := range results {
		s += fmt.Sprintf("  %-18s %8.0f%% %9.1fs %9.1fs %7.0f%% %10.2f%% %7d/%d\n",
			r.Policy, r.QoSMetFrac*100, r.MeanWaitSec, r.MaxWaitSec,
			r.MeanUtilization*100, r.MeanInaccuracy, r.Completed, r.Arrived)
	}
	withEnergy := false
	for _, r := range results {
		if r.Joules > 0 {
			withEnergy = true
			break
		}
	}
	if withEnergy {
		s += "cluster energy\n"
		s += fmt.Sprintf("  %-18s %9s %8s %8s %8s %6s\n",
			"policy", "energy", "mean W", "parked", "lowfreq", "wakes")
		for _, r := range results {
			if r.Joules == 0 {
				continue
			}
			s += fmt.Sprintf("  %-18s %7.0fkJ %7.0fW %7dw %7dw %6d\n",
				r.Policy, r.Joules/1000, r.MeanWatts,
				r.ParkedNodeWindows, r.LowFreqNodeWindows, r.Wakes)
		}
	}
	return s
}
