// Step-driven run loop: the serving form of the scheduler. Run executes a
// whole study in one call; a Runner exposes the same run one scheduling
// window at a time, so a long-lived process (the pliant-served daemon, a
// signal-handling CLI) can pump the clock, inject externally submitted jobs
// between windows, and snapshot live state — without forking the execution
// path. Run itself is implemented on top of the Runner, and stepping is
// byte-identical to the monolithic loop: the engine processes the same
// events in the same (timestamp, sequence) order whether it runs to the
// horizon in one call or in per-window chunks, which the golden tests pin.
package sched

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
	"github.com/approx-sched/pliant/internal/workload"
)

// Runner is one online scheduling run advanced window by window. Create with
// NewRunner, advance with StepWindow, and fold into a Result with Finalize
// (or Close to abandon). A Runner is not safe for concurrent use; callers
// that share one across goroutines (the serve session manager) must
// serialize access themselves.
type Runner struct {
	s        *run
	stopTick func()
	windows  int // total scheduling windows over the horizon
	stepped  int // windows advanced so far
	closed   bool
}

// NewRunner validates the config and builds the run in its pre-horizon
// state: nodes initialized, arrival stream scheduled, boundary ticker armed,
// shard goroutines started, clock at zero. The caller must Close (Finalize
// closes too) to release the shard goroutines.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &run{
		cfg:   cfg,
		eng:   sim.NewEngine(),
		rng:   sim.NewRNG(cfg.Seed),
		trace: stats.NewTrace(),
	}
	s.names = cfg.JobNames
	if len(s.names) == 0 {
		s.names = cluster.ShuffledJobs(cfg.Seed, len(app.Names()))
	}
	nominalFreq := 0
	if cfg.Energy != nil {
		nominalFreq = cfg.Energy.Nominal()
	}
	for _, n := range cfg.Nodes {
		s.nodes = append(s.nodes, &nodeRT{node: n, state: autoscale.Active, freq: nominalFreq})
		s.slots += n.MaxApps
	}
	if cfg.Faults != nil {
		s.faults = newFaultRT(cfg)
	}
	s.initObs()

	arrivals := cfg.Arrivals
	if cfg.Trace != nil {
		// Trace replay: arrivals at the recorded instants (a fresh stream
		// per run — the cursor is consumed), app names mapped from the
		// trace's resource shapes so s.names[i] is exactly the i-th arrival.
		ts, err := workload.NewTraceStream(cfg.Trace.ArrivalTimes())
		if err != nil {
			return nil, err
		}
		names, err := JobsFromTrace(cfg.Trace, cfg.JobNames)
		if err != nil {
			return nil, err
		}
		arrivals = ts
		s.names = names
	}
	if arrivals == nil {
		p, err := workload.NewPoisson(cfg.JobsPerSec)
		if err != nil {
			return nil, err
		}
		arrivals = p
	}
	arrRNG := s.rng.Split(1)
	var scheduleArrival func()
	scheduleArrival = func() {
		s.eng.After(arrivals.Next(arrRNG, s.eng.Now()), func() {
			s.arrive()
			scheduleArrival()
		})
	}
	scheduleArrival()

	// Shard goroutines start only once nothing above can fail, so no error
	// return has goroutines to release.
	s.shards = newShardGroup(s, cfg.Shards)
	r := &Runner{
		s:       s,
		windows: int(cfg.Horizon / cfg.Epoch),
	}
	r.stopTick = s.eng.Ticker(cfg.Epoch, s.boundary)
	return r, nil
}

// StepWindow advances the run through exactly one scheduling window —
// episodes, merges, lifecycle, autoscaling, placement — and reports whether
// more windows remain before the horizon. Stepping the full horizon is
// byte-identical to Run on the same config.
func (r *Runner) StepWindow() (more bool, err error) {
	if r.closed {
		return false, fmt.Errorf("sched: runner closed")
	}
	if r.s.err != nil {
		return false, r.s.err
	}
	if r.stepped >= r.windows {
		return false, nil
	}
	r.stepped++
	r.s.eng.Run(sim.Time(int64(r.s.cfg.Epoch) * int64(r.stepped)))
	if r.s.err != nil {
		return false, r.s.err
	}
	return r.stepped < r.windows, nil
}

// Inject admits externally submitted jobs into the pending queue at the
// current instant, in argument order. Call between StepWindow calls (the
// serving daemon injects accepted submissions at window boundaries); the
// jobs are offered to the policy at the next boundary. The batch is
// all-or-nothing: an unknown catalog name rejects every job in it, so an
// accepted submission always reaches the arrival ledger.
func (r *Runner) Inject(names ...string) error {
	if r.closed {
		return fmt.Errorf("sched: runner closed")
	}
	profs := make([]app.Profile, len(names))
	for i, name := range names {
		p, err := app.ByName(name)
		if err != nil {
			return err
		}
		profs[i] = p
	}
	for _, prof := range profs {
		r.s.admit(prof)
	}
	return nil
}

// Windows returns the total number of scheduling windows over the horizon.
func (r *Runner) Windows() int { return r.windows }

// Window returns how many windows have been stepped.
func (r *Runner) Window() int { return r.stepped }

// NowSec returns the run's virtual clock in seconds.
func (r *Runner) NowSec() float64 { return r.s.eng.Now().Seconds() }

// Config returns the run's defaulted configuration.
func (r *Runner) Config() Config { return r.s.cfg }

// Snapshot is the live view of a stepping run, cheap enough to take at every
// window boundary: the serving layer's status endpoint, SSE window events,
// and shadow-replay verdict diffs all read from it.
type Snapshot struct {
	// Window / Windows locate the clock: windows completed over total.
	Window  int
	Windows int
	NowSec  float64

	// Job census, all live values: Arrived counts every admission (stream
	// and injected), Placed jobs that ever started, Completed finished jobs,
	// Pending the queue depth, Running resident jobs, Lost retry-budget
	// drops.
	Arrived   int
	Placed    int
	Completed int
	Pending   int
	Running   int
	Lost      int

	// QoSMetFrac and Joules accumulate exactly as in the final Result (1 and
	// 0 respectively before any busy window / without an energy model).
	QoSMetFrac float64
	Joules     float64

	// JobNodes maps job ID to its current node index (-1 while queued), the
	// raw material of shadow-replay placement diffs.
	JobNodes []int
}

// Snapshot captures the run's live state.
func (r *Runner) Snapshot() Snapshot {
	s := r.s
	snap := Snapshot{
		Window:  r.stepped,
		Windows: r.windows,
		NowSec:  s.eng.Now().Seconds(),
		Arrived: len(s.jobs),
		Pending: len(s.pending),
	}
	snap.JobNodes = make([]int, len(s.jobs))
	for i, j := range s.jobs {
		snap.JobNodes[i] = j.Node
		if j.Node >= 0 {
			snap.Placed++
		}
		if j.Done {
			snap.Completed++
		}
		if j.Lost {
			snap.Lost++
		}
	}
	busy, met := 0, 0
	for _, n := range s.nodes {
		snap.Running += len(n.resident)
		busy += n.busy
		met += n.met
		if s.cfg.Energy != nil {
			snap.Joules += n.joules
		}
	}
	snap.QoSMetFrac = 1
	if busy > 0 {
		snap.QoSMetFrac = float64(met) / float64(busy)
	}
	return snap
}

// Finalize folds the run into its Result and closes the runner. A run
// finalized before its horizon (a drained daemon session, an interrupted
// CLI) is marked Truncated, which the JSON/CSV exports surface, so partial
// artifacts are never mistaken for complete days.
func (r *Runner) Finalize() (Result, error) {
	if r.s.err != nil {
		r.Close()
		return Result{}, r.s.err
	}
	res := r.s.finalize()
	if r.stepped < r.windows {
		res.Truncated = true
	}
	r.Close()
	return res, nil
}

// Close releases the runner's resources (shard goroutines, the boundary
// ticker). Idempotent; Finalize calls it.
func (r *Runner) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.stopTick()
	r.s.shards.close()
}
