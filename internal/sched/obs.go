// Observability wiring: every emission into the obs subsystem happens here,
// and every emission happens from the run's serial coordinator sections
// (arrivals, boundary folds, lifecycle, autoscaling, placement) — never from
// shard goroutines. That single rule is the determinism argument:
// the records and metric increments of a run are a pure function of its
// virtual-time execution, which shard counts don't change, so obs outputs
// are byte-identical for shards=1/2/4. The wall-clock profiler is the one
// exception and lives on its own channel (see shard.go and
// obs.Profiler's contract).
package sched

import (
	"math"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/sim"
)

// schedMetrics holds the run's registered instruments so the record path is
// a pointer chase, never a registry lookup.
type schedMetrics struct {
	jobsArrived   *obs.Counter
	jobsPlaced    *obs.Counter
	jobsDeferred  *obs.Counter
	windows       *obs.Counter
	episodes      *obs.Counter
	episodesQoS   *obs.Counter
	parks         *obs.Counter
	wakes         *obs.Counter
	freqSteps     *obs.Counter
	joules        *obs.Counter
	dropsReplayed *obs.Counter
	crashes       *obs.Counter
	recoveries    *obs.Counter
	jobsRequeued  *obs.Counter
	jobsLost      *obs.Counter

	queueDepth  *obs.Gauge
	running     *obs.Gauge
	utilization *obs.Gauge
	nodesActive *obs.Gauge
	nodesParked *obs.Gauge
	nodesDown   *obs.Gauge

	jobWait    *obs.Histogram
	p99OverQoS *obs.Histogram
}

// initObs registers the run's instruments and emits the run-start records.
// Attach a fresh Observer per run: counters are cumulative, so a reused
// registry folds runs together.
func (s *run) initObs() {
	o := s.cfg.Obs
	if o == nil {
		return
	}
	if o.Profile != nil {
		o.Profile.Ensure(s.cfg.Shards)
	}
	if o.Metrics != nil {
		r := o.Metrics
		pol := obs.Label{Key: "policy", Value: s.cfg.Policy.Name()}
		m := &s.metrics
		m.jobsArrived = r.Counter("pliant_jobs_arrived_total", "Jobs admitted to the pending queue.")
		m.jobsPlaced = r.Counter("pliant_jobs_placed_total", "Jobs placed on a node.", pol)
		m.jobsDeferred = r.Counter("pliant_jobs_deferred_total", "Placement deferrals (admission control).", pol)
		m.windows = r.Counter("pliant_windows_total", "Scheduling windows simulated.")
		m.episodes = r.Counter("pliant_episodes_total", "Node-window colocation episodes simulated.")
		m.episodesQoS = r.Counter("pliant_episode_qos_met_total", "Episodes whose telemetry met QoS.")
		m.parks = r.Counter("pliant_autoscale_parks_total", "Autoscaler park verdicts applied.")
		m.wakes = r.Counter("pliant_autoscale_wakes_total", "Autoscaler wake verdicts applied.")
		m.freqSteps = r.Counter("pliant_autoscale_freq_steps_total", "Autoscaler frequency-state moves applied.")
		m.queueDepth = r.Gauge("pliant_queue_depth", "Pending jobs at the window boundary.")
		m.running = r.Gauge("pliant_jobs_running", "Resident jobs at the window boundary.")
		m.utilization = r.Gauge("pliant_slot_utilization", "Occupied fraction of job slots.")
		m.jobWait = r.Histogram("pliant_job_wait_seconds", "Queue wait of placed jobs.",
			[]float64{1, 5, 10, 20, 40, 80, 160, 320})
		m.p99OverQoS = r.Histogram("pliant_episode_p99_over_qos", "Per-episode recency-weighted p99/QoS ratio.",
			[]float64{0.25, 0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 3})
		if s.cfg.Energy != nil {
			m.joules = r.Counter("pliant_joules_total", "Cluster energy accumulated over the horizon.")
			m.nodesActive = r.Gauge("pliant_nodes_active", "Nodes active or draining at the window boundary.")
			m.nodesParked = r.Gauge("pliant_nodes_parked", "Nodes parked at the window boundary.")
		}
		if s.cfg.Trace != nil {
			m.dropsReplayed = r.Counter("pliant_trace_rows_dropped_total", "Trace rows dropped at ingestion.")
			m.dropsReplayed.Add(float64(s.cfg.Trace.Dropped))
		}
		if s.cfg.Faults != nil {
			m.crashes = r.Counter("pliant_faults_crashes_total", "Node crash events applied.")
			m.recoveries = r.Counter("pliant_faults_recoveries_total", "Node recovery events applied.")
			m.jobsRequeued = r.Counter("pliant_jobs_requeued_total", "Jobs thrown back to pending by a crash.")
			m.jobsLost = r.Counter("pliant_jobs_lost_total", "Jobs dropped past their retry budget.")
			m.nodesDown = r.Gauge("pliant_nodes_down", "Nodes down at the window boundary.")
		}
	}
	if o.Tracer != nil && s.cfg.Trace != nil {
		// A replayed trace is a cluster-scale run that wraps the ring: it
		// gets the whole ring here, at set-up, rather than growing it
		// window by window. Every other run grows the ring as it emits.
		o.Tracer.Reserve(math.MaxInt) // clamped to the capacity
		o.Tracer.Emit(obs.Record{
			At: 0, Kind: obs.KindReplayDrop, Node: -1, Window: 0,
			A: int64(s.cfg.Trace.Dropped), B: int64(s.cfg.Trace.Defaulted), C: int64(len(s.cfg.Trace.Jobs)),
		})
	}
}

// obsTracer returns the tracer, or nil when tracing is off.
func (s *run) obsTracer() *obs.Tracer {
	if s.cfg.Obs == nil {
		return nil
	}
	return s.cfg.Obs.Tracer
}

// obsJobArrived counts one admission.
func (s *run) obsJobArrived() {
	if s.metrics.jobsArrived != nil {
		s.metrics.jobsArrived.Inc()
	}
}

// obsEpisodes emits the elapsed window's episode records in global node
// order, reading the coordinator-owned results slice after the barrier.
func (s *run) obsEpisodes(now sim.Time, busyIdx []int) {
	o := s.cfg.Obs
	if o == nil {
		return
	}
	winStart := int64(now) - int64(s.cfg.Epoch)
	for _, i := range busyIdx {
		ep := &s.results[i]
		met := int64(0)
		if ep.tel.QoSMet() {
			met = 1
		}
		if o.Tracer != nil {
			o.Tracer.Emit(obs.Record{
				At: winStart, Kind: obs.KindEpisode, Node: int32(i), Window: int32(s.window),
				A: int64(ep.span), B: met, C: int64(ep.joules * 1e6),
			})
		}
		if m := &s.metrics; m.episodes != nil {
			m.episodes.Inc()
			if met == 1 {
				m.episodesQoS.Inc()
			}
			m.p99OverQoS.Observe(ep.tel.P99OverQoS)
		}
	}
}

// obsLifecycle records one node's lifecycle transition.
func (s *run) obsLifecycle(now sim.Time, node int, from, to autoscale.State) {
	if t := s.obsTracer(); t != nil {
		t.Emit(obs.Record{
			At: int64(now), Kind: obs.KindLifecycle, Node: int32(node), Window: int32(s.window),
			A: int64(from), B: int64(to),
		})
	}
}

// obsAutoscale records one applied autoscaler verdict.
func (s *run) obsAutoscale(now sim.Time, act autoscale.Action) {
	if t := s.obsTracer(); t != nil {
		t.Emit(obs.Record{
			At: int64(now), Kind: obs.KindAutoscale, Node: int32(act.Node), Window: int32(s.window),
			A: int64(act.Kind), B: int64(act.Freq),
		})
	}
	if m := &s.metrics; m.parks != nil {
		switch act.Kind {
		case autoscale.Park:
			m.parks.Inc()
		case autoscale.Wake:
			m.wakes.Inc()
		case autoscale.SetFreq:
			m.freqSteps.Inc()
		}
	}
}

// obsPlacement records one policy decision. candidates is how many offered
// nodes had free slots; choice is the node index or -1 for a deferral.
func (s *run) obsPlacement(now sim.Time, job *Job, choice, candidates int) {
	if t := s.obsTracer(); t != nil {
		t.Emit(obs.Record{
			At: int64(now), Kind: obs.KindPlacement, Node: int32(choice), Window: int32(s.window),
			A: int64(job.ID), B: int64(candidates), C: int64(job.Deferrals),
		})
	}
	if m := &s.metrics; m.jobsPlaced != nil {
		if choice >= 0 {
			m.jobsPlaced.Inc()
			m.jobWait.Observe(now.Seconds() - job.ArrivalSec)
		} else {
			m.jobsDeferred.Inc()
		}
	}
}

// obsWindow closes the boundary: the window marker record, the boundary
// gauges, and one metrics snapshot — the CSV row this window contributes.
func (s *run) obsWindow(now sim.Time, busy int) {
	o := s.cfg.Obs
	if o == nil {
		return
	}
	running := 0
	for _, n := range s.nodes {
		running += len(n.resident)
	}
	if o.Tracer != nil {
		o.Tracer.Emit(obs.Record{
			At: int64(now), Kind: obs.KindWindow, Node: -1, Window: int32(s.window),
			A: int64(len(s.pending)), B: int64(running), C: int64(busy),
		})
	}
	if m := &s.metrics; m.windows != nil {
		m.windows.Inc()
		m.queueDepth.Set(float64(len(s.pending)))
		m.running.Set(float64(running))
		m.utilization.Set(float64(running) / float64(s.slots))
		o.Metrics.Snapshot(now.Seconds())
	}
}

// obsEnergyWindow folds the elapsed window's energy ledger into the metrics
// channel (joules counter, lifecycle-census gauges).
func (s *run) obsEnergyWindow(windowJ float64, active, parked int) {
	if m := &s.metrics; m.joules != nil {
		m.joules.Add(windowJ)
		m.nodesActive.Set(float64(active))
		m.nodesParked.Set(float64(parked))
	}
}

// obsFault records one applied fault event. payload is kind-specific: jobs
// requeued for a crash, condition length in virtual ms for a dropout or
// straggler window.
func (s *run) obsFault(now sim.Time, ev fault.Event, payload int64) {
	if t := s.obsTracer(); t != nil {
		t.Emit(obs.Record{
			At: int64(now), Kind: obs.KindFault, Node: int32(ev.Node), Window: int32(s.window),
			A: int64(ev.Kind), B: payload,
		})
	}
	if m := &s.metrics; m.crashes != nil {
		switch ev.Kind {
		case fault.Crash:
			m.crashes.Inc()
			m.jobsRequeued.Add(float64(payload))
		case fault.Recover:
			m.recoveries.Inc()
		}
	}
}

// obsFaultWindow sets the boundary's down-node census gauge.
func (s *run) obsFaultWindow(down int) {
	if m := &s.metrics; m.nodesDown != nil {
		m.nodesDown.Set(float64(down))
	}
}

// obsJobLost counts one job dropped past its retry budget.
func (s *run) obsJobLost() {
	if s.metrics.jobsLost != nil {
		s.metrics.jobsLost.Inc()
	}
}

// obsWakeEnergy charges a wake transition's energy to the joules counter —
// it lands on the node ledger outside the window accounting, so the counter
// would otherwise undercount Result.Joules by WakeJ per wake.
func (s *run) obsWakeEnergy(j float64) {
	if s.metrics.joules != nil {
		s.metrics.joules.Add(j)
	}
}
