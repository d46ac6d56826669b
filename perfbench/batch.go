package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/export"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/trace"
	"github.com/approx-sched/pliant/internal/workload"
)

// roundRobinNodes is an n-node cluster cycling memcached, nginx and mongodb.
func roundRobinNodes(n int) []cluster.Node {
	classes := []service.Class{service.Memcached, service.NGINX, service.MongoDB}
	nodes := make([]cluster.Node, n)
	for i := range nodes {
		cls := classes[i%len(classes)]
		nodes[i] = cluster.Node{Name: fmt.Sprintf("%s-%d", cls, i), Service: cls, MaxApps: 3}
	}
	return nodes
}

// dayConfig is the day-episodes run: a 48-node diurnal day whose wall time is
// almost all request-level episode simulation. Jobs arrive at a fixed gap in
// catalog order rather than as a Poisson stream of seed-shuffled jobs: the
// day's work then barely depends on the seed (a Poisson count moved the run
// time by 15% from seed to seed). The seed drives every episode.
func dayConfig(seed uint64, tiny bool) sched.Config {
	nodes, horizon := 48, 120
	if tiny {
		nodes, horizon = 6, 20
	}
	shape, _ := workload.NewDiurnal(0.25, 120)
	return sched.Config{
		Seed:      seed,
		Nodes:     roundRobinNodes(nodes),
		Policy:    sched.TelemetryAware{},
		Horizon:   sim.Duration(horizon) * sim.Second,
		Epoch:     10 * sim.Second,
		Arrivals:  workload.Uniform{QPS: 0.8},
		JobNames:  app.Names(),
		BaseLoad:  0.65,
		Shape:     shape,
		TimeScale: 16,
		Shards:    runtime.NumCPU(),
	}
}

// stormTrace is the storm's generated input: a Google-format trace.
func stormTrace(seed uint64, tiny bool) []byte {
	jobs := 100000
	if tiny {
		jobs = 2000
	}
	return trace.Synthesize(trace.SynthConfig{Format: trace.Google, Jobs: jobs, Seed: seed})
}

// stormConfig is the storm-coordinator run: 256 nodes in 1 s windows at a
// time scale that makes episodes tiny, so the coordinator's phases (placement
// over a long pending queue, energy ledger, autoscaler, faults, obs) carry a
// large share of the wall time.
func stormConfig(seed uint64, tr *trace.Trace, tiny bool) sched.Config {
	nodes, horizon := 256, 120
	if tiny {
		nodes, horizon = 16, 40
	}
	shape, _ := workload.NewDiurnal(0.25, 120)
	model := energy.ModelFor(platform.TablePlatform())
	return sched.Config{
		Seed:       seed,
		Nodes:      roundRobinNodes(nodes),
		Policy:     sched.TelemetryAware{},
		Horizon:    sim.Duration(horizon) * sim.Second,
		Epoch:      sim.Second,
		Trace:      tr,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  1024,
		Shards:     runtime.NumCPU(),
		Energy:     &model,
		Autoscaler: fault.DegradeUnderLoss{Normal: autoscale.Consolidate{ReserveSlots: 9}},
		Faults: &fault.Plan{
			MTTFSec:      300,
			MTTRSec:      10,
			DomainSize:   4,
			Outages:      []fault.Outage{{AtSec: 35, Domain: 1, DurationSec: 50}},
			StaleMTBFSec: 90,
			StaleDurSec:  15,
		},
		Obs: obs.New(obs.Options{}),
	}
}

// prepareFunc turns the generated inputs into a run config. It is the timed
// part of set-up before NewRunner, and fills rep's per-stage timings.
type prepareFunc func(rep *batchRun, l *spanLog, parent int64) (sched.Config, error)

// batchWorkload describes one batch workload to runBatch.
type batchWorkload struct {
	prepare prepareFunc
	// setupProbes is how many extra set-ups run before the measured phase,
	// so that setup_s is a median of several even when repeats are long.
	setupProbes int
	// obsOn says the end-to-end configuration already carries an observer;
	// the traced run then measures obs cost against an obs-off run.
	obsOn bool
}

// repMode selects how one repetition deviates from the end-to-end config.
type repMode int

const (
	modePlain  repMode = iota // the end-to-end configuration
	modeTraced                // plus spans and the shard profiler
	modeObsOff                // observer detached
	modeSerial                // Shards = 1, Workers = 1
)

func (m repMode) String() string {
	return [...]string{"plain", "traced", "obs-off", "serial"}[m]
}

// batchRun is one repetition: set-up, every window stepped, Finalize.
type batchRun struct {
	mode repMode

	setup     time.Duration // parse + normalize + NewRunner
	setupCPU  time.Duration // process CPU time of the set-up
	parse     time.Duration
	normalize time.Duration
	rows      int
	newRunner time.Duration

	run      time.Duration // first StepWindow to the return of Finalize
	steps    []time.Duration
	finalize time.Duration
	alloc    uint64        // bytes allocated over the run
	cpu      time.Duration // process CPU time over the run

	res    sched.Result
	digest string // sha256 of the result's JSON export
}

// batchRep runs one repetition in the given mode.
func (b *bench) batchRep(wl batchWorkload, mode repMode) (*batchRun, error) {
	var l *spanLog
	if mode == modeTraced {
		l = b.spans
	}
	rep := &batchRun{mode: mode}
	repID := l.id()
	c0 := processCPU()
	t0 := time.Now()
	cfg, err := wl.prepare(rep, l, repID)
	if err != nil {
		return nil, err
	}
	switch mode {
	case modeTraced:
		if cfg.Obs == nil {
			cfg.Obs = &obs.Observer{Profile: &obs.Profiler{}}
		}
	case modeObsOff:
		cfg.Obs = nil
	case modeSerial:
		cfg.Shards, cfg.Workers = 1, 1
	}
	tn := time.Now()
	r, err := sched.NewRunner(cfg)
	te := time.Now()
	if err != nil {
		return nil, err
	}
	rep.newRunner, rep.setup, rep.setupCPU = te.Sub(tn), te.Sub(t0), processCPU()-c0
	l.add(0, repID, 0, "sched.NewRunner", tn, te, nil)

	var prof *obs.Profiler
	if mode == modeTraced {
		prof = cfg.Obs.Profile
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var phaseSoFar int64
	cpu0 := processCPU()
	runStart := time.Now()
	for {
		ts := time.Now()
		more, err := r.StepWindow()
		te := time.Now()
		if err != nil {
			r.Close()
			return nil, err
		}
		rep.steps = append(rep.steps, te.Sub(ts))
		if l != nil {
			// The profiler's shard-0 account (episodes plus barrier wait)
			// grows by the window's episode phase; the rest of the step is
			// the coordinator.
			p0 := prof.Shards()[0]
			phase := p0.EpisodeNs + p0.BarrierWaitNs - phaseSoFar
			phaseSoFar += phase
			l.add(0, repID, l.id(), "sched.Runner.StepWindow", ts, te, map[string]int64{
				"window":           int64(r.Window()),
				"episode_phase_ns": phase,
				"coordinator_ns":   te.Sub(ts).Nanoseconds() - phase,
			})
		}
		if !more {
			break
		}
	}
	tf := time.Now()
	res, err := r.Finalize()
	te = time.Now()
	if err != nil {
		return nil, err
	}
	rep.finalize, rep.run = te.Sub(tf), te.Sub(runStart)
	rep.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	rep.alloc = ms.TotalAlloc - alloc0
	l.add(0, repID, 0, "sched.Runner.Finalize", tf, te, nil)
	l.add(repID, 0, 0, "rep."+mode.String(), t0, te, nil)

	rep.res = res
	var buf bytes.Buffer
	if err := export.WriteSchedResultJSON(&buf, res); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	rep.digest = hex.EncodeToString(sum[:])
	return rep, nil
}

// checkRep applies the output checks to one repetition: the job ledger
// balances, the run reached its horizon, and the export is byte-identical
// to the first repetition's (whatever the mode: shard count, profiler and
// observer never change results).
func (b *bench) checkRep(rep, first *batchRun) {
	res := rep.res
	b.check(res.Arrived == res.Placed+res.Pending+res.JobsLost,
		"%s ledger: arrived %d != placed %d + pending %d + lost %d", rep.mode, res.Arrived, res.Placed, res.Pending, res.JobsLost)
	b.check(!res.Truncated, "%s run truncated", rep.mode)
	b.check(rep.digest == first.digest, "%s export sha256 %s differs from first repeat %s", rep.mode, rep.digest, first.digest)
}

// runBatch measures a batch workload: set-up probes, then repetitions until
// the measured phase's time is up (at least two, so the digests can be
// compared), then, when traced, the comparison runs the layer metrics need.
func runBatch(b *bench, wl batchWorkload) error {
	var setups, setupsCPU []float64
	for i := 0; i < wl.setupProbes; i++ {
		c0 := processCPU()
		t0 := time.Now()
		cfg, err := wl.prepare(nil, nil, 0)
		if err != nil {
			return err
		}
		r, err := sched.NewRunner(cfg)
		d, c := time.Since(t0), processCPU()-c0
		if err != nil {
			return err
		}
		r.Close()
		setups = append(setups, d.Seconds())
		setupsCPU = append(setupsCPU, c.Seconds())
	}

	mode := modePlain
	if b.spans != nil {
		mode = modeTraced
	}
	var reps []*batchRun
	deadline := b.deadline(time.Now())
	for len(reps) < 2 || time.Now().Before(deadline) {
		rep, err := b.batchRep(wl, mode)
		b.op(err)
		if err != nil {
			return err
		}
		b.attempted += len(rep.steps) // every window stepped is an operation
		if len(reps) == 0 {
			b.logf("export sha256 %s", rep.digest)
		}
		reps = append(reps, rep)
		b.checkRep(rep, reps[0])
		b.logf("rep %d %-6s setup %.4fs run %.4fs cpu %.4fs alloc %.1fMB", len(reps), mode, rep.setup.Seconds(), rep.run.Seconds(), rep.cpu.Seconds(), float64(rep.alloc)/1e6)
	}

	var runs, cpus, allocs []float64
	for _, rep := range reps {
		runs = append(runs, rep.run.Seconds())
		cpus = append(cpus, rep.cpu.Seconds())
		allocs = append(allocs, float64(rep.alloc)/1e6)
		setups = append(setups, rep.setup.Seconds())
		setupsCPU = append(setupsCPU, rep.setupCPU.Seconds())
	}
	// Window latency: each window's median over the repeats, so one slow
	// repeat of the slowest window does not set the tail.
	windows := make([]float64, len(reps[0].steps))
	for w := range windows {
		var at []float64
		for _, rep := range reps {
			at = append(at, rep.steps[w].Seconds())
		}
		windows[w] = median(at)
	}
	b.e2e["cpu_s"] = median(cpus)
	b.e2e["setup_s"] = median(setupsCPU)
	b.e2e["alloc_mb"] = median(allocs)
	b.wall(median(runs), median(setups), quantile(windows, 0.50)*1e3, quantile(windows, 0.99)*1e3)
	b.logf("%d repeats of %d windows", len(reps), len(windows))
	if b.spans == nil {
		return nil
	}
	return b.batchLayers(wl, reps)
}

// batchLayers fills the per-layer metrics from the traced repetitions and
// from three more runs of the same inputs: the end-to-end configuration
// (tracing overhead), obs off (obs overhead) and one serial shard (speedup).
func (b *bench) batchLayers(wl batchWorkload, reps []*batchRun) error {
	var steps, coord, coordFrac, addup, newRunner, finalize []float64
	var barrier, eff, epUS, parse, rows, normalize []float64
	for _, rep := range reps {
		stepSum := sum(seconds(rep.steps))
		profs := rep.res.ShardProfiles
		phase := float64(profs[0].EpisodeNs+profs[0].BarrierWaitNs) / 1e9
		var episodeNs float64
		worst := 0.0
		for _, p := range profs {
			episodeNs += float64(p.EpisodeNs)
			worst = max(worst, p.BarrierWaitFrac())
		}
		// The ladder add-up checks: the spans around StepWindow and Finalize
		// cover the measured run, and the profiler's episode phase fits
		// inside the steps, leaving a non-negative coordinator share.
		up := (stepSum + rep.finalize.Seconds()) / rep.run.Seconds()
		b.check(up > 0.9 && up < 1.1, "ladder: steps + finalize cover %.3f of the repeat's wall time", up)
		b.check(phase >= 0 && phase <= stepSum, "ladder: episode phase %.4fs outside the %.4fs of steps", phase, stepSum)

		steps = append(steps, seconds(rep.steps)...)
		coord = append(coord, stepSum-phase)
		coordFrac = append(coordFrac, (stepSum-phase)/stepSum)
		addup = append(addup, up)
		newRunner = append(newRunner, rep.newRunner.Seconds()*1e3)
		finalize = append(finalize, rep.finalize.Seconds()*1e3)
		barrier = append(barrier, worst)
		eff = append(eff, episodeNs/1e9/(float64(len(profs))*phase))
		if rep.res.Episodes > 0 {
			epUS = append(epUS, episodeNs/1e3/float64(rep.res.Episodes))
		}
		if rep.rows > 0 {
			parse = append(parse, rep.parse.Seconds())
			rows = append(rows, float64(rep.rows)/rep.parse.Seconds())
			normalize = append(normalize, rep.normalize.Seconds()*1e3)
		}
	}
	res := reps[0].res
	set := func(name string, v float64) { b.layer[name] = v }
	set("sched.step_ms.p50", quantile(steps, 0.5)*1e3)
	set("sched.step_ms.max", maxOf(steps)*1e3)
	set("sched.windows", float64(len(reps[0].steps)))
	set("sched.coordinator_s", median(coord))
	set("sched.coordinator_frac", median(coordFrac))
	set("sched.newrunner_ms", median(newRunner))
	set("sched.finalize_ms", median(finalize))
	set("sched.pending_end", float64(res.Pending))
	set("shard.barrier_wait_frac", median(barrier))
	set("shard.parallel_eff", median(eff))
	set("colocate.episodes", float64(res.Episodes))
	set("colocate.episode_us.mean", median(epUS))
	set("trace.parse_s", median(parse))
	set("trace.rows_per_s", median(rows))
	set("trace.normalize_ms", median(normalize))
	set("fault.crashes", float64(res.Crashes))
	set("fault.requeued", float64(res.Requeued))
	set("autoscale.wakes", float64(res.Wakes))
	set("autoscale.parked_node_windows", float64(res.ParkedNodeWindows))
	set("ladder.addup_frac", median(addup))

	extra := map[repMode]*batchRun{}
	modes := []repMode{modePlain, modeSerial}
	if wl.obsOn {
		modes = append(modes, modeObsOff)
	}
	for _, mode := range modes {
		rep, err := b.batchRep(wl, mode)
		b.op(err)
		if err != nil {
			return err
		}
		b.checkRep(rep, reps[0])
		b.logf("rep %-7s run %.4fs", mode, rep.run.Seconds())
		extra[mode] = rep
	}
	var traced []float64
	for _, rep := range reps {
		traced = append(traced, rep.run.Seconds())
	}
	plain := extra[modePlain].run.Seconds()
	set("bench.trace_overhead_frac", median(traced)/plain-1)
	set("shard.speedup", extra[modeSerial].run.Seconds()/plain)
	if wl.obsOn {
		set("obs.overhead_frac", plain/extra[modeObsOff].run.Seconds()-1)
	} else {
		// The traced repetitions differ from the plain one only by the
		// attached profiler and the benchmark's spans.
		set("obs.overhead_frac", median(traced)/plain-1)
	}
	b.logSelfTimes()
	return b.ladderRungs()
}

// logSelfTimes prints each span name's total self time.
func (b *bench) logSelfTimes() {
	for name, d := range b.spans.selfTimes() {
		b.logf("self  %-32s %10.4fs", name, d.Seconds())
	}
}

// runDay is the day-episodes workload.
func runDay(b *bench) error {
	cfg := dayConfig(b.opts.seed, b.opts.tiny)
	return runBatch(b, batchWorkload{
		prepare:     func(*batchRun, *spanLog, int64) (sched.Config, error) { return cfg, nil },
		setupProbes: 25,
	})
}

// runStorm is the storm-coordinator workload. Trace synthesis makes the
// input and is not timed; parsing and normalizing it are set-up.
func runStorm(b *bench) error {
	raw := stormTrace(b.opts.seed, b.opts.tiny)
	maxJobs := 4000
	if b.opts.tiny {
		maxJobs = 200
	}
	b.logf("trace %d bytes", len(raw))
	prepare := func(rep *batchRun, l *spanLog, parent int64) (sched.Config, error) {
		t0 := time.Now()
		parsed, err := trace.Parse(bytes.NewReader(raw), trace.Google)
		if err != nil {
			return sched.Config{}, err
		}
		t1 := time.Now()
		tr, err := parsed.Normalize(trace.Options{TargetSpanSec: 108, MaxJobs: maxJobs})
		if err != nil {
			return sched.Config{}, err
		}
		t2 := time.Now()
		if rep != nil {
			rep.parse, rep.normalize, rep.rows = t1.Sub(t0), t2.Sub(t1), parsed.Rows
		}
		l.add(0, parent, 0, "trace.Parse", t0, t1, map[string]int64{"rows": int64(parsed.Rows)})
		l.add(0, parent, 0, "trace.Normalize", t1, t2, map[string]int64{"jobs": int64(len(tr.Jobs))})
		return stormConfig(b.opts.seed, tr, b.opts.tiny), nil
	}
	return runBatch(b, batchWorkload{prepare: prepare, setupProbes: 7, obsOn: true})
}
