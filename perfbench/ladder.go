package main

import (
	"runtime"
	"time"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// The lower rungs of the layer ladder, each timed directly on its public
// entry point with the shape it has inside the workloads: typed-event
// dispatch in sim, one request through a service instance, and one colocate
// episode of the storm's and of the day's shape. Every traced run measures
// them, so they read the same on every workload.

// ladderRungs fills the sim, service and colocate rung metrics.
func (b *bench) ladderRungs() error {
	n := 1
	if b.opts.tiny {
		n = 0
	}
	b.timed("sim.Engine.Run", func() {
		b.layer["sim.dispatch_ns"] = simDispatchNs(200000 + 1800000*n)
	})
	b.timed("service.Instance", func() {
		b.layer["service.request_ns"] = serviceRequestNs(100000 + 900000*n)
	})
	apps := episodeApps(b.opts.seed)
	var err error
	b.timed("cluster.RunNode.storm", func() {
		b.layer["colocate.fixed_us"], b.layer["colocate.alloc_kb_per_episode"], err =
			stormEpisodeCost(b.opts.seed, apps, 100+1900*n)
	})
	if err == nil {
		b.timed("cluster.RunNode.day", func() {
			b.layer["colocate.requests_per_s"], err = dayEpisodeRate(b.opts.seed, apps, 1+5*n)
		})
	}
	b.op(err)
	return err
}

// timed runs f under a span of the given name.
func (b *bench) timed(name string, f func()) {
	t0 := time.Now()
	f()
	b.spans.add(0, 0, 0, name, t0, time.Now(), nil)
}

// rearm is a self-rescheduling typed event, the steady state of an episode's
// event loop: every dispatch schedules a successor.
type rearm struct {
	eng   *sim.Engine
	left  int
	fired int
}

func (h *rearm) OnEvent(_ sim.Time, arg uint64) {
	h.fired++
	if h.fired < h.left {
		h.eng.AfterTyped(sim.Duration(1+arg%7), h, arg+1)
	}
}

// simDispatchNs is the wall time of one typed-event dispatch with 64 events
// pending, about the heap depth of a busy episode; median of three trials.
func simDispatchNs(events int) float64 {
	const depth = 64
	var trials []float64
	for t := 0; t < 3; t++ {
		eng := sim.NewEngine()
		hs := make([]*rearm, depth)
		for i := range hs {
			hs[i] = &rearm{eng: eng, left: events / depth}
			eng.ScheduleTyped(sim.Time(i), hs[i], uint64(i))
		}
		t0 := time.Now()
		eng.Run(sim.Forever)
		trials = append(trials, float64(time.Since(t0).Nanoseconds())/float64(eng.Fired()))
	}
	return median(trials)
}

// arrivals feeds a service instance at a fixed gap.
type arrivals struct {
	eng *sim.Engine
	svc *service.Instance
	gap sim.Duration
}

func (a *arrivals) OnEvent(sim.Time, uint64) {
	a.svc.Arrive()
	a.eng.AfterTyped(a.gap, a, 0)
}

// serviceRequestNs is the wall time per completed request of a memcached
// instance at 78% of saturation on a bare engine (arrival to completion, no
// controller); median of three trials after a warm-up.
func serviceRequestNs(steps int) float64 {
	var trials []float64
	for t := 0; t < 3; t++ {
		eng := sim.NewEngine()
		rng := sim.NewRNG(11)
		cfg := service.Preset(service.Memcached).Scaled(16)
		svc, err := service.New(eng, rng.Split(1), cfg, 8, nil)
		if err != nil {
			return 0
		}
		a := &arrivals{eng: eng, svc: svc, gap: sim.DurationOf(1 / (cfg.SaturationQPS(8) * 0.78))}
		eng.ScheduleTyped(0, a, 0)
		eng.Run(eng.Now() + sim.Time(2*sim.Second))
		served := svc.Served()
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			eng.Step()
		}
		trials = append(trials, float64(time.Since(t0).Nanoseconds())/float64(svc.Served()-served))
	}
	return median(trials)
}

// episodeApps picks three catalog applications from the seed.
func episodeApps(seed uint64) []string {
	return cluster.ShuffledJobs(seed, len(app.Names()))[:3]
}

// stormEpisodeCost runs n episodes of the storm's shape directly (one
// memcached node, three resident jobs, 1 s at time scale 1024, energy model
// on, reused scratch) and returns the mean wall time and allocation per
// episode.
func stormEpisodeCost(seed uint64, apps []string, n int) (us, kb float64, err error) {
	shape, _ := workload.NewDiurnal(0.25, 120)
	model := energy.ModelFor(platform.TablePlatform())
	scratch := &colocate.Scratch{}
	var tel cluster.Telemetry
	nr := cluster.NodeRun{
		Node:         cluster.Node{Name: "cache", Service: service.Memcached, MaxApps: 3},
		AppNames:     apps,
		LoadFraction: 0.65,
		LoadShape:    shape,
		TimeScale:    1024,
		MaxDuration:  sim.Second,
		OnReport:     tel.Observe,
		EnergyModel:  &model,
		FreqGHz:      model.FreqAt(model.Nominal()),
		Scratch:      scratch,
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	t0 := time.Now()
	for i := 0; i < n; i++ {
		nr.Seed = sim.Mix64(seed + uint64(i))
		if _, err := cluster.RunNode(nr); err != nil {
			return 0, 0, err
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&ms)
	return float64(wall.Nanoseconds()) / 1e3 / float64(n), float64(ms.TotalAlloc-alloc0) / 1024 / float64(n), nil
}

// dayEpisodeRate runs n episodes of the day's shape directly (one memcached
// node, three resident jobs, 10 s at time scale 16) and returns requests
// handled, served or dropped, per wall second.
func dayEpisodeRate(seed uint64, apps []string, n int) (float64, error) {
	shape, _ := workload.NewDiurnal(0.25, 120)
	scratch := &colocate.Scratch{}
	var requests uint64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		res, err := cluster.RunNode(cluster.NodeRun{
			Seed:         sim.Mix64(seed + uint64(i)),
			Node:         cluster.Node{Name: "cache", Service: service.Memcached, MaxApps: 3},
			AppNames:     apps,
			LoadFraction: 0.65,
			LoadShape:    shape,
			TimeScale:    16,
			MaxDuration:  10 * sim.Second,
			Scratch:      scratch,
		})
		if err != nil {
			return 0, err
		}
		requests += res.Served + res.Dropped
	}
	return float64(requests) / time.Since(t0).Seconds(), nil
}
