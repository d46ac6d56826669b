package sched

import (
	"fmt"
	"sync"
	"testing"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// energyCluster is the five-node cluster of the energy study: enough spare
// capacity that consolidation has nodes to park.
func energyCluster() []cluster.Node {
	return []cluster.Node{
		{Name: "cache-1", Service: service.Memcached, MaxApps: 3},
		{Name: "web-1", Service: service.NGINX, MaxApps: 3},
		{Name: "db-1", Service: service.MongoDB, MaxApps: 3},
		{Name: "cache-2", Service: service.Memcached, MaxApps: 3},
		{Name: "web-2", Service: service.NGINX, MaxApps: 3},
	}
}

// energyConfig is one compressed diurnal day over the five-node cluster with
// the Table 1 power model attached.
func energyConfig(seed uint64, pol Policy, as autoscale.Controller) Config {
	model := energy.ModelFor(platform.TablePlatform())
	shape, _ := workload.NewDiurnal(0.25, 120)
	return Config{
		Seed:       seed,
		Nodes:      energyCluster(),
		Policy:     pol,
		Horizon:    120 * sim.Second,
		Epoch:      10 * sim.Second,
		JobsPerSec: 0.10,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  16,
		Energy:     &model,
		Autoscaler: as,
	}
}

// approxForWatts is the study's Pliant-native bundle: telemetry-aware
// placement, consolidation with a healthy reserve, and slack-funded
// frequency scaling.
func approxForWatts() autoscale.Controller {
	return autoscale.ApproxForWatts{
		Consolidate: autoscale.Consolidate{ReserveSlots: 6},
		LowWater:    0.6,
	}
}

// TestEnergyAccountingObservationOnly pins the invariant the golden suite
// depends on: attaching a power model (without an autoscaler) is pure
// observation — scheduling outcomes are identical to an energy-free run.
func TestEnergyAccountingObservationOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs; skipped in -short")
	}
	with := energyConfig(42, FirstFit{}, nil)
	without := with
	without.Energy = nil

	rw, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if rw.QoSMetFrac != ro.QoSMetFrac || rw.Arrived != ro.Arrived ||
		rw.Completed != ro.Completed || rw.MeanWaitSec != ro.MeanWaitSec {
		t.Fatalf("energy accounting perturbed scheduling:\nwith:    %+v\nwithout: %+v",
			rw, ro)
	}
	if rw.Joules <= 0 || rw.MeanWatts <= 0 {
		t.Fatalf("no energy accrued: joules=%v watts=%v", rw.Joules, rw.MeanWatts)
	}
	if ro.Joules != 0 || ro.NodeJoules != nil {
		t.Fatalf("energy-free run accrued energy: %+v", ro)
	}
	if len(rw.NodeJoules) != len(with.Nodes) {
		t.Fatalf("per-node ledger covers %d of %d nodes", len(rw.NodeJoules), len(with.Nodes))
	}
	sum := 0.0
	for _, ne := range rw.NodeJoules {
		if ne.Joules <= 0 {
			t.Errorf("node %s accrued no energy", ne.Node)
		}
		sum += ne.Joules
	}
	if diff := sum - rw.Joules; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("node ledger sums to %v, total %v", sum, rw.Joules)
	}
	for _, series := range []string{"watts.cluster", "nodes.active", "nodes.parked"} {
		if rw.Trace.Series(series).Len() == 0 {
			t.Errorf("series %q missing with energy on", series)
		}
		if ro.Trace.Series(series).Len() != 0 {
			t.Errorf("series %q present with energy off", series)
		}
	}
}

// energyShardCounts are the shard counts of the shared energy runs: serial,
// two, five, and a rerun at two.
var energyShardCounts = []int{1, 2, 5, 2}

var energyRuns struct {
	once    sync.Once
	results []Result
	err     error
}

// energyShardRuns runs energyConfig(7, TelemetryAware{}, approxForWatts())
// once per entry of energyShardCounts and caches the results, so the energy
// determinism and shard-invariance tests share four runs.
func energyShardRuns(t *testing.T) []Result {
	t.Helper()
	energyRuns.once.Do(func() {
		base := energyConfig(7, TelemetryAware{}, approxForWatts())
		for _, shards := range energyShardCounts {
			cfg := base
			cfg.Shards = shards
			r, err := Run(cfg)
			if err != nil {
				energyRuns.err = fmt.Errorf("shards=%d: %w", shards, err)
				return
			}
			energyRuns.results = append(energyRuns.results, r)
		}
	})
	if energyRuns.err != nil {
		t.Fatal(energyRuns.err)
	}
	return energyRuns.results
}

// TestEnergyRunsDeterministic pins byte determinism of the energy figures:
// two identical runs agree to the last bit, shard count included.
func TestEnergyRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("four full energy runs; skipped in -short")
	}
	runs := energyShardRuns(t)
	serial, a, b := runs[0], runs[1], runs[3]
	key := func(r Result) string {
		s := fmt.Sprintf("%.17g|%.17g|%d|%d|%d", r.Joules, r.MeanWatts,
			r.ParkedNodeWindows, r.LowFreqNodeWindows, r.Wakes)
		for _, ne := range r.NodeJoules {
			s += fmt.Sprintf("|%s=%.17g", ne.Node, ne.Joules)
		}
		return s
	}
	if a.Joules <= 0 || len(a.NodeJoules) == 0 {
		t.Fatalf("energy run recorded no energy: %s", key(a))
	}
	if key(a) != key(b) {
		t.Fatalf("reruns disagree:\n%s\n%s", key(a), key(b))
	}
	if key(a) != key(serial) {
		t.Fatalf("shard count perturbs energy:\n%s\n%s", key(a), key(serial))
	}
}

// TestConsolidationParksIdleNodes starves the cluster of jobs: the
// consolidating autoscaler must park surplus nodes and spend measurably
// fewer joules than the static baseline, then reflect it in the ledger.
func TestConsolidationParksIdleNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs; skipped in -short")
	}
	static := energyConfig(3, FirstFit{}, nil)
	static.JobsPerSec = 0.01 // nearly idle day
	parked := energyConfig(3, FirstFit{}, autoscale.Consolidate{})
	parked.JobsPerSec = 0.01

	rs, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Run(parked)
	if err != nil {
		t.Fatal(err)
	}
	if rp.ParkedNodeWindows == 0 {
		t.Fatal("idle cluster parked nothing")
	}
	if rp.Joules >= 0.8*rs.Joules {
		t.Errorf("parking saved too little: %v J vs static %v J", rp.Joules, rs.Joules)
	}
	if rs.ParkedNodeWindows != 0 {
		t.Errorf("static run parked %d node-windows", rs.ParkedNodeWindows)
	}
}

// TestAutoscalerWakesUnderBacklog floods a consolidated cluster: parked
// nodes must wake (paying wake energy) and the queue must drain.
func TestAutoscalerWakesUnderBacklog(t *testing.T) {
	if testing.Short() {
		t.Skip("full run; skipped in -short")
	}
	cfg := energyConfig(5, FirstFit{}, autoscale.Consolidate{})
	// Quiet first half (nodes park), flash-crowd of jobs in the second.
	cfg.Arrivals = burstArrivals{quietSec: 60, gapSec: 2}
	cfg.JobsPerSec = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wakes == 0 {
		t.Fatal("backlog woke no nodes")
	}
	if res.Placed == 0 {
		t.Fatal("no jobs placed after wake")
	}
}

// burstArrivals is deterministic: nothing for quietSec, then a job every
// gapSec.
type burstArrivals struct {
	quietSec float64
	gapSec   float64
}

func (b burstArrivals) Next(*sim.RNG) sim.Duration {
	return sim.Duration(b.gapSec * float64(sim.Second))
}

func (b burstArrivals) Rate() float64 { return 1 / b.gapSec }

func (b burstArrivals) NextAt(_ *sim.RNG, now sim.Time) sim.Duration {
	if now.Seconds() < b.quietSec {
		return sim.Duration((b.quietSec - now.Seconds() + b.gapSec) * float64(sim.Second))
	}
	return sim.Duration(b.gapSec * float64(sim.Second))
}

// TestApproxForWattsHeadline is the subsystem's acceptance criterion: over a
// diurnal day, the approx-for-watts bundle meets QoS in at least the
// fraction of busy node-windows first-fit does, at measurably lower energy —
// the watts that approximation slack buys.
func TestApproxForWattsHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("two full runs; skipped in -short")
	}
	ff, err := Run(energyConfig(42, FirstFit{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	afw, err := Run(energyConfig(42, TelemetryAware{}, approxForWatts()))
	if err != nil {
		t.Fatal(err)
	}
	if afw.QoSMetFrac < ff.QoSMetFrac {
		t.Errorf("approx-for-watts QoS-met %.3f below first-fit %.3f", afw.QoSMetFrac, ff.QoSMetFrac)
	}
	if afw.Joules > 0.9*ff.Joules {
		t.Errorf("approx-for-watts energy %.0f J not measurably below first-fit %.0f J", afw.Joules, ff.Joules)
	}
	if afw.ParkedNodeWindows == 0 || afw.LowFreqNodeWindows == 0 {
		t.Errorf("savings without the mechanism: parked=%d lowfreq=%d",
			afw.ParkedNodeWindows, afw.LowFreqNodeWindows)
	}
}

// scriptedLifecycle parks a node at one boundary and wakes it at another —
// a pure function of the view's clock, so runs stay deterministic.
type scriptedLifecycle struct {
	node           int
	parkAt, wakeAt float64
}

func (scriptedLifecycle) Name() string { return "scripted" }

func (c scriptedLifecycle) Decide(v autoscale.View) []autoscale.Action {
	switch v.NowSec {
	case c.parkAt:
		return []autoscale.Action{{Kind: autoscale.Park, Node: c.node}}
	case c.wakeAt:
		return []autoscale.Action{{Kind: autoscale.Wake, Node: c.node}}
	}
	return nil
}

// wakingConfig is the two-node scenario of the waking-window tests: node 1
// is parked at t=10 and woken at t=30 under a model whose WakeDelay spans
// 2.5 scheduling windows (wakeAt = 55s, placeable from the t=60 boundary).
func wakingConfig(m *energy.Model) Config {
	return Config{
		Seed: 11,
		Nodes: []cluster.Node{
			{Name: "cache-1", Service: service.Memcached, MaxApps: 3},
			{Name: "web-1", Service: service.NGINX, MaxApps: 3},
		},
		Policy:     FirstFit{},
		Horizon:    90 * sim.Second,
		Epoch:      10 * sim.Second,
		BaseLoad:   0.65,
		TimeScale:  32,
		Energy:     m,
		Autoscaler: scriptedLifecycle{node: 1, parkAt: 10, wakeAt: 30},
	}
}

// TestWakingNodeChargedWakeEnergyOnce pins the energy side of a wake that
// spans multiple window boundaries: the node pays the model's wake energy
// exactly once (at the Wake action, not per waking window), draws the idle
// floor for every window it spends waking, and the parked/waking windows
// land in the ledger analytically.
func TestWakingNodeChargedWakeEnergyOnce(t *testing.T) {
	m := energy.ModelFor(platform.TablePlatform())
	m.WakeDelay = 25 * sim.Second // 2.5 epochs: waking across 3 window accounts
	cfg := wakingConfig(&m)
	// No job ever arrives: node 1's whole ledger is analytic.
	cfg.Arrivals = burstArrivals{quietSec: 1e6, gapSec: 1}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wakes != 1 {
		t.Fatalf("wakes = %d, want exactly 1", res.Wakes)
	}
	// Node 1 parks for windows [10,20) and [20,30) only.
	if res.ParkedNodeWindows != 2 {
		t.Errorf("parked node-windows = %d, want 2", res.ParkedNodeWindows)
	}
	// Ledger: 4 active-idle windows (one before the park, three after the
	// wake completes), 2 parked windows, 3 waking windows at the idle
	// floor, and one wake charge.
	util := 0.65 * m.SlowdownAt(m.Nominal())
	if util > 1 {
		util = 1
	}
	solo := m.PowerAt(util, m.Nominal())
	want := 4*solo*10 + m.ParkedW*20 + m.IdleW*30 + m.WakeJ
	got := res.NodeJoules[1].Joules
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("waking node ledger = %v J, want %v J (Δ=%v)", got, want, diff)
	}

	// Re-run with free wakes: the ledgers must differ by exactly the wake
	// energy, proving it was charged once and nowhere else.
	free := m
	free.WakeJ = 0
	cfgFree := wakingConfig(&free)
	cfgFree.Arrivals = burstArrivals{quietSec: 1e6, gapSec: 1}
	resFree, err := Run(cfgFree)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - resFree.NodeJoules[1].Joules - m.WakeJ; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("wake energy charged %v J more than a free-wake run, want exactly %v J",
			got-resFree.NodeJoules[1].Joules, m.WakeJ)
	}
}

// TestCrashedWakingNodeSettlesLedgerOnce pins the energy side of a crash
// landing mid-wake, alongside TestWakingNodeChargedWakeEnergyOnce: node 1 is
// parked at t=10, woken at t=30 (WakeDelay 25s → placeable at t=55), and an
// outage kills it at t=40, squarely inside the waking span, until t=65. The
// ledger must settle exactly once: idle-floor watts up to the crash instant,
// nothing while down, an idle tail from the recovery instant, and the wake
// energy charged at the original Wake action only — recovery boots the node
// inside its MTTR without a second WakeJ, and the pending wake completion at
// t=55 must not resurrect the dead node.
func TestCrashedWakingNodeSettlesLedgerOnce(t *testing.T) {
	m := energy.ModelFor(platform.TablePlatform())
	m.WakeDelay = 25 * sim.Second
	cfg := wakingConfig(&m)
	// No job ever arrives: node 1's whole ledger is analytic.
	cfg.Arrivals = burstArrivals{quietSec: 1e6, gapSec: 1}
	cfg.Faults = &fault.Plan{Outages: []fault.Outage{{AtSec: 40, Domain: 1, DurationSec: 25}}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wakes != 1 || res.Crashes != 1 || res.Recoveries != 1 {
		t.Fatalf("wakes=%d crashes=%d recoveries=%d, want 1/1/1",
			res.Wakes, res.Crashes, res.Recoveries)
	}
	// Down across windows [40,50), [50,60), [60,70) — the boundary census at
	// t=70 runs after the recovery at t=65 lands, so only three windows count.
	if res.DownNodeWindows != 3 {
		t.Errorf("down node-windows = %d, want 3", res.DownNodeWindows)
	}
	if res.ParkedNodeWindows != 2 {
		t.Errorf("parked node-windows = %d, want 2", res.ParkedNodeWindows)
	}
	// Ledger: active-idle [0,10) and [70,90), parked [10,30), waking at the
	// idle floor from t=30 to the crash at t=40, dark while down, and the
	// idle tail [65,70) after the recovery instant, plus one wake charge.
	util := 0.65 * m.SlowdownAt(m.Nominal())
	if util > 1 {
		util = 1
	}
	solo := m.PowerAt(util, m.Nominal())
	want := 3*solo*10 + m.ParkedW*20 + m.IdleW*(10+5) + m.WakeJ
	got := res.NodeJoules[1].Joules
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("crashed waking node ledger = %v J, want %v J (Δ=%v)", got, want, diff)
	}

	// Free-wake comparison: through the whole crash/recover cycle the ledgers
	// must differ by exactly one wake energy — recovery charged no second one.
	free := m
	free.WakeJ = 0
	cfgFree := wakingConfig(&free)
	cfgFree.Arrivals = burstArrivals{quietSec: 1e6, gapSec: 1}
	cfgFree.Faults = cfg.Faults
	resFree, err := Run(cfgFree)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - resFree.NodeJoules[1].Joules - m.WakeJ; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("crash/recover cycle charged %v J of wake energy, want exactly %v J once",
			got-resFree.NodeJoules[1].Joules, m.WakeJ)
	}
}

// TestCrashedDrainingNodeDrawsNoParkedWatts pins the other lifecycle corner:
// a crash landing on a Draining node requeues the residents it was draining
// and must not let the dead node fall through to Parked — a down node draws
// nothing, not the parked floor. The proof is a paired run with the parked
// draw doubled: since node 0 never parks and node 1 dies mid-drain, not one
// parked watt may appear anywhere, so the totals must match bit for bit.
func TestCrashedDrainingNodeDrawsNoParkedWatts(t *testing.T) {
	m := energy.ModelFor(platform.TablePlatform())
	run := func(model *energy.Model) Result {
		t.Helper()
		cfg := wakingConfig(model)
		// Steady 1 job/s flood keeps residents on node 1 when the park order
		// arrives at t=20, so the node is Draining — not Parked — when the
		// outage kills it at t=30.
		cfg.Arrivals = burstArrivals{quietSec: 0, gapSec: 1}
		cfg.Autoscaler = scriptedLifecycle{node: 1, parkAt: 20, wakeAt: 1e9}
		cfg.Faults = &fault.Plan{Outages: []fault.Outage{{AtSec: 30, Domain: 1, DurationSec: 30}}}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(&m)
	if res.Crashes != 1 || res.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", res.Crashes, res.Recoveries)
	}
	// Requeued residents prove the node was still draining when it died: a
	// node that had finished draining would have parked empty.
	if res.Requeued+res.JobsLost == 0 {
		t.Fatal("crash requeued nothing; the node had already drained and the scenario lost its teeth")
	}
	if res.Wakes != 0 {
		t.Errorf("wakes = %d, want 0 (recovery must not charge a wake)", res.Wakes)
	}
	if res.ParkedNodeWindows != 0 {
		t.Errorf("parked node-windows = %d, want 0", res.ParkedNodeWindows)
	}
	expensive := m
	expensive.ParkedW *= 2
	res2 := run(&expensive)
	if res.Joules != res2.Joules {
		t.Errorf("doubling ParkedW moved the total: %v J vs %v J — a dead node drew parked watts",
			res.Joules, res2.Joules)
	}
}

// TestWakingNodeAcceptsNoPlacementsUntilAwake pins the placement side: while
// WakeDelay spans windows t=30..55, a job flood starting at t=32 may only
// land on the waking node from the t=60 boundary on, even with the other
// node saturated.
func TestWakingNodeAcceptsNoPlacementsUntilAwake(t *testing.T) {
	m := energy.ModelFor(platform.TablePlatform())
	m.WakeDelay = 25 * sim.Second
	cfg := wakingConfig(&m)
	cfg.Arrivals = burstArrivals{quietSec: 32, gapSec: 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Wakes != 1 {
		t.Fatalf("wakes = %d, want 1", res.Wakes)
	}
	onWoken := 0
	for _, j := range res.Jobs {
		if j.Node != "web-1" {
			continue
		}
		onWoken++
		if j.StartSec < 60 {
			t.Errorf("job %d started on the waking node at t=%.0fs, before wake completed at t=60",
				j.ID, j.StartSec)
		}
	}
	if onWoken == 0 {
		t.Fatal("flood never reached the woken node; the scenario lost its teeth")
	}
}

// TestAutoscalerValidation covers the config errors of the energy surface.
func TestAutoscalerValidation(t *testing.T) {
	cfg := fastConfig(FirstFit{})
	cfg.Autoscaler = autoscale.Consolidate{}
	if _, err := Run(cfg); err == nil {
		t.Error("autoscaler without energy model validated")
	}
	model := energy.ModelFor(platform.TablePlatform())
	model.FreqGHz = nil
	cfg = fastConfig(FirstFit{})
	cfg.Energy = &model
	if _, err := Run(cfg); err == nil {
		t.Error("invalid energy model validated")
	}
}

// TestParkedNodesRejectPlacements pins the lifecycle/placement contract:
// non-active nodes are offered to policies with zero free slots.
func TestParkedNodesRejectPlacements(t *testing.T) {
	model := energy.ModelFor(platform.TablePlatform())
	s := &run{cfg: Config{Energy: &model, Shape: workload.Steady{}, Epoch: 10 * sim.Second}}
	for _, n := range energyCluster() {
		s.nodes = append(s.nodes, &nodeRT{node: n, state: autoscale.Active, freq: model.Nominal()})
	}
	s.nodes[1].state = autoscale.Parked
	s.nodes[2].state = autoscale.Draining
	s.nodes[3].state = autoscale.Waking
	states := s.nodeStates(0)
	for i, st := range states {
		placeable := s.nodes[i].state.Placeable()
		if placeable && st.Free == 0 {
			t.Errorf("active node %d offered no slots", i)
		}
		if !placeable && st.Free != 0 {
			t.Errorf("%s node %d offered %d slots", s.nodes[i].state, i, st.Free)
		}
		if st.Lifecycle != s.nodes[i].state {
			t.Errorf("node %d lifecycle %v, want %v", i, st.Lifecycle, s.nodes[i].state)
		}
	}
}
