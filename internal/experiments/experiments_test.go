package experiments

import (
	"strings"
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
)

// tiny returns an aggressively scaled-down profile for unit tests; benches
// and the cmd tools use Fast()/Full().
func tiny() Profile {
	p := Fast()
	p.Name = "tiny"
	p.Apps = []string{"canneal", "SNP", "Bayesian"}
	p.CombosPerArity = 2
	p.MaxRunSeconds = 10
	return p
}

// sweepSeeds are the root seeds the headline claims are asserted over: the
// registry seed and seven more. A claim that held only at seed 42 was a fit
// to one random stream, not a property of the model; each claim is asserted
// per seed where it holds at every seed, and pooled or by majority where it
// does not.
var sweepSeeds = []uint64{42, 1, 2, 3, 4, 5, 6, 7}

// sweep runs one experiment on the tiny profile at every sweep seed.
func sweep[R any](t *testing.T, run func(Profile) (R, error)) []R {
	t.Helper()
	out := make([]R, 0, len(sweepSeeds))
	for _, seed := range sweepSeeds {
		p := tiny()
		p.Seed = seed
		r, err := run(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, r)
	}
	return out
}

// majority reports whether more than half of n seeds passed.
func majority(passed, n int) bool { return 2*passed > n }

func TestProfiles(t *testing.T) {
	if Fast().TimeScale <= Full().TimeScale {
		t.Fatal("fast profile must scale time up")
	}
	if len(Full().AppNames()) != 24 {
		t.Fatalf("full profile covers %d apps, want 24", len(Full().AppNames()))
	}
	if n := len(Fast().AppNames()); n == 0 || n > 24 {
		t.Fatalf("fast profile covers %d apps", n)
	}
	// Derived seeds are stable and label-dependent.
	p := Fast()
	if p.seedFor("a") != p.seedFor("a") {
		t.Fatal("seedFor not deterministic")
	}
	if p.seedFor("a") == p.seedFor("b") {
		t.Fatal("seedFor collides across labels")
	}
}

func TestForEachParallelAndErrors(t *testing.T) {
	p := tiny()
	p.Parallelism = 4
	seen := make([]bool, 50)
	if err := p.forEach(len(seen), func(i int) error {
		seen[i] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d not visited", i)
		}
	}
	// Errors surface (first one wins) without deadlocking the pool.
	boom := errZ("boom")
	if err := p.forEach(10, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	}); err == nil {
		t.Fatal("error from worker not surfaced")
	}
	// Sequential path (n=1 workers).
	p.Parallelism = 1
	if err := p.forEach(3, func(int) error { return boom }); err != boom {
		t.Fatalf("sequential error = %v", err)
	}
}

type errZ string

func (e errZ) Error() string { return string(e) }

func TestTable1(t *testing.T) {
	res, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"E5-2699", "22", "55 MB", "2400", "10Gbps"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 render missing %q:\n%s", want, out)
		}
	}
}

func TestFig1DSE(t *testing.T) {
	res, err := Fig1DSE(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 3 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	for _, a := range res.Apps {
		if a.Examined == 0 || len(a.Selected) == 0 {
			t.Errorf("%s: examined=%d selected=%d", a.Name, a.Examined, len(a.Selected))
		}
	}
	if !strings.Contains(res.Render(), "canneal") {
		t.Error("render missing app name")
	}
}

func TestFig1Impact(t *testing.T) {
	skipIfShort(t)
	for i, res := range sweep(t, Fig1Impact) {
		seed := sweepSeeds[i]
		if len(res.Rows) != 9 { // 3 apps × 3 services
			t.Fatalf("seed %d: rows = %d", seed, len(res.Rows))
		}
		// The paper's headline for Fig. 1: precise execution almost always
		// leads to considerable QoS violations. Against both CPU-bound
		// services it does at every seed; against MongoDB precise execution
		// mostly meets QoS, a reproduction gap (EXPERIMENTS.md).
		for _, row := range res.Rows {
			if len(row.P99OverQoS) == 0 {
				t.Fatalf("seed %d: %s+%s: no runs", seed, row.Service, row.App)
			}
			if row.Service != "mongodb" && row.P99OverQoS[0] <= 1 {
				t.Errorf("seed %d: %s+%s: precise met QoS (%.2fx)", seed, row.Service, row.App, row.P99OverQoS[0])
			}
		}
		// Approximation reduces the tail in aggregate.
		if imp := res.MostApproxImprovement(); imp <= 1.0 {
			t.Errorf("seed %d: most-approximate variants did not reduce tail latency (improvement %.2fx)", seed, imp)
		}
		if !strings.Contains(res.Render(), "precise") {
			t.Errorf("seed %d: render missing header", seed)
		}
	}
}

func TestFig4Dynamic(t *testing.T) {
	skipIfShort(t)
	p := tiny()
	res, err := Fig4Dynamic(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 12 { // 3 services × 4 highlighted apps
		t.Fatalf("cells = %d, want 12", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.P99OverQoS.Len() == 0 {
			t.Errorf("%s+%s: empty trace", c.Service, c.App)
		}
		if c.Inaccuracy > 7 {
			t.Errorf("%s+%s: inaccuracy %.1f%%", c.Service, c.App, c.Inaccuracy)
		}
	}
	// Variant richness must match the paper's captions.
	byApp := map[string]int{}
	for _, c := range res.Cells {
		byApp[c.App] = c.Variants
	}
	for app, want := range map[string]int{"canneal": 4, "raytrace": 2, "Bayesian": 8, "SNP": 5} {
		if byApp[app] != want {
			t.Errorf("%s: %d variants, paper reports %d", app, byApp[app], want)
		}
	}
	if m := res.MeanInaccuracy(); m <= 0 || m > 6 {
		t.Errorf("mean inaccuracy %.2f%% (paper: 2.7%%)", m)
	}
}

func TestFig5Aggregate(t *testing.T) {
	skipIfShort(t)
	// mongoPrecise pools precise p99/QoS per MongoDB app across seeds.
	mongoPrecise := map[string]float64{}
	runs := sweep(t, Fig5Aggregate)
	for i, res := range runs {
		seed := sweepSeeds[i]
		if len(res.Rows) != 9 {
			t.Fatalf("seed %d: rows = %d", seed, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.Service == "mongodb" {
				mongoPrecise[row.App] += row.PreciseP99OverQoS / float64(len(runs))
			} else if row.PreciseP99OverQoS <= 1 {
				t.Errorf("seed %d: %s+%s: precise did not violate (%.2fx)", seed, row.Service, row.App, row.PreciseP99OverQoS)
			}
			if row.PliantP99OverQoS > 1.15 {
				t.Errorf("seed %d: %s+%s: pliant steady p99 %.2fx QoS", seed, row.Service, row.App, row.PliantP99OverQoS)
			}
			if row.Inaccuracy > 6 {
				t.Errorf("seed %d: %s+%s: inaccuracy %.1f%%", seed, row.Service, row.App, row.Inaccuracy)
			}
		}
		if m := res.MeanInaccuracy(); m <= 0 || m > 5 {
			t.Errorf("seed %d: mean inaccuracy %.2f%% (paper: 2.1%%)", seed, m)
		}
		lo, hi := res.ViolationRange("nginx")
		if lo <= 1 || hi <= lo {
			t.Errorf("seed %d: nginx precise violation range [%.2f, %.2f] implausible", seed, lo, hi)
		}
		if !strings.Contains(res.Render(), "summary:") {
			t.Errorf("seed %d: render missing summary", seed)
		}
	}
	// MongoDB pairs sit at the criticality cliff: precise violates QoS at
	// some seeds and not others, so the claim is pooled. mongodb+SNP meets
	// QoS precise at every seed, a reproduction gap (EXPERIMENTS.md).
	for _, app := range tiny().Apps {
		if mean := mongoPrecise[app]; app != "SNP" && mean <= 1 {
			t.Errorf("mongodb+%s: precise p99 averages %.2fx QoS over %d seeds, want a violation", app, mean, len(runs))
		}
	}
}

func TestFig6MultiApp(t *testing.T) {
	skipIfShort(t)
	res, err := Fig6MultiApp(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if len(c.Apps) != 2 {
			t.Fatalf("%s: %d app traces", c.Service, len(c.Apps))
		}
	}
	// Paper: no app sacrifices a disproportionate amount of accuracy.
	if gap := res.BalancedPenalty(); gap > 5 {
		t.Errorf("inaccuracy gap between colocated apps %.1f%%", gap)
	}
}

func TestFig7Violin(t *testing.T) {
	skipIfShort(t)
	res, err := Fig7Violin(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 9 { // 3 services × arities 1..3
		t.Fatalf("cells = %d", len(res.Cells))
	}
	if !res.Sampled {
		t.Error("tiny profile should sample combinations")
	}
	for _, c := range res.Cells {
		if c.Runs == 0 {
			t.Errorf("%s arity %d: no runs", c.Service, c.Arity)
		}
		if c.Inaccuracy.Max > 7 {
			t.Errorf("%s arity %d: max inaccuracy %.1f%%", c.Service, c.Arity, c.Inaccuracy.Max)
		}
	}
	if !strings.Contains(res.Render(), "violin") {
		t.Error("render header missing")
	}
}

func TestFig8LoadSweep(t *testing.T) {
	skipIfShort(t)
	p := tiny()
	res, err := Fig8LoadSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 3 * len(p.AppNames()) * len(Fig8Loads)
	if len(res.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(res.Points), wantPoints)
	}
	// Light loads must meet QoS.
	for _, pt := range res.Points {
		if pt.Load <= 0.5 && pt.P99OverQoS > 1.1 {
			t.Errorf("%s+%s at %.0f%%: p99 %.2fx QoS", pt.Service, pt.App, pt.Load*100, pt.P99OverQoS)
		}
	}
	// Precise-only cliffs: the paper reports 48% (NGINX), 46% (memcached),
	// 77% (MongoDB). Shape requirement: both CPU-bound services cliff well
	// below MongoDB.
	ng, mc, mg := res.PreciseCliff["nginx"], res.PreciseCliff["memcached"], res.PreciseCliff["mongodb"]
	if ng >= mg || mc >= mg {
		t.Errorf("precise cliffs: nginx %.0f%% memcached %.0f%% mongodb %.0f%%; want mongodb most tolerant",
			ng*100, mc*100, mg*100)
	}
	if ng < 0.3 || ng > 0.7 {
		t.Errorf("nginx precise cliff %.0f%%, paper reports 48%%", ng*100)
	}
}

func TestFig9Interval(t *testing.T) {
	skipIfShort(t)
	res, err := Fig9Interval(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig9Apps)*len(Fig9Intervals) {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Paper: decision intervals of 1s or less satisfy QoS; coarser
	// intervals leave prolonged violations.
	fine := res.MeanP99At(sim.Second)
	coarse := res.MeanP99At(8 * sim.Second)
	if fine > 1.1 {
		t.Errorf("1s interval mean p99 %.2fx QoS, want ≤~1", fine)
	}
	if coarse <= fine {
		t.Errorf("8s interval (%.2fx) not worse than 1s (%.2fx)", coarse, fine)
	}
}

func TestFig10Breakdown(t *testing.T) {
	skipIfShort(t)
	res, err := Fig10Breakdown(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []string{"nginx", "memcached", "mongodb"} {
		fr := r10sum(res.Fraction[svc])
		if fr < 0.99 || fr > 1.01 {
			t.Errorf("%s fractions sum to %.2f", svc, fr)
		}
		if res.Runs[svc] == 0 {
			t.Errorf("%s: no runs", svc)
		}
	}
	// Shape: memcached needs cores more often than mongodb (paper: \"unlike
	// NGINX, memcached almost always requires at least one core\"; MongoDB
	// is the most amenable).
	if res.ApproxAloneFraction("memcached") > res.ApproxAloneFraction("mongodb") {
		t.Errorf("memcached approx-alone %.2f > mongodb %.2f",
			res.ApproxAloneFraction("memcached"), res.ApproxAloneFraction("mongodb"))
	}
}

func r10sum(fr [5]float64) float64 {
	s := 0.0
	for _, v := range fr {
		s += v
	}
	return s
}

func TestOverheadMatchesPaper(t *testing.T) {
	p := Fast()
	p.Apps = nil // all 24: the mean/max statistics are the point
	res, err := Overhead(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 24 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Sec. 6.2: 3.8% average, 8.9% worst case.
	if res.Mean < 0.03 || res.Mean > 0.05 {
		t.Errorf("mean overhead %.3f, want ≈0.038", res.Mean)
	}
	if res.Max < 0.08 || res.Max > 0.10 {
		t.Errorf("max overhead %.3f, want ≈0.089", res.Max)
	}
	for _, row := range res.Rows {
		diff := row.Measured - row.Configured
		if diff < -0.005 || diff > 0.005 {
			t.Errorf("%s: measured %.3f vs configured %.3f", row.App, row.Measured, row.Configured)
		}
	}
}

func TestSchedDiurnal(t *testing.T) {
	skipIfShort(t)
	runs := sweep(t, SchedDiurnal)
	waitWins := 0
	for i, res := range runs {
		seed := sweepSeeds[i]
		if len(res.Rows) != 3 {
			t.Fatalf("seed %d: rows = %d, want first-fit, best-fit, telemetry-aware", seed, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.Arrived == 0 || row.Completed == 0 {
				t.Fatalf("seed %d: %s: arrived=%d completed=%d", seed, row.Policy, row.Arrived, row.Completed)
			}
		}
		// The headline claim: consuming the runtime's telemetry beats
		// first-fit on QoS-met fraction, at every seed.
		if ta, ff := res.FracFor("telemetry-aware"), res.FracFor("first-fit"); ta <= ff {
			t.Errorf("seed %d: telemetry-aware QoS-met %.3f not above first-fit %.3f", seed, ta, ff)
		}
		if res.WaitFor("telemetry-aware") <= res.WaitFor("first-fit") {
			waitWins++
		}
		out := res.Render()
		for _, want := range []string{"telemetry-aware", "best-fit", "summary:"} {
			if !strings.Contains(out, want) {
				t.Errorf("seed %d: render missing %q:\n%s", seed, want, out)
			}
		}
	}
	// ... at equal or better mean job wait at most seeds: the two waits tie
	// at most seeds, and deferring off a violating node can cost a second
	// at the others.
	if !majority(waitWins, len(runs)) {
		t.Errorf("telemetry-aware wait no worse than first-fit at only %d/%d seeds", waitWins, len(runs))
	}
}

// TestEnergyDiurnal is the energy subsystem's acceptance experiment: the
// approx-for-watts bundle must meet QoS in at least first-fit's fraction of
// busy node-windows at measurably lower energy, and the savings must come
// from the modeled mechanisms (parked nodes, lowered frequency states).
func TestEnergyDiurnal(t *testing.T) {
	skipIfShort(t)
	res, err := EnergyDiurnal(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want the four bundles", len(res.Rows))
	}
	afw, ff := res.RowFor("approx-for-watts"), res.RowFor("first-fit")
	if afw.QoSMetFrac < ff.QoSMetFrac {
		t.Errorf("approx-for-watts QoS-met %.3f below first-fit %.3f", afw.QoSMetFrac, ff.QoSMetFrac)
	}
	if afw.KJoules > 0.9*ff.KJoules {
		t.Errorf("approx-for-watts energy %.1fkJ not measurably below first-fit %.1fkJ",
			afw.KJoules, ff.KJoules)
	}
	if afw.ParkedNodeWindows == 0 || afw.LowFreqNodeWindows == 0 {
		t.Errorf("savings without the mechanism: parked=%d lowfreq=%d",
			afw.ParkedNodeWindows, afw.LowFreqNodeWindows)
	}
	if cons := res.RowFor("consolidate"); cons.ParkedNodeWindows == 0 || cons.KJoules >= ff.KJoules {
		t.Errorf("consolidate parked %d windows at %.1fkJ vs first-fit %.1fkJ",
			cons.ParkedNodeWindows, cons.KJoules, ff.KJoules)
	}
	// The static baselines burn the whole fleet's idle floor all day.
	if spread := res.RowFor("spread-first"); spread.ParkedNodeWindows != 0 {
		t.Errorf("spread-first parked %d windows", spread.ParkedNodeWindows)
	}
	out := res.Render()
	for _, want := range []string{"approx-for-watts", "consolidate", "spread-first", "summary:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestTraceReplay is the trace-ingestion acceptance experiment: both
// headline orderings must hold on replayed production-shaped arrivals —
// telemetry-aware placement beats first-fit on QoS-met windows, and the
// approx-for-watts bundle spends measurably less energy than first-fit
// without dropping materially below first-fit's QoS.
func TestTraceReplay(t *testing.T) {
	skipIfShort(t)
	res, err := TraceReplay(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want first-fit, telemetry-aware, approx-for-watts", len(res.Rows))
	}
	if res.TraceJobs == 0 || res.Source != "google" {
		t.Fatalf("trace metadata wrong: %d jobs from %q", res.TraceJobs, res.Source)
	}
	for _, row := range res.Rows {
		if row.Arrived != res.TraceJobs {
			t.Errorf("%s: arrived %d of %d trace jobs", row.Bundle, row.Arrived, res.TraceJobs)
		}
		if row.Completed == 0 || row.KJoules <= 0 {
			t.Errorf("%s: completed=%d energy=%.1fkJ", row.Bundle, row.Completed, row.KJoules)
		}
	}
	ta, ff := res.RowFor("telemetry-aware"), res.RowFor("first-fit")
	if ta.QoSMetFrac <= ff.QoSMetFrac {
		t.Errorf("telemetry-aware QoS-met %.3f not above first-fit %.3f on replayed arrivals",
			ta.QoSMetFrac, ff.QoSMetFrac)
	}
	afw := res.RowFor("approx-for-watts")
	if afw.KJoules >= ff.KJoules {
		t.Errorf("approx-for-watts energy %.1fkJ not below first-fit %.1fkJ", afw.KJoules, ff.KJoules)
	}
	// Approx-for-watts trades a few QoS points for watts at some seeds;
	// "not materially below first-fit" is the stable property.
	if afw.QoSMetFrac < 0.9*ff.QoSMetFrac {
		t.Errorf("approx-for-watts QoS-met %.3f fell materially below first-fit %.3f", afw.QoSMetFrac, ff.QoSMetFrac)
	}
	out := res.Render()
	for _, want := range []string{"google", "telemetry-aware", "approx-for-watts", "summary:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestObsExperiment pins the observability study: the traced day emits
// every record kind, every window snapshots its metrics, and — the property
// the layer exists for — the exports are byte-identical across shard counts.
func TestObsExperiment(t *testing.T) {
	skipIfShort(t)
	res, err := ObsTrace(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShardInvariant {
		t.Error("obs exports diverged between shard counts")
	}
	if res.Windows != 12 {
		t.Errorf("window records = %d, want 12 (120s horizon / 10s epoch)", res.Windows)
	}
	if res.Snapshots != int(res.Windows) {
		t.Errorf("snapshots = %d, want one per window (%d)", res.Snapshots, res.Windows)
	}
	if res.Episodes == 0 || res.Placements == 0 || res.Autoscale == 0 || res.Lifecycle == 0 {
		t.Errorf("record kinds missing: %+v", res)
	}
	if res.Total < res.Windows+res.Episodes+res.Placements {
		t.Errorf("total %d below component sum", res.Total)
	}
	if len(res.TraceSHA) != 64 {
		t.Errorf("trace sha %q not a sha256 hex digest", res.TraceSHA)
	}
	out := res.Render()
	for _, want := range []string{"observability", "records:", "snapshots", "byte-identical across shard counts: true"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistry(t *testing.T) {
	reg := Registry()
	if len(reg) != 17 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	ids := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete entry %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if _, err := ByID("table1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	// Registry entries run end to end (via the cheapest one).
	e, _ := ByID("table1")
	r, err := e.Run(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if r.Render() == "" {
		t.Fatal("empty render")
	}
}

// skipIfShort gates full-scale scenario tests so `go test -short ./...`
// finishes in seconds while the full run still exercises everything.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale scenario; skipped in -short")
	}
}

// TestFaultStorm is the robustness acceptance experiment: through a
// correlated rack outage removing a quarter of capacity mid-peak,
// degrade-under-loss must lose fewer QoS points (busy node-windows, against
// the no-fault run) than first-fit-with-retries, and no bundle may lose or
// double-run a job — the retry ledger balances exactly at every seed.
func TestFaultStorm(t *testing.T) {
	skipIfShort(t)
	runs := sweep(t, FaultStorm)
	var dulGap, ffGap float64
	ffFar, dulAhead := 0, 0
	for i, res := range runs {
		seed := sweepSeeds[i]
		if len(res.Rows) != 3 {
			t.Fatalf("seed %d: rows = %d, want first-fit, telemetry, degrade-under-loss", seed, len(res.Rows))
		}
		if res.NoFaultQoS <= 0 {
			t.Fatalf("seed %d: no-fault reference QoS = %.3f", seed, res.NoFaultQoS)
		}
		dul := (res.NoFaultQoS - res.RowFor("degrade-under-loss").FaultedQoS) * 100
		ff := (res.NoFaultQoS - res.RowFor("first-fit").FaultedQoS) * 100
		dulGap += dul / float64(len(runs))
		ffGap += ff / float64(len(runs))
		if ff >= 25 {
			ffFar++
		}
		if dul < ff {
			dulAhead++
		}
		for _, row := range res.Rows {
			if row.Crashes == 0 {
				t.Errorf("seed %d: %s: outage injected no crashes", seed, row.Bundle)
			}
			if row.JobsLost != 0 {
				t.Errorf("seed %d: %s: lost %d jobs", seed, row.Bundle, row.JobsLost)
			}
			// The retry ledger: every arrival is placed, pending, or lost —
			// nothing vanishes, nothing double-runs — and every requeue shows
			// up as exactly one job retry.
			if row.Arrived != row.Placed+row.Pending+row.JobsLost {
				t.Errorf("seed %d: %s: job ledger broken: %d arrived != %d placed + %d pending + %d lost",
					seed, row.Bundle, row.Arrived, row.Placed, row.Pending, row.JobsLost)
			}
			if row.RetrySum != row.Requeued {
				t.Errorf("seed %d: %s: retry ledger broken: requeued %d != retry sum %d",
					seed, row.Bundle, row.Requeued, row.RetrySum)
			}
		}
		out := res.Render()
		for _, want := range []string{"degrade-under-loss", "first-fit", "telemetry", "summary:"} {
			if !strings.Contains(out, want) {
				t.Errorf("seed %d: render missing %q:\n%s", seed, want, out)
			}
		}
	}
	// The headline, as the seeds support it: degrade-under-loss holds QoS
	// within 10 points of the no-fault run pooled (single seeds swing past
	// it), first-fit lands at least 25 points below at most seeds, and
	// degrade-under-loss loses less than first-fit pooled and at most seeds.
	if dulGap > 10 {
		t.Errorf("degrade-under-loss %.1f QoS points below the no-fault run pooled, want within 10", dulGap)
	}
	if !majority(ffFar, len(runs)) {
		t.Errorf("first-fit >= 25 QoS points below the no-fault run at only %d/%d seeds", ffFar, len(runs))
	}
	if dulGap >= ffGap || !majority(dulAhead, len(runs)) {
		t.Errorf("degrade-under-loss gap %.1f vs first-fit %.1f pooled, smaller at %d/%d seeds",
			dulGap, ffGap, dulAhead, len(runs))
	}
}

// TestShadowServe is the serving-layer acceptance experiment: one arrival
// feed fanned to three candidate policies through the daemon's shadow-replay
// machinery must yield a verdict for every window, at least one shadow that
// actually disagrees with the baseline, and — the tentpole claim — a
// baseline result byte-identical to batch sched.Run on the same config.
func TestShadowServe(t *testing.T) {
	skipIfShort(t)
	res, err := ShadowServe(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want telemetry-aware, first-fit, spread-first", len(res.Rows))
	}
	if res.Windows == 0 {
		t.Fatal("no windows recorded")
	}
	if !res.ServeParity {
		t.Error("serve-replayed baseline diverged from batch sched.Run")
	}
	base := res.Rows[0]
	if base.DiffWindows != 0 || base.MaxDiff != 0 {
		t.Errorf("baseline diffs against itself: %d windows, max %d", base.DiffWindows, base.MaxDiff)
	}
	var disagreed bool
	for _, row := range res.Rows[1:] {
		if row.DiffWindows > 0 {
			disagreed = true
		}
		if row.DiffWindows > res.Windows {
			t.Errorf("%s: %d diff windows out of %d", row.Policy, row.DiffWindows, res.Windows)
		}
	}
	if !disagreed {
		t.Error("no shadow policy ever disagreed with the baseline")
	}
	out := res.Render()
	for _, want := range []string{"telemetry-aware", "first-fit", "spread-first", "baseline", "byte-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
