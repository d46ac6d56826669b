// Benchmarks regenerating every table and figure of the paper's evaluation,
// one testing.B target per artifact. Each iteration executes the experiment
// end to end at the fast profile (scaled request timescale, highlighted-app
// subset, sampled combinations — see DESIGN.md §6); cmd/pliant-bench -full
// runs the same code at paper scale. Figures of merit beyond wall time are
// attached via b.ReportMetric.
package pliant_test

import (
	"bytes"
	"math"
	"testing"

	pliant "github.com/approx-sched/pliant"
)

// benchProfile returns the per-iteration experiment profile used by the
// regeneration benches.
func benchProfile() pliant.ExperimentProfile {
	p := pliant.FastProfile()
	p.Apps = []string{"canneal", "SNP", "Bayesian"}
	p.CombosPerArity = 3
	p.MaxRunSeconds = 10
	return p
}

func BenchmarkTable1Platform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := pliant.RunExperiment("table1", benchProfile())
		if err != nil {
			b.Fatal(err)
		}
		if r.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

func BenchmarkFig1DesignSpace(b *testing.B) {
	p := pliant.FullProfile() // DSE over all 24 apps is cheap
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig1dse", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1VariantImpact(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig1impact", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4DynamicBehavior(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig4", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Aggregate(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig5", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6MultiApp(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig6", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Violin(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig7", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8LoadSweep(b *testing.B) {
	p := benchProfile()
	p.Apps = []string{"canneal", "SNP"}
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig8", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9DecisionInterval(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig9", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Breakdown(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("fig10", p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynInstOverhead(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		if _, err := pliant.RunExperiment("overhead", p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioPliant measures one managed colocation end to end — the
// simulator's core workload — and reports simulated requests per wall
// second.
func BenchmarkScenarioPliant(b *testing.B) {
	var served uint64
	for i := 0; i < b.N; i++ {
		res, err := pliant.RunScenario(pliant.ScenarioConfig{
			Seed:         uint64(i + 1),
			Service:      pliant.Memcached,
			AppNames:     []string{"canneal"},
			Runtime:      pliant.RuntimePliant,
			LoadFraction: 0.78,
			TimeScale:    16,
		})
		if err != nil {
			b.Fatal(err)
		}
		served += res.Served
	}
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkScenarioPrecise is the unmanaged-baseline counterpart.
func BenchmarkScenarioPrecise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := pliant.RunScenario(pliant.ScenarioConfig{
			Seed:         uint64(i + 1),
			Service:      pliant.Memcached,
			AppNames:     []string{"canneal"},
			Runtime:      pliant.RuntimePrecise,
			LoadFraction: 0.78,
			TimeScale:    16,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreCatalog measures the full 24-app design-space exploration.
func BenchmarkExploreCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, prof := range pliant.Applications() {
			opts := pliant.DefaultExploreOptions()
			opts.MaxVariants = prof.MaxVariants
			if _, err := pliant.Explore(prof, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// schedBenchConfig is the diurnal-day online-scheduling scenario the sched
// benches share: one compressed day on a three-service cluster.
func schedBenchConfig() pliant.SchedConfig {
	shape, _ := pliant.NewDiurnalLoad(0.25, 120)
	return pliant.SchedConfig{
		Seed: 42,
		Nodes: []pliant.ClusterNode{
			{Name: "cache-1", Service: pliant.Memcached, MaxApps: 3},
			{Name: "web-1", Service: pliant.NGINX, MaxApps: 3},
			{Name: "db-1", Service: pliant.MongoDB, MaxApps: 3},
		},
		Horizon:    120 * pliant.Second,
		Epoch:      10 * pliant.Second,
		JobsPerSec: 0.10,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  16,
	}
}

// BenchmarkSchedDiurnal measures one day of online scheduling per policy —
// the Sec. 6.4 extension's experiment entry ("sched") at bench scale.
func BenchmarkSchedDiurnal(b *testing.B) {
	for _, pol := range []pliant.SchedPolicy{
		pliant.FirstFitPlacement{},
		pliant.TelemetryAwarePlacement{},
	} {
		b.Run(pol.Name(), func(b *testing.B) {
			var met float64
			for i := 0; i < b.N; i++ {
				cfg := schedBenchConfig()
				cfg.Policy = pol
				res, err := pliant.RunSched(cfg)
				if err != nil {
					b.Fatal(err)
				}
				met += res.QoSMetFrac
			}
			b.ReportMetric(met/float64(b.N), "QoSMetFrac")
		})
	}
}

// energySchedBenchConfig mirrors the "energy" experiment: a five-node
// cluster (spare capacity to park) over a compressed diurnal day with the
// Table 1 power model and the approx-for-watts bundle.
func energySchedBenchConfig() pliant.SchedConfig {
	cfg := schedBenchConfig()
	cfg.Nodes = append(cfg.Nodes,
		pliant.ClusterNode{Name: "cache-2", Service: pliant.Memcached, MaxApps: 3},
		pliant.ClusterNode{Name: "web-2", Service: pliant.NGINX, MaxApps: 3},
	)
	model := pliant.EnergyModelFor(pliant.TablePlatform())
	cfg.Energy = &model
	cfg.Policy = pliant.TelemetryAwarePlacement{}
	cfg.Autoscaler = pliant.ApproxForWattsAutoscaler{
		Consolidate: pliant.ConsolidateAutoscaler{ReserveSlots: 6},
		LowWater:    0.6,
	}
	return cfg
}

// BenchmarkSchedEnergyDiurnal measures one energy-managed day — lifecycle
// transitions, frequency scaling, and joules accumulation on top of the
// episode simulation — and reports the day's energy alongside wall time.
func BenchmarkSchedEnergyDiurnal(b *testing.B) {
	var met, kj float64
	for i := 0; i < b.N; i++ {
		res, err := pliant.RunSched(energySchedBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
		met += res.QoSMetFrac
		kj += res.Joules / 1000
	}
	b.ReportMetric(met/float64(b.N), "QoSMetFrac")
	b.ReportMetric(kj/float64(b.N), "kJ/day")
}

// faultStormBenchConfig is the fault-injection scenario: the eight-node
// cluster riding a compressed diurnal day through a correlated rack outage
// plus MTTF churn and telemetry dropouts, under the degrade-under-loss
// bundle.
func faultStormBenchConfig() pliant.SchedConfig {
	shape, _ := pliant.NewDiurnalLoad(0.25, 120)
	var nodes []pliant.ClusterNode
	for i := 0; i < 8; i++ {
		switch i % 3 {
		case 0:
			nodes = append(nodes, pliant.ClusterNode{Name: "cache", Service: pliant.Memcached, MaxApps: 3})
		case 1:
			nodes = append(nodes, pliant.ClusterNode{Name: "web", Service: pliant.NGINX, MaxApps: 3})
		default:
			nodes = append(nodes, pliant.ClusterNode{Name: "db", Service: pliant.MongoDB, MaxApps: 3})
		}
	}
	model := pliant.EnergyModelFor(pliant.TablePlatform())
	return pliant.SchedConfig{
		Seed:       42,
		Nodes:      nodes,
		Policy:     pliant.TelemetryAwarePlacement{},
		Horizon:    120 * pliant.Second,
		Epoch:      10 * pliant.Second,
		JobsPerSec: 0.25,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  16,
		Energy:     &model,
		Autoscaler: pliant.DegradeUnderLossController{Normal: pliant.ConsolidateAutoscaler{ReserveSlots: 9}},
		Faults: &pliant.FaultPlan{
			MTTFSec:      300,
			MTTRSec:      10,
			DomainSize:   2,
			Outages:      []pliant.FaultOutage{{AtSec: 35, Domain: 1, DurationSec: 50}},
			StaleMTBFSec: 90,
			StaleDurSec:  15,
		},
	}
}

// BenchmarkSchedFaultStorm measures one fault-injected day end to end: fault
// compilation, crash/recovery bookkeeping, retry backoff, and the
// degrade-under-loss controller all ride inside the measured op.
func BenchmarkSchedFaultStorm(b *testing.B) {
	var met, crashes float64
	for i := 0; i < b.N; i++ {
		res, err := pliant.RunSched(faultStormBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
		met += res.QoSMetFrac
		crashes += float64(res.Crashes)
	}
	b.ReportMetric(met/float64(b.N), "QoSMetFrac")
	b.ReportMetric(crashes/float64(b.N), "crashes")
}

// traceReplayBenchConfig mirrors the "trace" experiment's telemetry bundle:
// a synthesized multi-hour Google-format trace parsed through the production
// ingestion path, compressed into the two-minute day, and replayed over the
// five-node cluster while services ride the trace's damped rate curve.
func traceReplayBenchConfig() (pliant.SchedConfig, error) {
	raw := pliant.SynthesizeTrace(pliant.TraceSynthConfig{
		Format:  pliant.GoogleTraceFormat,
		Jobs:    240,
		SpanSec: 6 * 3600,
		Seed:    42,
	})
	parsed, err := pliant.ParseTrace(bytes.NewReader(raw), pliant.GoogleTraceFormat)
	if err != nil {
		return pliant.SchedConfig{}, err
	}
	tr, err := parsed.Normalize(pliant.TraceOptions{TargetSpanSec: 108, MaxJobs: 24})
	if err != nil {
		return pliant.SchedConfig{}, err
	}
	times, mult, err := tr.RateShape(8)
	if err != nil {
		return pliant.SchedConfig{}, err
	}
	for i, m := range mult {
		mult[i] = math.Sqrt(m)
	}
	shape, err := pliant.NewReplayLoad(times, mult)
	if err != nil {
		return pliant.SchedConfig{}, err
	}
	return pliant.SchedConfig{
		Seed: 42,
		Nodes: []pliant.ClusterNode{
			{Name: "cache-1", Service: pliant.Memcached, MaxApps: 3},
			{Name: "web-1", Service: pliant.NGINX, MaxApps: 3},
			{Name: "db-1", Service: pliant.MongoDB, MaxApps: 3},
			{Name: "cache-2", Service: pliant.Memcached, MaxApps: 3},
			{Name: "web-2", Service: pliant.NGINX, MaxApps: 3},
		},
		Policy:    pliant.TelemetryAwarePlacement{},
		Horizon:   120 * pliant.Second,
		Epoch:     10 * pliant.Second,
		Trace:     tr,
		BaseLoad:  0.65,
		Shape:     shape,
		TimeScale: 16,
	}, nil
}

// BenchmarkSchedTraceReplay measures one replayed production-shaped day —
// the trace-ingestion pipeline plus the scheduler consuming its stream.
func BenchmarkSchedTraceReplay(b *testing.B) {
	cfg, err := traceReplayBenchConfig()
	if err != nil {
		b.Fatal(err)
	}
	var met float64
	for i := 0; i < b.N; i++ {
		res, err := pliant.RunSched(cfg)
		if err != nil {
			b.Fatal(err)
		}
		met += res.QoSMetFrac
	}
	b.ReportMetric(met/float64(b.N), "QoSMetFrac")
}
