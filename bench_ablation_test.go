// Ablation benchmarks for the design choices DESIGN.md §7 calls out. Each
// bench runs the same colocation under one configuration knob and reports
// the figures of merit (steady p99/QoS, violation fraction, quality loss) as
// custom metrics, so `go test -bench=Ablation` doubles as a design-space
// report.
package pliant_test

import (
	"fmt"
	"testing"

	pliant "github.com/approx-sched/pliant"
)

// ablate runs the standard ablation scenario (memcached + Bayesian at 78%)
// with a config mutation and reports its metrics. "mean-inacc%" is the
// inaccuracy averaged over every colocated app, so a mutation that adds
// apps (the arbiter ablation) reports all of them, not the first alone.
func ablate(b *testing.B, mutate func(*pliant.ScenarioConfig)) {
	b.Helper()
	var (
		p99Sum, violSum, inaccSum float64
	)
	for i := 0; i < b.N; i++ {
		cfg := pliant.ScenarioConfig{
			Seed:         uint64(i + 1),
			Service:      pliant.Memcached,
			AppNames:     []string{"Bayesian"},
			Runtime:      pliant.RuntimePliant,
			LoadFraction: 0.78,
			TimeScale:    16,
		}
		mutate(&cfg)
		res, err := pliant.RunScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p99Sum += res.TypicalOverQoS()
		violSum += res.ViolationFrac
		appInacc := 0.0
		for _, a := range res.Apps {
			appInacc += a.Inaccuracy
		}
		inaccSum += appInacc / float64(len(res.Apps))
	}
	n := float64(b.N)
	b.ReportMetric(p99Sum/n, "p99/QoS")
	b.ReportMetric(violSum/n, "violFrac")
	b.ReportMetric(inaccSum/n, "mean-inacc%")
}

// BenchmarkAblationSlackThreshold sweeps the revert threshold (paper
// Sec. 4.3: lowering it ping-pongs, relaxing it hurts the approximate app).
func BenchmarkAblationSlackThreshold(b *testing.B) {
	for _, thr := range []float64{0.05, 0.10, 0.20, 0.40} {
		b.Run(fmt.Sprintf("slack=%.0f%%", thr*100), func(b *testing.B) {
			ablate(b, func(c *pliant.ScenarioConfig) { c.SlackThreshold = thr })
		})
	}
}

// BenchmarkAblationDecisionInterval contrasts the paper's 1 s interval with
// finer and coarser control.
func BenchmarkAblationDecisionInterval(b *testing.B) {
	for _, iv := range []pliant.Duration{
		200 * pliant.Millisecond,
		pliant.Second,
		4 * pliant.Second,
	} {
		b.Run(fmt.Sprintf("interval=%v", iv), func(b *testing.B) {
			ablate(b, func(c *pliant.ScenarioConfig) { c.DecisionInterval = iv })
		})
	}
}

// BenchmarkAblationArbiter contrasts the paper's round-robin arbiter with
// the Sec. 6.5 impact-aware arbiter, the learner and the static
// most-approximate ablation, on a two-app colocation where arbitration
// matters. The impact-aware and learner arbiters run again with canneal
// listed first: the learner breaks ties toward the first app, so only that
// order tells the two apart. They run a third time on streamcluster and SNP,
// whose per-step quality costs are close: the pair where a sweep found the
// learner most often ahead of impact-aware.
func BenchmarkAblationArbiter(b *testing.B) {
	bayesianFirst := []string{"Bayesian", "canneal"}
	cannealFirst := []string{"canneal", "Bayesian"}
	closeCosts := []string{"streamcluster", "SNP"}
	for _, r := range []struct {
		name string
		rt   pliant.RuntimeKind
		apps []string
	}{
		{pliant.RuntimePliant.String(), pliant.RuntimePliant, bayesianFirst},
		{pliant.RuntimeImpactAware.String(), pliant.RuntimeImpactAware, bayesianFirst},
		{pliant.RuntimeLearner.String(), pliant.RuntimeLearner, bayesianFirst},
		{pliant.RuntimeStaticApprox.String(), pliant.RuntimeStaticApprox, bayesianFirst},
		{pliant.RuntimeImpactAware.String() + ",canneal-first", pliant.RuntimeImpactAware, cannealFirst},
		{pliant.RuntimeLearner.String() + ",canneal-first", pliant.RuntimeLearner, cannealFirst},
		{pliant.RuntimeImpactAware.String() + ",streamcluster+SNP", pliant.RuntimeImpactAware, closeCosts},
		{pliant.RuntimeLearner.String() + ",streamcluster+SNP", pliant.RuntimeLearner, closeCosts},
	} {
		b.Run(r.name, func(b *testing.B) {
			ablate(b, func(c *pliant.ScenarioConfig) {
				c.Runtime = r.rt
				c.AppNames = r.apps
			})
		})
	}
}

// BenchmarkAblationLoad shows the escalation points across offered load.
func BenchmarkAblationLoad(b *testing.B) {
	for _, load := range []float64{0.5, 0.7, 0.9} {
		b.Run(fmt.Sprintf("load=%.0f%%", load*100), func(b *testing.B) {
			ablate(b, func(c *pliant.ScenarioConfig) { c.LoadFraction = load })
		})
	}
}
