package colocate

import (
	"strings"
	"testing"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/core"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
)

// Edge cases and failure injection for the scenario orchestration.

func TestAppFinishingWhileCoresYielded(t *testing.T) {
	// A short app that yields cores and finishes before returning them: the
	// cores stay with the service (there is nothing to return them to) and
	// the run terminates cleanly.
	cfg := fastCfg(service.Memcached, "k-means") // shortest heavy app (28s)
	cfg.Runtime = Pliant
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Apps[0].Done {
		t.Fatal("app did not finish")
	}
	// After the app finishes the scenario stops; the last recorded service
	// core count must never exceed usable cores.
	last := res.Trace.Series("svc.cores").Last().V
	if last > 16 {
		t.Fatalf("service cores %v exceed usable 16", last)
	}
}

func TestMinAppCoresFloorHonored(t *testing.T) {
	skipIfShort(t)
	cfg := fastCfg(service.Memcached, "PLSA")
	cfg.Runtime = Pliant
	cfg.MinAppCores = 6 // nearly the fair share: at most 2 cores reclaimable
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].MaxYielded > 2 {
		t.Fatalf("yielded %d cores despite floor of 6 (fair share 8)", res.Apps[0].MaxYielded)
	}
}

func TestStaticApproxRuntime(t *testing.T) {
	cfg := fastCfg(service.MongoDB, "SNP")
	cfg.Runtime = StaticApprox
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != "static-approx" {
		t.Fatalf("runtime %q", res.Runtime)
	}
	// Static approximation runs the whole job at most-approximate: quality
	// loss equals the deepest variant's, and no cores move.
	if res.Apps[0].Inaccuracy < 3 {
		t.Fatalf("static-approx inaccuracy %.2f%%, want the deepest variant's", res.Apps[0].Inaccuracy)
	}
	if res.Apps[0].MaxYielded != 0 {
		t.Fatal("static-approx moved cores")
	}
}

func TestImpactAwareRuntime(t *testing.T) {
	skipIfShort(t)
	cfg := fastCfg(service.Memcached, "canneal", "Bayesian")
	cfg.Runtime = ImpactAware
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != "impact-aware" {
		t.Fatalf("runtime %q", res.Runtime)
	}
	for _, a := range res.Apps {
		if !a.Done {
			t.Errorf("%s did not finish", a.Name)
		}
	}
	// Impact-aware steps variants one level at a time, so Bayesian (cheap
	// per step) should absorb more of the penalty than canneal.
	if res.TypicalOverQoS() > 1.2 {
		t.Errorf("impact-aware steady p99 %.2fx QoS", res.TypicalOverQoS())
	}
}

func TestSmallPlatformScenario(t *testing.T) {
	skipIfShort(t)
	cfg := fastCfg(service.NGINX, "canneal")
	cfg.Platform = platform.SmallPlatform()
	cfg.Runtime = Pliant
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Apps[0].Done {
		t.Fatal("app did not finish on the small platform")
	}
}

func TestThreeAppColocation(t *testing.T) {
	cfg := fastCfg(service.MongoDB, "canneal", "SNP", "raytrace")
	cfg.Runtime = Pliant
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 3 {
		t.Fatalf("%d app results", len(res.Apps))
	}
	total := 0
	for _, a := range res.Apps {
		if !a.Done {
			t.Errorf("%s unfinished", a.Name)
		}
		total += a.MaxYielded
	}
	// 16 usable cores split 4 ways: each app starts with 4, floor 1, so at
	// most 9 cores can ever be simultaneously yielded.
	if total > 9 {
		t.Fatalf("implausible total yields %d", total)
	}
}

func TestOverloadBeyondSaturation(t *testing.T) {
	// Load above 100% of saturation: Pliant cannot fully restore QoS (the
	// paper: beyond ~90% load violations persist regardless), but the run
	// must terminate and the trace stay well-formed.
	cfg := fastCfg(service.NGINX, "water_spatial")
	cfg.Runtime = Pliant
	cfg.LoadFraction = 1.2
	cfg.MaxDuration = 15 * sim.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals == 0 {
		t.Fatal("no intervals recorded")
	}
	if res.TypicalOverQoS() <= 1 {
		t.Fatalf("overload met QoS (%.2fx) — implausible beyond saturation", res.TypicalOverQoS())
	}
}

func TestDecisionIntervalExtremes(t *testing.T) {
	// Very fine interval (100ms): more reports, still stable.
	cfg := fastCfg(service.Memcached, "Bayesian")
	cfg.Runtime = Pliant
	cfg.DecisionInterval = 100 * sim.Millisecond
	fine, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Intervals < 100 {
		t.Fatalf("fine interval recorded only %d intervals", fine.Intervals)
	}
	if fine.TypicalOverQoS() > 1.2 {
		t.Fatalf("fine interval steady p99 %.2fx", fine.TypicalOverQoS())
	}
}

func TestRelFairShareNormalization(t *testing.T) {
	// Single-app colocations: fair share is the 8-core reference, so both
	// normalizations coincide.
	cfg := fastCfg(service.MongoDB, "raytrace")
	cfg.Runtime = Precise
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Apps[0]
	if diff := a.RelNominal - a.RelFairShare; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("single-app RelNominal %.4f != RelFairShare %.4f", a.RelNominal, a.RelFairShare)
	}
	// Two-app colocations: fair share is 5 cores, so the fair-share
	// normalization is smaller than the 8-core one.
	cfg2 := fastCfg(service.MongoDB, "raytrace", "Glimmer")
	cfg2.Runtime = Precise
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	a2 := res2.Apps[0]
	if a2.RelFairShare >= a2.RelNominal {
		t.Fatalf("2-app RelFairShare %.3f should be below RelNominal %.3f", a2.RelFairShare, a2.RelNominal)
	}
}

func TestLearnerRuntime(t *testing.T) {
	cfg := fastCfg(service.Memcached, "Bayesian")
	cfg.Runtime = Learner
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != "learner" {
		t.Fatalf("runtime %q", res.Runtime)
	}
	if !res.Apps[0].Done {
		t.Fatal("app did not finish under the learner")
	}
	// The learner starts with no knowledge, so it violates more than the
	// profiled controller early on but must still converge to meeting QoS.
	if res.TypicalOverQoS() > 1.3 {
		t.Fatalf("learner steady p99 %.2fx QoS", res.TypicalOverQoS())
	}
}

func TestCustomAppProfile(t *testing.T) {
	custom, err := app.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	custom.Name = "user-job"
	custom.NominalExecSec = 20
	cfg := fastCfg(service.MongoDB, "user-job")
	cfg.CustomApps = []app.Profile{custom}
	cfg.Runtime = Pliant
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Apps[0].Name != "user-job" {
		t.Fatalf("app name %q", res.Apps[0].Name)
	}
	if !res.Apps[0].Done {
		t.Fatal("custom app did not finish")
	}
	// Custom profiles shadow the catalog.
	shadow := custom
	shadow.Name = "canneal"
	shadow.NominalExecSec = 5
	cfg2 := fastCfg(service.MongoDB, "canneal")
	cfg2.CustomApps = []app.Profile{shadow}
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Duration > 20*sim.Second {
		t.Fatalf("shadowed profile ignored: run took %v for a 5s app", res2.Duration)
	}
}

// fixedPolicy returns the same actions at every report.
type fixedPolicy []core.Action

func (fixedPolicy) Name() string { return "fixed" }

func (p fixedPolicy) Decide(core.Snapshot) []core.Action { return p }

// TestPolicyContractViolationsFail checks that Run holds a custom policy to
// the core.Action contract: an out-of-range variant or app index stops the
// run with an error naming the policy, the action and the app, while a
// reclaim at the core floor stays a quiet no-op.
func TestPolicyContractViolationsFail(t *testing.T) {
	for _, c := range []struct {
		act  core.Action
		want []string
	}{
		{core.Action{Kind: core.SwitchVariant, App: 0, To: 99}, []string{"policy fixed", "switch(app=0 → v99)", "canneal"}},
		{core.Action{Kind: core.ReclaimCore, App: 5}, []string{"policy fixed", "reclaim(app=5)", "app 5"}},
		{core.Action{Kind: core.ActionKind(7), App: 0}, []string{"policy fixed", "action(7)"}},
	} {
		cfg := fastCfg(service.Memcached, "canneal")
		cfg.Policy = fixedPolicy{c.act}
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("%v: Run returned no error", c.act)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%v: error %q does not name %q", c.act, err, w)
			}
		}
	}

	cfg := fastCfg(service.Memcached, "canneal")
	cfg.MinAppCores = 64
	cfg.Policy = fixedPolicy{{Kind: core.ReclaimCore, App: 0}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("reclaim at the core floor: %v", err)
	}
	if res.Apps[0].MaxYielded != 0 {
		t.Fatalf("reclaim below the core floor yielded %d cores", res.Apps[0].MaxYielded)
	}
}
