package core

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/sim"
)

// snap builds a snapshot with the given violation/slack and app states.
func snap(violation bool, slack float64, apps ...AppView) Snapshot {
	return Snapshot{
		Report:         monitor.Report{Violation: violation, Slack: slack},
		Apps:           apps,
		ServiceCores:   8,
		MinAppCores:    1,
		SlackThreshold: 0.10,
	}
}

func appView(variant, most, cores, yielded int) AppView {
	return AppView{
		Name: "a", Variant: variant, MostApproximate: most,
		Cores: cores, YieldedCores: yielded,
	}
}

// newController returns a fresh controller running arb.
func newController(arb Arbiter, rng *sim.RNG) *Controller {
	c := &Controller{}
	c.Init(arb, rng)
	return c
}

// pliant returns the policy with the paper's literal revert rule (a single
// high-slack interval triggers reversion) so the Fig. 3 transitions can be
// asserted step by step. The hysteresis default is tested separately.
func pliant() *Controller {
	p := newController(RoundRobin, sim.NewRNG(1))
	p.patience = 1
	return p
}

func TestViolationJumpsToMostApproximate(t *testing.T) {
	// Fig. 3: on violation, the app switches directly to MOST approximate,
	// not one step.
	p := pliant()
	acts := p.Decide(snap(true, -0.5, appView(0, 4, 8, 0)))
	if len(acts) != 1 {
		t.Fatalf("actions = %v", acts)
	}
	if acts[0].Kind != SwitchVariant || acts[0].To != 4 {
		t.Fatalf("action = %v, want jump to v4", acts[0])
	}
}

func TestViolationFromIntermediateVariantJumpsToMost(t *testing.T) {
	// Sec. 4.3: "if the approximate application is operating at an
	// approximation degree other than the highest and a QoS violation
	// occurs, it immediately reverts to its most approximate variant".
	p := pliant()
	acts := p.Decide(snap(true, -0.2, appView(2, 4, 8, 0)))
	if len(acts) != 1 || acts[0].Kind != SwitchVariant || acts[0].To != 4 {
		t.Fatalf("actions = %v, want jump 2→4", acts)
	}
}

func TestViolationAtMostApproxReclaimsCore(t *testing.T) {
	p := pliant()
	acts := p.Decide(snap(true, -0.3, appView(4, 4, 8, 0)))
	if len(acts) != 1 || acts[0].Kind != ReclaimCore {
		t.Fatalf("actions = %v, want core reclaim", acts)
	}
}

func TestReclaimRespectsCoreFloor(t *testing.T) {
	p := pliant()
	acts := p.Decide(snap(true, -0.3, appView(4, 4, 1, 7)))
	if len(acts) != 0 {
		t.Fatalf("actions = %v, want none at the core floor", acts)
	}
}

func TestSlackReturnsCoreBeforeVariant(t *testing.T) {
	p := pliant()
	// Build history: violation at most-approx reclaims a core.
	_ = p.Decide(snap(true, -0.3, appView(4, 4, 8, 0)))
	// Now slack: the first revert must be the core, not the variant.
	acts := p.Decide(snap(false, 0.4, appView(4, 4, 7, 1)))
	if len(acts) != 1 || acts[0].Kind != ReturnCore {
		t.Fatalf("actions = %v, want core return first", acts)
	}
	// With cores restored, the next revert steps the variant down one level
	// (incremental, not a jump).
	acts = p.Decide(snap(false, 0.4, appView(4, 4, 8, 0)))
	if len(acts) != 1 || acts[0].Kind != SwitchVariant || acts[0].To != 3 {
		t.Fatalf("actions = %v, want step 4→3", acts)
	}
}

func TestNoActionWithinSlackBand(t *testing.T) {
	// QoS met but slack ≤ 10%: hold state (Fig. 3 "remains in the same
	// state").
	p := pliant()
	for _, slack := range []float64{0.0, 0.05, 0.10} {
		if acts := p.Decide(snap(false, slack, appView(3, 4, 8, 0))); len(acts) != 0 {
			t.Fatalf("slack %v: actions = %v, want hold", slack, acts)
		}
	}
}

func TestSteadyStatePreciseNoAction(t *testing.T) {
	p := pliant()
	if acts := p.Decide(snap(false, 0.9, appView(0, 4, 8, 0))); len(acts) != 0 {
		t.Fatalf("precise + slack: actions = %v, want none", acts)
	}
}

func TestDoneAppsNotActuated(t *testing.T) {
	p := pliant()
	done := appView(0, 4, 8, 0)
	done.Done = true
	if acts := p.Decide(snap(true, -0.5, done)); len(acts) != 0 {
		t.Fatalf("actions on finished app: %v", acts)
	}
}

func TestMultiAppRoundRobinSwitchesOnePerInterval(t *testing.T) {
	// Sec. 4.4: switch one workload at a time; if QoS is not restored move
	// to the next.
	p := pliant()
	a := appView(0, 4, 4, 0)
	b := appView(0, 6, 4, 0)
	first := slices.Clone(p.Decide(snap(true, -0.5, a, b))) // lent: kept across the next Decide
	if len(first) != 1 || first[0].Kind != SwitchVariant {
		t.Fatalf("first = %v", first)
	}
	// Apply: the chosen app is now most-approximate.
	apps := []AppView{a, b}
	apps[first[0].App].Variant = first[0].To
	second := slices.Clone(p.Decide(snap(true, -0.5, apps...))) // lent: kept across the next Decide
	if len(second) != 1 || second[0].Kind != SwitchVariant {
		t.Fatalf("second = %v", second)
	}
	if second[0].App == first[0].App {
		t.Fatalf("round-robin penalized the same app twice: %v then %v", first, second)
	}
	apps[second[0].App].Variant = second[0].To
	// Both at most approximate: next violation reclaims a core.
	third := p.Decide(snap(true, -0.5, apps...))
	if len(third) != 1 || third[0].Kind != ReclaimCore {
		t.Fatalf("third = %v, want reclaim", third)
	}
}

func TestMultiAppCoreReclaimRotates(t *testing.T) {
	p := pliant()
	apps := []AppView{appView(4, 4, 4, 0), appView(6, 6, 4, 0)}
	first := slices.Clone(p.Decide(snap(true, -0.5, apps...))) // lent: kept across the next Decide
	if first[0].Kind != ReclaimCore {
		t.Fatalf("first = %v", first)
	}
	apps[first[0].App].Cores--
	apps[first[0].App].YieldedCores++
	second := slices.Clone(p.Decide(snap(true, -0.5, apps...))) // lent: kept across the next Decide
	if second[0].Kind != ReclaimCore {
		t.Fatalf("second = %v", second)
	}
	if second[0].App == first[0].App {
		t.Fatal("core reclaim did not rotate across apps")
	}
}

func TestReturnCoreLIFO(t *testing.T) {
	p := pliant()
	apps := []AppView{appView(4, 4, 4, 0), appView(6, 6, 4, 0)}
	first := slices.Clone(p.Decide(snap(true, -0.5, apps...))) // lent: kept across the next Decide
	apps[first[0].App].Cores--
	apps[first[0].App].YieldedCores++
	second := slices.Clone(p.Decide(snap(true, -0.5, apps...))) // lent: kept across the next Decide
	apps[second[0].App].Cores--
	apps[second[0].App].YieldedCores++
	// Slack: cores return most-recent-first.
	ret := p.Decide(snap(false, 0.5, apps...))
	if ret[0].Kind != ReturnCore || ret[0].App != second[0].App {
		t.Fatalf("return = %v, want LIFO (app %d)", ret, second[0].App)
	}
}

func TestStaleYieldStackSkipsFinishedApps(t *testing.T) {
	p := pliant()
	apps := []AppView{appView(4, 4, 4, 0), appView(6, 6, 4, 0)}
	first := p.Decide(snap(true, -0.5, apps...))
	apps[first[0].App].Cores--
	apps[first[0].App].YieldedCores++
	// The penalized app finishes; on slack the policy must not return a
	// core to it, falling through to variant reversion on the other app.
	apps[first[0].App].Done = true
	apps[first[0].App].YieldedCores = 0
	other := 1 - first[0].App
	apps[other].Variant = apps[other].MostApproximate
	acts := p.Decide(snap(false, 0.5, apps...))
	if len(acts) != 1 || acts[0].Kind != SwitchVariant || acts[0].App != other {
		t.Fatalf("acts = %v, want variant step on app %d", acts, other)
	}
}

func TestPrecisePolicyNeverActs(t *testing.T) {
	p := PrecisePolicy{}
	if p.Name() != "precise" {
		t.Fatal("name")
	}
	if acts := p.Decide(snap(true, -5, appView(0, 4, 8, 0))); len(acts) != 0 {
		t.Fatalf("precise acted: %v", acts)
	}
}

func TestStaticApproxPinsMostApproximate(t *testing.T) {
	p := StaticApproxPolicy{}
	acts := p.Decide(snap(false, 0.9, appView(0, 4, 8, 0), appView(2, 6, 8, 0)))
	if len(acts) != 2 {
		t.Fatalf("acts = %v", acts)
	}
	for _, a := range acts {
		if a.Kind != SwitchVariant {
			t.Fatalf("unexpected kind %v", a)
		}
	}
	if acts[0].To != 4 || acts[1].To != 6 {
		t.Fatalf("targets = %v", acts)
	}
	// Already pinned: no further action.
	if acts := p.Decide(snap(true, -1, appView(4, 4, 8, 0))); len(acts) != 0 {
		t.Fatalf("static approx acted at most approx: %v", acts)
	}
}

func TestImpactAwarePicksCheapestApp(t *testing.T) {
	p := newController(ImpactAware, nil)
	cheap := appView(0, 4, 4, 0)
	cheap.QualityPerStep = 0.1
	dear := appView(0, 4, 4, 0)
	dear.QualityPerStep = 2.0
	acts := p.Decide(snap(true, -0.5, dear, cheap))
	if len(acts) != 1 || acts[0].App != 1 {
		t.Fatalf("acts = %v, want the cheap app (index 1)", acts)
	}
	// Impact-aware steps one level, not a jump.
	if acts[0].To != 1 {
		t.Fatalf("To = %d, want incremental step", acts[0].To)
	}
}

func TestImpactAwareRevertsDearestFirst(t *testing.T) {
	p := newController(ImpactAware, nil)
	p.patience = 1
	cheap := appView(2, 4, 4, 0)
	cheap.QualityPerStep = 0.1
	dear := appView(2, 4, 4, 0)
	dear.QualityPerStep = 2.0
	acts := p.Decide(snap(false, 0.5, cheap, dear))
	if len(acts) != 1 || acts[0].App != 1 || acts[0].To != 1 {
		t.Fatalf("acts = %v, want step down on the dear app", acts)
	}
}

func TestImpactAwareReclaimsFromLargestApp(t *testing.T) {
	p := newController(ImpactAware, nil)
	small := appView(4, 4, 2, 0)
	big := appView(4, 4, 6, 0)
	acts := p.Decide(snap(true, -0.5, small, big))
	if len(acts) != 1 || acts[0].Kind != ReclaimCore || acts[0].App != 1 {
		t.Fatalf("acts = %v, want reclaim from the larger app", acts)
	}
}

func TestSlackPatienceDelaysReverts(t *testing.T) {
	// With the default hysteresis, reverts require SlackPatience consecutive
	// high-slack intervals; any violation resets the count.
	p := newController(RoundRobin, sim.NewRNG(1))
	p.patience = 3
	a := appView(4, 4, 7, 1)
	// Two high-slack intervals: no action yet.
	for i := 0; i < 2; i++ {
		if acts := p.Decide(snap(false, 0.5, a)); len(acts) != 0 {
			t.Fatalf("interval %d: premature revert %v", i, acts)
		}
	}
	// A violation resets the streak...
	if acts := p.Decide(snap(true, -0.2, appView(3, 4, 7, 1))); len(acts) != 1 {
		t.Fatal("violation not actuated")
	}
	// ...so two more high-slack intervals still do not revert.
	for i := 0; i < 2; i++ {
		if acts := p.Decide(snap(false, 0.5, a)); len(acts) != 0 {
			t.Fatalf("post-reset interval %d: premature revert %v", i, acts)
		}
	}
	// The third consecutive one does.
	if acts := p.Decide(snap(false, 0.5, a)); len(acts) != 1 {
		t.Fatal("revert did not fire after patience elapsed")
	}
	// In-band slack (≤ threshold) also resets the streak.
	p2 := newController(RoundRobin, sim.NewRNG(1))
	p2.patience = 2
	_ = p2.Decide(snap(false, 0.5, a))
	_ = p2.Decide(snap(false, 0.05, a)) // hold: resets
	if acts := p2.Decide(snap(false, 0.5, a)); len(acts) != 0 {
		t.Fatalf("in-band slack did not reset patience: %v", acts)
	}
}

func TestActionStrings(t *testing.T) {
	cases := []struct {
		a    Action
		want string
	}{
		{Action{Kind: SwitchVariant, App: 1, To: 3}, "switch"},
		{Action{Kind: ReclaimCore, App: 0}, "reclaim"},
		{Action{Kind: ReturnCore, App: 2}, "return"},
	}
	for _, c := range cases {
		if !strings.Contains(c.a.String(), c.want) {
			t.Errorf("String(%v) = %q", c.a.Kind, c.a.String())
		}
	}
}

// Property: the Pliant policy emits at most one action per interval (the
// paper actuates incrementally), and every action is structurally valid for
// the snapshot it was derived from.
func TestPliantOneActionProperty(t *testing.T) {
	f := func(seed uint64, steps []uint8) bool {
		p := newController(RoundRobin, sim.NewRNG(seed))
		p.patience = 1
		apps := []AppView{appView(0, 4, 4, 0), appView(0, 6, 4, 0), appView(0, 2, 4, 0)}
		svc := 4
		for _, st := range steps {
			violation := st%2 == 0
			slack := float64(int(st)%40-10) / 40.0
			s := snap(violation, slack, apps...)
			s.ServiceCores = svc
			acts := p.Decide(s)
			if len(acts) > 1 {
				return false
			}
			for _, a := range acts {
				if a.App < 0 || a.App >= len(apps) || apps[a.App].Done {
					return false
				}
				switch a.Kind {
				case SwitchVariant:
					if a.To < 0 || a.To > apps[a.App].MostApproximate {
						return false
					}
					apps[a.App].Variant = a.To
				case ReclaimCore:
					if apps[a.App].Cores <= 1 {
						return false
					}
					apps[a.App].Cores--
					apps[a.App].YieldedCores++
					svc++
				case ReturnCore:
					if apps[a.App].YieldedCores <= 0 {
						return false
					}
					apps[a.App].Cores++
					apps[a.App].YieldedCores--
					svc--
				}
			}
			// Occasionally finish an app.
			if st%37 == 0 && len(steps) > 0 {
				apps[int(st)%3].Done = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
