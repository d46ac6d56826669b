package core

import (
	"reflect"
	"slices"
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
)

// drive runs p over a scripted stream of reports (p99/QoS per interval) on
// three apps, applying every action to the views as the runtime does, and
// returns a copy of each interval's actions. App 0 starts above precise and
// app 1 with a core yielded, so a revert at the first intervals shows what
// the policy brought from before the stream.
func drive(p Policy, p99s []float64) [][]Action {
	apps := []AppView{appView(2, 4, 4, 0), appView(0, 6, 3, 1), appView(0, 2, 4, 0)}
	for i := range apps {
		apps[i].QualityPerStep = []float64{0.4, 1.2, 0.7}[i]
	}
	var out [][]Action
	for _, p99 := range p99s {
		acts := p.Decide(snapWithP99(p99, apps...))
		out = append(out, slices.Clone(acts))
		for _, a := range acts {
			switch a.Kind {
			case SwitchVariant:
				apps[a.App].Variant = a.To
			case ReclaimCore:
				apps[a.App].Cores--
				apps[a.App].YieldedCores++
			case ReturnCore:
				apps[a.App].Cores++
				apps[a.App].YieldedCores--
			}
		}
	}
	return out
}

// repeat returns n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestReinitDecidesAsFresh requires a Controller re-initialised after runs
// that left state behind — reclaimed cores on the yield stack, a moved
// round-robin cursor, credited learner arms, a high-slack streak — to decide
// exactly as a freshly built policy over the same report stream, for each
// arbiter.
func TestReinitDecidesAsFresh(t *testing.T) {
	// Violations saturate every app, so each arbiter reclaims cores. The
	// learner steps app 0 first; p99 rises while it does and falls after,
	// so its arms are credited a loss and the others a relief. Two
	// high-slack intervals then stop short of a revert.
	var dirty []float64
	for k := 0; k < 20; k++ {
		if k < 3 {
			dirty = append(dirty, 2+0.2*float64(k))
		} else {
			dirty = append(dirty, 3-0.05*float64(k))
		}
	}
	dirty = append(dirty, repeat(0.5, 2)...)

	// High slack up to a revert, violations, sustained slack that returns
	// cores and restores variants, then a relapse.
	script := repeat(0.5, 3)
	script = append(script, 2.5, 2.2, 1.9, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.1, 1.1, 1.1, 1.1)
	script = append(script, repeat(0.5, 30)...)
	script = append(script, 1.8, 1.6)
	script = append(script, repeat(0.4, 9)...)

	const seed = 11
	for _, arb := range []Arbiter{RoundRobin, ImpactAware, Learner} {
		want := drive(newController(arb, sim.NewRNG(seed)), script)
		kinds := map[ActionKind]bool{}
		for _, acts := range want {
			for _, a := range acts {
				kinds[a.Kind] = true
			}
		}
		if len(kinds) != 3 {
			t.Fatalf("arbiter %d: the script reaches only action kinds %v", arb, kinds)
		}

		// One Controller dirtied under every arbiter, ending with arb.
		c := &Controller{}
		for _, prev := range []Arbiter{RoundRobin, ImpactAware, Learner, arb} {
			c.Init(prev, sim.NewRNG(seed+1))
			drive(c, dirty)
		}
		if len(c.yieldStack) == 0 || len(c.ucb.arms) == 0 {
			t.Fatalf("arbiter %d: the dirtying runs left yield stack %v and %d learner arms", arb, c.yieldStack, len(c.ucb.arms))
		}
		c.Init(arb, sim.NewRNG(seed))
		// What the script may not reach, such as the learner's trial count,
		// is checked directly: the active arbiter's state is a fresh one's.
		// The learner's arm table is compared by length, since Init keeps
		// its capacity.
		f := newController(arb, sim.NewRNG(seed))
		cu, fu := c.ucb, f.ucb
		cu.arms, fu.arms = nil, nil
		if arb == RoundRobin && !reflect.DeepEqual(c.rr, f.rr) ||
			arb == Learner && (len(c.ucb.arms) != 0 || !reflect.DeepEqual(cu, fu)) {
			t.Fatalf("arbiter %d: re-initialised arbiter state %+v %+v, fresh %+v %+v", arb, c.rr, c.ucb, f.rr, f.ucb)
		}
		if got := drive(c, script); !reflect.DeepEqual(got, want) {
			t.Fatalf("arbiter %d: re-initialised controller decides\n%v\nwant\n%v", arb, got, want)
		}
	}
}

// TestDecideLendsItsActions states the lending rule of Policy.Decide for
// the built-in controller: the returned slice is its own buffer, so the
// next Decide overwrites what the previous call returned.
func TestDecideLendsItsActions(t *testing.T) {
	p := pliant()
	apps := []AppView{appView(0, 4, 4, 0), appView(0, 6, 4, 0)}
	first := p.Decide(snap(true, -0.5, apps...))
	kept := first[0]
	apps[kept.App].Variant = kept.To
	second := p.Decide(snap(true, -0.5, apps...))
	if len(second) != 1 || second[0] == kept {
		t.Fatalf("second = %v, want one action on the other app than %v", second, kept)
	}
	if &first[0] != &second[0] || first[0] != second[0] {
		t.Fatalf("first call's slice reads %v after the second call returned %v; want it overwritten", first, second)
	}
}
