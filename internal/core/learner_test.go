package core

import (
	"testing"

	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/sim"
)

// snapWithP99 builds a snapshot with explicit p99/QoS for learner crediting.
func snapWithP99(p99OverQoS float64, apps ...AppView) Snapshot {
	qos := sim.Duration(1000)
	s := Snapshot{
		Report: monitor.Report{
			P99:       sim.Duration(p99OverQoS * 1000),
			QoS:       qos,
			Violation: p99OverQoS > 1,
			Slack:     1 - p99OverQoS,
		},
		Apps:           apps,
		ServiceCores:   8,
		MinAppCores:    1,
		SlackThreshold: 0.10,
	}
	return s
}

// learnerUnderTest is a learner controller with its arbiter's state in
// reach of the tests.
type learnerUnderTest struct {
	*Controller
	*ucbLearner
}

func learner() learnerUnderTest {
	c := NewLearnerPolicy().(*Controller)
	c.patience = 1
	return learnerUnderTest{c, c.arb.(*ucbLearner)}
}

// Estimate returns the learned relief for an (app, variant) arm — 0 and
// false if never credited.
func (p learnerUnderTest) Estimate(app, variant int) (float64, bool) {
	k := p.arm(app, variant) // may grow p.arms: index it after
	if a := p.arms[k]; a.visits > 0 {
		return a.mean, true
	}
	return 0, false
}

// setArm implants a learned estimate for an (app, variant) arm.
func (p learnerUnderTest) setArm(app, variant int, mean float64, visits int) {
	k := p.arm(app, variant) // may grow p.arms: index it after
	p.arms[k] = armEstimate{mean: mean, visits: visits}
}

func TestLearnerEscalatesIncrementally(t *testing.T) {
	p := learner()
	acts := p.Decide(snapWithP99(3.0, appView(0, 4, 8, 0)))
	if len(acts) != 1 || acts[0].Kind != SwitchVariant || acts[0].To != 1 {
		t.Fatalf("acts = %v, want step 0→1 (learner has no prior to justify jumping)", acts)
	}
}

func TestLearnerCreditsRelief(t *testing.T) {
	p := learner()
	// Violation at 3.0x: learner steps app to v1.
	first := p.Decide(snapWithP99(3.0, appView(0, 4, 8, 0)))
	if len(first) != 1 {
		t.Fatal("no action")
	}
	// Next interval: p99 fell to 1.5x. The arm (app0, v1) must be credited
	// with relief 1.5.
	_ = p.Decide(snapWithP99(1.5, appView(1, 4, 8, 0)))
	relief, ok := p.Estimate(0, 1)
	if !ok {
		t.Fatal("arm never credited")
	}
	if relief <= 0 {
		t.Fatalf("relief = %v, want positive", relief)
	}
}

func TestLearnerPrefersProvenArm(t *testing.T) {
	p := learner()
	p.explore = 0 // pure exploitation for determinism
	a := appView(0, 4, 4, 0)
	b := appView(0, 4, 4, 0)

	// Teach: stepping app 0 helps a lot, stepping app 1 does nothing.
	_ = p.Decide(snapWithP99(3.0, a, b)) // some first action
	// Manually implant estimates (the public Estimate path is read-only, so
	// replay history instead): app0→v1 credited with big relief.
	p.setArm(0, 1, 2.0, 3)
	p.setArm(1, 1, 0.01, 3)

	acts := p.Decide(snapWithP99(2.5, a, b))
	if len(acts) != 1 || acts[0].App != 0 {
		t.Fatalf("acts = %v, want escalation on the proven app 0", acts)
	}
}

func TestLearnerReclaimsWhenSaturated(t *testing.T) {
	p := learner()
	acts := p.Decide(snapWithP99(3.0, appView(4, 4, 8, 0)))
	if len(acts) != 1 || acts[0].Kind != ReclaimCore {
		t.Fatalf("acts = %v, want core reclaim at saturation", acts)
	}
	// Slack: core returns first.
	acts = p.Decide(snapWithP99(0.3, appView(4, 4, 7, 1)))
	if len(acts) != 1 || acts[0].Kind != ReturnCore {
		t.Fatalf("acts = %v, want core return", acts)
	}
}

func TestLearnerRelaxesWorstArm(t *testing.T) {
	p := learner()
	p.explore = 0
	a := appView(2, 4, 4, 0) // current variant 2
	b := appView(2, 4, 4, 0)
	p.setArm(0, 2, 1.5, 2)  // app0's current variant delivers big relief
	p.setArm(1, 2, 0.05, 2) // app1's delivers almost nothing
	acts := p.Decide(snapWithP99(0.2, a, b))
	if len(acts) != 1 || acts[0].Kind != SwitchVariant || acts[0].App != 1 || acts[0].To != 1 {
		t.Fatalf("acts = %v, want step-down on the useless arm (app 1)", acts)
	}
}

func TestLearnerExplorationPrefersUnvisited(t *testing.T) {
	p := learner()
	a := appView(0, 4, 4, 0)
	b := appView(0, 4, 4, 0)
	// App 0's first step is known mediocre; app 1 never tried. With the
	// default optimism, the unvisited arm wins.
	p.setArm(0, 1, 0.05, 5)
	p.trials = 5
	acts := p.Decide(snapWithP99(2.0, a, b))
	if len(acts) != 1 || acts[0].App != 1 {
		t.Fatalf("acts = %v, want exploration of app 1", acts)
	}
}

func TestLearnerEstimateUnknown(t *testing.T) {
	p := learner()
	if _, ok := p.Estimate(0, 1); ok {
		t.Fatal("unvisited arm reported an estimate")
	}
}

func TestLearnerHoldsInBand(t *testing.T) {
	p := learner()
	if acts := p.Decide(snapWithP99(0.95, appView(2, 4, 8, 0))); len(acts) != 0 {
		t.Fatalf("acts = %v, want hold at slack 0.05", acts)
	}
}
