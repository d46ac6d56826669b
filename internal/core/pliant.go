package core

import (
	"fmt"
	"slices"

	"github.com/approx-sched/pliant/internal/sim"
)

// DefaultSlackPatience is the number of consecutive high-slack intervals
// before each revert step. The paper reverts on a single high-slack
// interval; on the simulated platform the core quantum is coarse relative to
// the queueing cliff, so immediate reverts ping-pong between violation and
// deep slack (exactly the failure mode Sec. 4.3 predicts for too-low slack
// thresholds).
const DefaultSlackPatience = 3

// arbiter picks which application the controller acts on. Only apps that
// are not Done are eligible; each choice reports false when none qualifies.
type arbiter interface {
	// observe sees every report that has an app still running, before the
	// controller asks for a choice.
	observe(s Snapshot)
	// approximate picks, on a violation, an app below its most approximate
	// variant and the variant to switch it to.
	approximate(s Snapshot) (app, to int, ok bool)
	// reclaim picks, once no app can be approximated further, an app above
	// MinAppCores to take a core from.
	reclaim(s Snapshot) (app int, ok bool)
	// restore picks, on sustained slack with no reclaimed core to return,
	// an app above precise to step one variant back.
	restore(s Snapshot) (app int, ok bool)
}

// Controller is the paper's runtime algorithm (Fig. 3), one action per
// interval at most, with an arbiter choosing the app:
//
//   - On a QoS violation, approximate one app further; once none can be,
//     reclaim one core from one app for the service.
//   - After patience consecutive intervals with slack above the threshold
//     (10%), revert the most recent action class: return the last reclaimed
//     core whose app still runs and holds it (LIFO), else step one app's
//     variant back toward precise.
//   - With slack at or below the threshold, hold state.
//
// A Controller holds the state of every arbiter it can run, so one value
// serves a stream of episodes: Init restarts it in place. The zero value is
// not ready to use, and a Controller must not be copied once initialised
// (its arbiter points into it).
type Controller struct {
	name       string
	arb        arbiter   // &rr, impactAware{} or &ucb
	patience   int       // high-slack intervals before each revert
	slackRun   int       // consecutive high-slack intervals observed
	yieldStack []int     // app indices in core-reclaim order
	act        [1]Action // the buffer Decide lends its action in

	rr  roundRobin
	ucb ucbLearner
}

// Arbiter names the rule a Controller uses to choose the app it acts on.
type Arbiter int

// The arbiters: the paper's and the two Sec. 6.5 extensions.
const (
	// RoundRobin is the paper's arbiter (Sec. 4.4), starting from a
	// position drawn from the Init RNG.
	RoundRobin Arbiter = iota
	// ImpactAware acts on the app whose quality suffers least
	// (NewImpactAwarePolicy).
	ImpactAware
	// Learner learns each variant's tail-latency relief online
	// (NewLearnerPolicy).
	Learner
)

// Init (re)initialises c in place to the state a fresh policy with arbiter
// arb starts from. Only RoundRobin draws from rng, once, at the first
// report; the others ignore it. The yield stack and the learner's arm table
// are emptied but keep their capacity.
func (c *Controller) Init(arb Arbiter, rng *sim.RNG) {
	c.patience = DefaultSlackPatience
	c.slackRun = 0
	c.yieldStack = c.yieldStack[:0]
	switch arb {
	case RoundRobin:
		c.name = "pliant"
		c.rr = roundRobin{rng: rng}
		c.arb = &c.rr
	case ImpactAware:
		c.name = "impact-aware"
		c.arb = impactAware{}
	case Learner:
		c.name = "learner"
		c.ucb = ucbLearner{explore: explorationBonus, arms: c.ucb.arms[:0], pending: -1}
		c.arb = &c.ucb
	default:
		panic(fmt.Sprintf("core: unknown arbiter %d", arb))
	}
}

// NewPliantPolicy returns the paper's policy (Sec. 4.3–4.4): on a violation
// it jumps one app straight to its most approximate variant, "to avoid
// prolonged degraded performance", and both that choice and core reclaims
// go round-robin from a position the RNG draws ("selected randomly").
func NewPliantPolicy(rng *sim.RNG) Policy {
	c := &Controller{}
	c.Init(RoundRobin, rng)
	return c
}

// Name identifies the policy in traces and reports.
func (c *Controller) Name() string { return c.name }

// Decide implements Policy. The returned slice is c's own one-action buffer,
// lent until the next Decide.
func (c *Controller) Decide(s Snapshot) []Action {
	if !slices.ContainsFunc(s.Apps, func(a AppView) bool { return !a.Done }) {
		return nil
	}
	c.arb.observe(s)

	if s.Report.Violation {
		c.slackRun = 0
		if i, to, ok := c.arb.approximate(s); ok {
			return c.lend(Action{Kind: SwitchVariant, App: i, To: to})
		}
		if i, ok := c.arb.reclaim(s); ok {
			c.yieldStack = append(c.yieldStack, i)
			return c.lend(Action{Kind: ReclaimCore, App: i})
		}
		return nil // nothing left to actuate
	}
	if s.Report.Slack <= s.SlackThreshold {
		c.slackRun = 0
		return nil // QoS met without excess slack: hold
	}
	if c.slackRun++; c.slackRun < c.patience {
		return nil
	}
	c.slackRun = 0
	for len(c.yieldStack) > 0 {
		i := c.yieldStack[len(c.yieldStack)-1]
		c.yieldStack = c.yieldStack[:len(c.yieldStack)-1]
		if !s.Apps[i].Done && s.Apps[i].YieldedCores > 0 {
			return c.lend(Action{Kind: ReturnCore, App: i})
		}
	}
	if i, ok := c.arb.restore(s); ok {
		return c.lend(Action{Kind: SwitchVariant, App: i, To: s.Apps[i].Variant - 1})
	}
	return nil // everything precise at fair shares: steady state
}

// lend stores a in the controller's buffer and returns it as a one-action
// result, so an acting interval allocates nothing.
func (c *Controller) lend(a Action) []Action {
	c.act[0] = a
	return c.act[:]
}

// roundRobin is the paper's arbiter (Sec. 4.4): every choice scans the apps
// from a shared cursor and advances it past the app chosen, so no app is
// penalized or restored twice while another qualifies.
type roundRobin struct {
	rng    *sim.RNG // draws the first cursor at the first report, then nil
	cursor int
}

func (r *roundRobin) observe(s Snapshot) {
	if r.rng != nil {
		r.cursor = r.rng.Intn(len(s.Apps))
		r.rng = nil
	}
}

func (r *roundRobin) approximate(s Snapshot) (int, int, bool) {
	i, ok := r.next(s, func(a AppView) bool { return a.Variant < a.MostApproximate })
	if !ok {
		return 0, 0, false
	}
	return i, s.Apps[i].MostApproximate, true
}

func (r *roundRobin) reclaim(s Snapshot) (int, bool) {
	return r.next(s, func(a AppView) bool { return a.Cores > s.MinAppCores })
}

func (r *roundRobin) restore(s Snapshot) (int, bool) {
	return r.next(s, func(a AppView) bool { return a.Variant > 0 })
}

// next returns the first running app from the cursor satisfying pred.
func (r *roundRobin) next(s Snapshot, pred func(AppView) bool) (int, bool) {
	n := len(s.Apps)
	for k := 0; k < n; k++ {
		i := (r.cursor + k) % n
		if !s.Apps[i].Done && pred(s.Apps[i]) {
			r.cursor = (i + 1) % n
			return i, true
		}
	}
	return 0, false
}

// largestApp returns the running app with the most cores among those above
// MinAppCores: it loses the smallest relative share. A tie between equal
// core counts goes to the app listed first, so the impact-aware and learner
// results depend on the order a colocation lists its apps in; the goldens
// and the arbiter ablation pin both orders of {Bayesian, canneal}.
func largestApp(s Snapshot) (int, bool) {
	best, bestCores := -1, -1
	for i, a := range s.Apps {
		if !a.Done && a.Cores > s.MinAppCores && a.Cores > bestCores {
			best, bestCores = i, a.Cores
		}
	}
	return best, best >= 0
}

// PrecisePolicy is the paper's baseline: a fair static allocation with every
// application running precise; it never actuates.
type PrecisePolicy struct{}

// Name identifies the policy.
func (PrecisePolicy) Name() string { return "precise" }

// Decide never acts: the baseline runs open-loop.
func (PrecisePolicy) Decide(Snapshot) []Action { return nil }

// StaticApproxPolicy is an ablation: every application runs at its most
// approximate variant from the start, with no core reallocation. It isolates
// how much of Pliant's benefit comes from approximation alone versus
// feedback control.
type StaticApproxPolicy struct{}

// Name identifies the policy.
func (StaticApproxPolicy) Name() string { return "static-approx" }

// Decide pins every app to its most approximate variant and does nothing
// else.
func (StaticApproxPolicy) Decide(s Snapshot) []Action {
	var out []Action
	for i, a := range s.Apps {
		if !a.Done && a.Variant < a.MostApproximate {
			out = append(out, Action{Kind: SwitchVariant, App: i, To: a.MostApproximate})
		}
	}
	return out
}
