package core

import (
	"math"

	"github.com/approx-sched/pliant/internal/sim"
)

// LearnerPolicy implements the runtime-learning extension the paper sketches
// in Sec. 6.5 for public-cloud settings where offline profiling is
// impossible: "the relative impact of approximate versions can be learned at
// runtime". The policy knows only each application's variant *count* (the
// signal map the dyninst substrate exposes) — not the variants' measured
// time/traffic effects — and learns online how much tail-latency relief each
// (app, variant) pair delivers, from the monitor reports that follow its own
// actuations.
//
// Mechanics: after switching app a to variant v, the next report's
// normalized p99 improvement is credited to Q[a][v] with an exponential
// moving average. On violation the policy picks the (app, step-up) arm with
// the best optimistic estimate (mean + exploration bonus, a UCB1-style
// rule); core reclamation remains the fallback once all apps are saturated.
// On sustained slack it steps back the arm with the worst learned relief, so
// quality is restored where approximation demonstrably buys the least.
type LearnerPolicy struct {
	// SlackPatience mirrors PliantPolicy.SlackPatience.
	SlackPatience int

	// ExplorationBonus scales the optimism term; 0 disables exploration.
	ExplorationBonus float64

	// Alpha is the EMA weight for new observations, in (0, 1].
	Alpha float64

	rng        *sim.RNG
	q          map[int]map[int]*armEstimate // app -> target variant -> estimate
	trials     int
	lastAction *Action // the actuation awaiting credit
	lastP99    float64 // p99/QoS before the pending actuation
	yieldStack []int
	slackRun   int
}

type armEstimate struct {
	mean   float64
	visits int
}

// NewLearnerPolicy returns the Sec. 6.5 online-learning policy.
func NewLearnerPolicy(rng *sim.RNG) *LearnerPolicy {
	return &LearnerPolicy{
		SlackPatience:    DefaultSlackPatience,
		ExplorationBonus: 0.5,
		Alpha:            0.4,
		rng:              rng,
		q:                make(map[int]map[int]*armEstimate),
	}
}

// Name identifies the policy.
func (p *LearnerPolicy) Name() string { return "learner" }

// Decide implements Policy.
func (p *LearnerPolicy) Decide(s Snapshot) []Action {
	p.credit(s)

	active := activeApps(s)
	if len(active) == 0 {
		return nil
	}
	if s.Report.Violation {
		p.slackRun = 0
		return p.escalate(s, active)
	}
	if s.Report.Slack > s.SlackThreshold {
		p.slackRun++
		patience := p.SlackPatience
		if patience < 1 {
			patience = 1
		}
		if p.slackRun < patience {
			return nil
		}
		p.slackRun = 0
		return p.relax(s, active)
	}
	p.slackRun = 0
	return nil
}

// credit attributes the change in normalized p99 since the last actuation to
// the arm that caused it.
func (p *LearnerPolicy) credit(s Snapshot) {
	cur := p99Norm(s)
	if p.lastAction != nil && p.lastAction.Kind == SwitchVariant {
		relief := p.lastP99 - cur // positive = the switch helped
		arm := p.arm(p.lastAction.App, p.lastAction.To)
		arm.mean = (1-p.Alpha)*arm.mean + p.Alpha*relief
		arm.visits++
		p.trials++
	}
	p.lastAction = nil
	p.lastP99 = cur
}

func p99Norm(s Snapshot) float64 {
	if s.Report.QoS <= 0 {
		return 0
	}
	return float64(s.Report.P99) / float64(s.Report.QoS)
}

func (p *LearnerPolicy) arm(app, variant int) *armEstimate {
	m, ok := p.q[app]
	if !ok {
		m = make(map[int]*armEstimate)
		p.q[app] = m
	}
	a, ok := m[variant]
	if !ok {
		a = &armEstimate{}
		m[variant] = a
	}
	return a
}

// escalate picks the best learned (or most promising unexplored) step-up.
func (p *LearnerPolicy) escalate(s Snapshot, active []int) []Action {
	bestApp, bestScore := -1, math.Inf(-1)
	for _, i := range active {
		a := s.Apps[i]
		if a.Variant >= a.MostApproximate {
			continue
		}
		arm := p.arm(i, a.Variant+1)
		score := arm.mean + p.bonus(arm.visits)
		if score > bestScore {
			bestApp, bestScore = i, score
		}
	}
	if bestApp >= 0 {
		act := Action{Kind: SwitchVariant, App: bestApp, To: s.Apps[bestApp].Variant + 1}
		p.lastAction = &act
		return []Action{act}
	}
	// Everyone saturated: fall back to core reclamation, round-robin-free
	// (largest app first, as the impact-aware policy does).
	best, bestCores := -1, -1
	for _, i := range active {
		if s.Apps[i].Cores > s.MinAppCores && s.Apps[i].Cores > bestCores {
			best, bestCores = i, s.Apps[i].Cores
		}
	}
	if best >= 0 {
		p.yieldStack = append(p.yieldStack, best)
		return []Action{{Kind: ReclaimCore, App: best}}
	}
	return nil
}

// bonus is the UCB-style optimism term: unvisited arms look attractive.
func (p *LearnerPolicy) bonus(visits int) float64 {
	if p.ExplorationBonus == 0 {
		return 0
	}
	return p.ExplorationBonus * math.Sqrt(math.Log(float64(p.trials)+math.E)/float64(visits+1))
}

// relax returns cores first, then steps back the variant whose last step
// delivered the least learned relief.
func (p *LearnerPolicy) relax(s Snapshot, active []int) []Action {
	for len(p.yieldStack) > 0 {
		idx := p.yieldStack[len(p.yieldStack)-1]
		p.yieldStack = p.yieldStack[:len(p.yieldStack)-1]
		if s.Apps[idx].Done || s.Apps[idx].YieldedCores == 0 {
			continue
		}
		return []Action{{Kind: ReturnCore, App: idx}}
	}
	worstApp, worstScore := -1, math.Inf(1)
	for _, i := range active {
		a := s.Apps[i]
		if a.Variant == 0 {
			continue
		}
		arm := p.arm(i, a.Variant)
		if arm.mean < worstScore {
			worstApp, worstScore = i, arm.mean
		}
	}
	if worstApp >= 0 {
		act := Action{Kind: SwitchVariant, App: worstApp, To: s.Apps[worstApp].Variant - 1}
		p.lastAction = &act
		return []Action{act}
	}
	return nil
}

// Estimate exposes the learned relief for an (app, variant) arm —
// 0 and false if never observed. Useful for reporting and tests.
func (p *LearnerPolicy) Estimate(app, variant int) (float64, bool) {
	if m, ok := p.q[app]; ok {
		if a, ok := m[variant]; ok && a.visits > 0 {
			return a.mean, true
		}
	}
	return 0, false
}
