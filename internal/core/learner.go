package core

import (
	"math"
	"slices"
)

// The learner's tuning: the UCB optimism scale and the EMA weight of a new
// observation.
const (
	explorationBonus = 0.5
	learnerAlpha     = 0.4
)

// NewLearnerPolicy returns the runtime-learning extension the paper sketches
// in Sec. 6.5 for public-cloud settings where offline profiling is
// impossible: "the relative impact of approximate versions can be learned at
// runtime". The policy knows only each application's variant count — not
// the variants' measured time/traffic effects — and learns online how much
// tail-latency relief each (app, variant) pair delivers, from the monitor
// reports that follow its own actuations.
//
// Mechanics: after switching app a to variant v, the next report's
// normalized p99 improvement is credited to the (a, v) arm with an
// exponential moving average. On violation the policy steps up the app whose
// next arm has the best optimistic estimate (mean + exploration bonus, a
// UCB1-style rule); core reclamation, from the largest app, remains the
// fallback once all apps are saturated. On sustained slack it steps back the
// app whose current arm has the worst learned relief, so quality is
// restored where approximation demonstrably buys the least.
func NewLearnerPolicy() Policy {
	c := &Controller{}
	c.Init(Learner, nil)
	return c
}

type ucbLearner struct {
	explore float64       // optimism scale; 0 disables exploration
	arms    []armEstimate // estimates, indexed by arm(app, target variant)
	trials  int           // credited switches so far
	pending int           // index of the switched-to arm awaiting credit, or -1
	lastP99 float64       // p99/QoS at the previous report
}

type armEstimate struct {
	mean   float64
	visits int
}

// observe credits the change in normalized p99 since the last report to the
// arm switched to then, if any.
func (l *ucbLearner) observe(s Snapshot) {
	cur := 0.0
	if s.Report.QoS > 0 {
		cur = float64(s.Report.P99) / float64(s.Report.QoS)
	}
	if l.pending >= 0 {
		arm := &l.arms[l.pending]
		relief := l.lastP99 - cur // positive = the switch helped
		arm.mean = (1-learnerAlpha)*arm.mean + learnerAlpha*relief
		arm.visits++
		l.trials++
	}
	l.pending = -1
	l.lastP99 = cur
}

// arm returns the index in l.arms of the (app, variant) estimate, growing
// the table with fresh estimates to reach it, so index l.arms only after
// the call. The table keeps its capacity across Init, so a warm learner
// grows it without allocating.
func (l *ucbLearner) arm(app, variant int) int {
	// The Cantor pairing numbers every (app, variant) pair without a bound
	// on either, and keeps the small pairs an episode uses at the front.
	k := (app+variant)*(app+variant+1)/2 + variant
	if n := len(l.arms); k >= n {
		// Not append(l.arms, make(...)...): built with -race, that form
		// allocates on every growth, even within capacity.
		l.arms = slices.Grow(l.arms, k+1-n)[:k+1]
		clear(l.arms[n:])
	}
	return k
}

// bonus is the UCB-style optimism term: unvisited arms look attractive.
func (l *ucbLearner) bonus(visits int) float64 {
	if l.explore == 0 {
		return 0
	}
	return l.explore * math.Sqrt(math.Log(float64(l.trials)+math.E)/float64(visits+1))
}

// approximate steps up the app whose next arm scores best.
func (l *ucbLearner) approximate(s Snapshot) (int, int, bool) {
	best, bestScore := -1, math.Inf(-1)
	for i, a := range s.Apps {
		if a.Done || a.Variant >= a.MostApproximate {
			continue
		}
		k := l.arm(i, a.Variant+1)
		arm := l.arms[k]
		if score := arm.mean + l.bonus(arm.visits); score > bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	to := s.Apps[best].Variant + 1
	l.pending = l.arm(best, to)
	return best, to, true
}

func (l *ucbLearner) reclaim(s Snapshot) (int, bool) { return largestApp(s) }

// restore steps back the app whose current arm delivered the least relief.
func (l *ucbLearner) restore(s Snapshot) (int, bool) {
	worst, worstScore := -1, math.Inf(1)
	for i, a := range s.Apps {
		if a.Done || a.Variant == 0 {
			continue
		}
		k := l.arm(i, a.Variant)
		if m := l.arms[k].mean; m < worstScore {
			worst, worstScore = i, m
		}
	}
	if worst < 0 {
		return 0, false
	}
	l.pending = l.arm(worst, s.Apps[worst].Variant-1)
	return worst, true
}
