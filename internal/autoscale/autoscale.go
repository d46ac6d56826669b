// Package autoscale manages cluster node lifecycle for energy: which nodes
// are awake, which are parked, and what frequency state each runs in. It is
// the control half of the energy subsystem — internal/energy measures watts;
// this package decides where they go. Two policy families reproduce the
// levers the datacenter-efficiency literature (Flex's usage/allocation gap,
// Buyya et al.'s consolidation + power states) pairs with Pliant's thesis:
// consolidation parks whole idle nodes behind the scheduler's queue, and the
// approx-for-watts policy spends the approximation slack Pliant's runtime
// creates — tail latency comfortably under QoS because jobs degrade
// gracefully — on lower frequency states instead of leaving it idle.
//
// Controllers are pure decision functions over a boundary snapshot; the
// online scheduler (internal/sched) owns the actual state machine, applies
// transition latencies and wake energy, and keeps everything deterministic.
package autoscale

import "fmt"

// State is a node's lifecycle position.
type State int

// The lifecycle states. Transitions: Active→Draining (park requested while
// jobs resident), Draining→Parked (last resident finished), Active→Parked
// (park requested while empty), Parked→Waking (wake requested; costs the
// model's wake energy), Waking→Active (after the wake delay). Fault
// injection (internal/fault) adds any→Down (crash) and Down→Active
// (recovery); controllers never enter or leave Down themselves — a crashed
// node is dead hardware, not a parked one, so Wake verdicts ignore it.
const (
	Active State = iota
	Draining
	Parked
	Waking
	Down
)

// String names the state.
func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Parked:
		return "parked"
	case Waking:
		return "waking"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Placeable reports whether a scheduler may put new jobs on a node in this
// state.
func (s State) Placeable() bool { return s == Active }

// NodeView is the controller's read-only view of one node at a scheduling
// boundary.
type NodeView struct {
	Index    int
	State    State
	Service  string
	Resident int // jobs currently on the node
	Slots    int // job capacity (MaxApps)
	Freq     int // frequency-state index into the energy model's ladder

	// P99OverQoS and Reports mirror the node's live runtime telemetry
	// (cluster.Telemetry): the recency-weighted tail ratio and how many
	// intervals informed it.
	P99OverQoS float64
	Reports    int

	// Stale marks telemetry served from a last-known-good snapshot because
	// the node's live feed dropped out (fault injection); the P99OverQoS and
	// Reports above are frozen at the dropout instant, not current.
	Stale bool
}

// View is the cluster snapshot a controller decides against.
type View struct {
	NowSec  float64
	Pending int // jobs waiting in the scheduler's queue
	Nominal int // the energy model's nominal frequency-state index
	Nodes   []NodeView
}

// FreeSlots sums the open capacity of placeable nodes.
func (v View) FreeSlots() int {
	free := 0
	for _, n := range v.Nodes {
		if n.State.Placeable() {
			free += n.Slots - n.Resident
		}
	}
	return free
}

// ActionKind selects a lifecycle actuation.
type ActionKind int

// The actions a controller may request.
const (
	// Park suspends a node. An empty node parks at the next boundary; a
	// node with residents drains first.
	Park ActionKind = iota
	// Wake resumes a parked node, paying the model's wake energy and delay.
	Wake
	// SetFreq moves a node to the given frequency state.
	SetFreq
)

// Action is one lifecycle actuation against a node.
type Action struct {
	Kind ActionKind
	Node int
	Freq int // SetFreq target state
}

// Controller decides lifecycle and frequency transitions at every scheduling
// boundary. Decisions must be pure functions of the view so runs stay
// deterministic. The view's Nodes slice is lent for the call only: the
// scheduler rewrites the same backing array at every boundary, so a
// controller that keeps the views must copy them.
type Controller interface {
	Name() string
	Decide(v View) []Action
}

// Consolidate is the classic autoscaler: keep just enough nodes awake to
// cover the queue plus a reserve, park the rest, and wake nodes when demand
// returns. Frequency states are left at whatever they are (nominal unless
// another controller moved them).
type Consolidate struct {
	// ReserveSlots is the free-capacity headroom kept awake beyond the
	// pending queue (default 2): the price of not paying wake latency on
	// every small burst. The zero value means "default", so an explicit
	// zero-slot reserve — park everything the queue does not need — is
	// requested with any negative value (NoReserve).
	ReserveSlots int

	// MinActive is the floor of placeable-or-waking nodes (default 1).
	// Like ReserveSlots, the zero value means "default": an explicit zero
	// floor — the whole cluster may park — is requested with any negative
	// value (NoReserve).
	MinActive int
}

// NoReserve is the sentinel for an explicit zero in Consolidate's sized
// knobs (ReserveSlots, MinActive), whose zero values mean "default" — so
// "none at all" needs a value the zero-value ambiguity cannot eat.
const NoReserve = -1

// Reserve resolves ReserveSlots: the default (2) for the zero value, zero
// for NoReserve (any negative), the literal count otherwise.
func (c Consolidate) Reserve() int {
	switch {
	case c.ReserveSlots < 0:
		return 0
	case c.ReserveSlots == 0:
		return 2
	default:
		return c.ReserveSlots
	}
}

// ActiveFloor resolves MinActive under the same contract: default (1) for
// the zero value, zero for NoReserve (any negative).
func (c Consolidate) ActiveFloor() int {
	switch {
	case c.MinActive < 0:
		return 0
	case c.MinActive == 0:
		return 1
	default:
		return c.MinActive
	}
}

// Name identifies the policy.
func (Consolidate) Name() string { return "consolidate" }

// Decide implements Controller.
func (c Consolidate) Decide(v View) []Action {
	reserve := c.Reserve()
	minActive := c.ActiveFloor()

	free := v.FreeSlots()
	awake := 0 // nodes that are or will shortly be placeable
	for _, n := range v.Nodes {
		if n.State == Active || n.State == Waking {
			awake++
		}
	}

	var acts []Action
	need := v.Pending + reserve
	if free < need {
		// Wake parked nodes, lowest index first, until capacity covers the
		// queue plus reserve. Waking nodes' slots count once they activate,
		// so include them in the projection.
		for _, n := range v.Nodes {
			if free >= need {
				break
			}
			if n.State == Waking {
				free += n.Slots - n.Resident
			}
		}
		for _, n := range v.Nodes {
			if free >= need {
				break
			}
			if n.State == Parked {
				acts = append(acts, Action{Kind: Wake, Node: n.Index})
				free += n.Slots
			}
		}
		return acts
	}

	// Surplus: park empty active nodes while the remaining free capacity
	// still covers the queue plus reserve and the active floor holds.
	// Highest index first, so the cluster shrinks from the back and the
	// front nodes stay warm — a deterministic, stable choice.
	for i := len(v.Nodes) - 1; i >= 0; i-- {
		n := v.Nodes[i]
		if n.State != Active || n.Resident != 0 {
			continue
		}
		if awake-1 < minActive || free-n.Slots < need {
			continue
		}
		acts = append(acts, Action{Kind: Park, Node: n.Index})
		free -= n.Slots
		awake--
	}
	return acts
}

// ApproxForWatts is the Pliant-style policy: consolidation plus frequency
// scaling funded by approximation slack. When a node's live telemetry shows
// its recent tail comfortably under QoS — slack the runtime created by
// degrading job quality instead of service latency — the node steps one
// frequency state down, trading that slack for watts; when the tail nears
// the target it snaps back to nominal. Idle nodes return to nominal so fresh
// placements never start handicapped.
type ApproxForWatts struct {
	Consolidate

	// LowWater is the p99/QoS ratio below which a busy node steps its
	// frequency down one state (default 0.75).
	LowWater float64

	// HighWater is the ratio above which a node snaps back to nominal
	// (default 0.95) — recovery is immediate, spending is gradual.
	HighWater float64

	// MinReports gates frequency moves on telemetry maturity (default 3
	// intervals), so one quiet interval can't trigger a downstep.
	MinReports int
}

// Name identifies the policy.
func (ApproxForWatts) Name() string { return "approx-for-watts" }

// Decide implements Controller.
func (p ApproxForWatts) Decide(v View) []Action {
	low := p.LowWater
	if low == 0 {
		low = 0.75
	}
	high := p.HighWater
	if high == 0 {
		high = 0.95
	}
	minReports := p.MinReports
	if minReports == 0 {
		minReports = 3
	}

	acts := p.Consolidate.Decide(v)
	parked := make(map[int]bool, len(acts))
	for _, a := range acts {
		if a.Kind == Park {
			parked[a.Node] = true
		}
	}
	for _, n := range v.Nodes {
		if n.State != Active || parked[n.Index] {
			continue
		}
		switch {
		case n.Resident == 0:
			if n.Freq != v.Nominal {
				acts = append(acts, Action{Kind: SetFreq, Node: n.Index, Freq: v.Nominal})
			}
		case n.Reports >= minReports && n.P99OverQoS > high && n.Freq < v.Nominal:
			acts = append(acts, Action{Kind: SetFreq, Node: n.Index, Freq: v.Nominal})
		case n.Reports >= minReports && n.P99OverQoS < low && n.Freq > 0:
			acts = append(acts, Action{Kind: SetFreq, Node: n.Index, Freq: n.Freq - 1})
		}
	}
	return acts
}
