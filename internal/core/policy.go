// Package core implements the Pliant runtime: one controller that consumes
// the performance monitor's per-interval reports and actuates approximation
// degrees and core allocations according to the paper's runtime algorithm
// (Fig. 3), with an arbiter choosing which colocated application to act on —
// round-robin (Sec. 4.4), or the impact-aware and learned arbiters the paper
// sketches as future work (Sec. 6.5). The precise baseline and a static
// most-approximate ablation implement the same Policy interface.
package core

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/monitor"
)

// AppView is the controller's read-only view of one colocated approximate
// application at decision time.
type AppView struct {
	Name            string
	Variant         int // 0 = precise
	MostApproximate int // index of the highest approximation degree
	Cores           int
	YieldedCores    int  // cores reclaimed from this app so far
	Done            bool // finished apps are not actuated

	// QualityPerStep estimates the output-quality cost of one variant step
	// for this app (used by the impact-aware policy).
	QualityPerStep float64
}

// Snapshot is everything a policy sees when deciding.
type Snapshot struct {
	Report monitor.Report
	// Apps is valid only during Decide: the runtime rewrites the same
	// backing array at the next report, so a policy that keeps the views
	// across intervals must copy them (slices.Clone).
	Apps         []AppView
	ServiceCores int

	// MinAppCores is the floor below which the controller will not shrink
	// an application.
	MinAppCores int

	// SlackThreshold is the revert threshold (paper: 10%).
	SlackThreshold float64
}

// ActionKind enumerates what a policy can ask the actuator to do.
type ActionKind int

// The actuator verbs of the paper's runtime: switch an app's approximation
// degree, reclaim a core from an app for the service, or return one.
const (
	// SwitchVariant sets app App to variant To.
	SwitchVariant ActionKind = iota
	// ReclaimCore moves one core from app App to the interactive service.
	ReclaimCore
	// ReturnCore moves one core from the interactive service back to App.
	ReturnCore
)

// Action is one actuation step.
type Action struct {
	Kind ActionKind
	App  int // index into Snapshot.Apps
	To   int // target variant for SwitchVariant
}

// String renders the action for traces.
func (a Action) String() string {
	switch a.Kind {
	case SwitchVariant:
		return fmt.Sprintf("switch(app=%d → v%d)", a.App, a.To)
	case ReclaimCore:
		return fmt.Sprintf("reclaim(app=%d)", a.App)
	case ReturnCore:
		return fmt.Sprintf("return(app=%d)", a.App)
	default:
		return fmt.Sprintf("action(%d)", int(a.Kind))
	}
}

// Policy decides the actions for one decision interval. Implementations are
// deterministic given their construction-time seed and the snapshot stream.
// The snapshot's Apps slice is lent for the call only; see Snapshot.Apps.
// Lending runs the other way too: the returned slice is valid until the
// next Decide, which may overwrite it (the built-in controller returns its
// own one-action buffer), so a caller that keeps actions must copy them.
type Policy interface {
	Name() string
	Decide(s Snapshot) []Action
}
