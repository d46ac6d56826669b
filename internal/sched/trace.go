package sched

import (
	"fmt"
	"sort"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/trace"
)

// JobsFromTrace maps a trace's job stream onto catalog applications for the
// pending queue: trace jobs ranked by resource demand (CPU, then memory,
// then duration) map onto the candidate apps ranked by residual pressure
// (PressureOf), so a heavy trace row becomes a heavy catalog job and
// the trace's demand mix survives the translation. The i-th returned name is
// the app of the i-th arrival. Candidates default to the full catalog; the
// mapping is a pure function of the trace and the candidate set.
func JobsFromTrace(tr *trace.Trace, candidates []string) ([]string, error) {
	if tr == nil || len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("sched: cannot map an empty trace onto catalog jobs")
	}
	names := candidates
	if len(names) == 0 {
		names = app.Names()
	}
	profs := make([]app.Profile, len(names))
	for i, n := range names {
		p, err := app.ByName(n)
		if err != nil {
			return nil, err
		}
		profs[i] = p
	}
	// Candidates light→heavy by pressure, name-tiebroken for determinism.
	byPressure := append([]app.Profile(nil), profs...)
	sort.SliceStable(byPressure, func(a, b int) bool {
		pa, pb := PressureOf(byPressure[a]), PressureOf(byPressure[b])
		if pa != pb {
			return pa < pb
		}
		return byPressure[a].Name < byPressure[b].Name
	})
	// Trace jobs ranked by demand: sort an index permutation, then invert it
	// so rank[i] is job i's position in the demand order.
	order := make([]int, len(tr.Jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := tr.Jobs[order[a]], tr.Jobs[order[b]]
		if ja.CPU != jb.CPU {
			return ja.CPU < jb.CPU
		}
		if ja.Mem != jb.Mem {
			return ja.Mem < jb.Mem
		}
		return ja.DurationSec < jb.DurationSec
	})
	rank := make([]int, len(order))
	for pos, i := range order {
		rank[i] = pos
	}
	out := make([]string, len(tr.Jobs))
	for i := range tr.Jobs {
		k := rank[i] * len(byPressure) / len(tr.Jobs)
		out[i] = byPressure[k].Name
	}
	return out, nil
}
