// Package dse implements the paper's offline design-space exploration
// (Sec. 3): it enumerates candidate approximate variants for an application —
// per-site loop perforations at several factors and modes, synchronization
// elisions, precision reductions, and their combinations — computes each
// candidate's effect on execution time, memory traffic, and output quality,
// discards candidates above the permitted inaccuracy threshold, and selects
// the variants close to the pareto-optimal (time, inaccuracy) frontier that
// the Pliant runtime later switches between.
package dse

import (
	"fmt"
	"sort"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/approx"
)

// Options tunes the exploration.
type Options struct {
	// MaxInaccuracy is the permitted output quality loss in percent
	// (paper: 5%).
	MaxInaccuracy float64

	// PerforationFactors are the loop-reduction factors explored per
	// perforable site.
	PerforationFactors []int

	// TimeGap is the minimum execution-time improvement (fraction of
	// precise) a pareto point must add over the previously selected one to
	// be kept; it thins near-duplicates off the frontier ("variants close
	// to the pareto-optimal curve").
	TimeGap float64

	// MaxCandidates caps the enumeration (the full space is combinatorial;
	// the paper calls it "in the order of 1000s" for typical apps).
	MaxCandidates int

	// MaxVariants caps how many frontier variants are retained (0 = no
	// cap). When the thinned frontier still exceeds the cap it is
	// downsampled evenly, always keeping the least and most approximate
	// endpoints — the paper's explorations retain a small, per-app number
	// of representative points.
	MaxVariants int
}

// DefaultOptions mirrors the paper: 5% inaccuracy budget, perforation
// factors 2..12, and a 3% frontier-thinning gap.
func DefaultOptions() Options {
	return Options{
		MaxInaccuracy:      5.0,
		PerforationFactors: []int{2, 3, 4, 6, 8, 12},
		TimeGap:            0.03,
		MaxCandidates:      20000,
	}
}

// Candidate is one explored variant: the decisions that define it and its
// computed effect.
type Candidate struct {
	Decisions []approx.Decision
	Effect    approx.Effect
}

// Result is the outcome of exploring one application.
type Result struct {
	App string

	// All holds every examined candidate (the blue dots in the paper's
	// Fig. 1 scatter plots).
	All []Candidate

	// Selected holds the pareto-frontier variants under the inaccuracy
	// budget (the red dots), ordered from least to most approximate.
	Selected []Candidate
}

// Variants returns the runtime effect table: precise first, then the
// selected variants from least to most approximate — the ordering
// app.Instance.Init requires.
func (r Result) Variants() []approx.Effect {
	out := make([]approx.Effect, 0, len(r.Selected)+1)
	out = append(out, approx.Precise())
	for _, c := range r.Selected {
		out = append(out, c.Effect)
	}
	return out
}

// Explore enumerates and selects approximate variants for the profile.
func Explore(prof app.Profile, opts Options) (Result, error) {
	if err := prof.Validate(); err != nil {
		return Result{}, err
	}
	if err := validate(opts); err != nil {
		return Result{}, err
	}

	res := Result{App: prof.Name}

	// Per-site decision menus. Each menu starts with the "off" decision so
	// the cross product includes partial combinations.
	menus := make([][]approx.Decision, len(prof.Sites))
	for i, site := range prof.Sites {
		menus[i] = siteMenu(i, site, opts)
	}

	// Cross product over site menus, capped at MaxCandidates.
	total := 1
	for _, m := range menus {
		total *= len(m)
	}
	if total > opts.MaxCandidates {
		total = opts.MaxCandidates
	}
	idx := make([]int, len(menus))
	for n := 0; n < total; n++ {
		var decisions []approx.Decision
		effects := make([]approx.Effect, 0, len(menus))
		for s, m := range menus {
			d := m[idx[s]]
			if active(d, prof.Sites[s]) {
				decisions = append(decisions, d)
			}
			effects = append(effects, d.Apply(prof.Sites[s]))
		}
		if len(decisions) > 0 { // skip the all-off candidate (== precise)
			res.All = append(res.All, Candidate{Decisions: decisions, Effect: approx.Combine(effects...)})
		}
		// Advance the mixed-radix counter.
		for s := len(idx) - 1; s >= 0; s-- {
			idx[s]++
			if idx[s] < len(menus[s]) {
				break
			}
			idx[s] = 0
		}
	}

	res.Selected = selectPareto(res.All, opts)
	return res, nil
}

func validate(opts Options) error {
	switch {
	case opts.MaxInaccuracy <= 0:
		return fmt.Errorf("dse: inaccuracy budget must be positive")
	case len(opts.PerforationFactors) == 0:
		return fmt.Errorf("dse: no perforation factors to explore")
	case opts.TimeGap < 0:
		return fmt.Errorf("dse: negative time gap")
	case opts.MaxCandidates < 1:
		return fmt.Errorf("dse: candidate cap must be positive")
	}
	for _, f := range opts.PerforationFactors {
		if f < 2 {
			return fmt.Errorf("dse: perforation factor %d below 2", f)
		}
	}
	return nil
}

// siteMenu builds the decision menu for one site: "off" plus each applicable
// setting.
func siteMenu(siteIdx int, site approx.Site, opts Options) []approx.Decision {
	menu := []approx.Decision{{Site: siteIdx}} // off
	switch site.Technique {
	case approx.LoopPerforation:
		for _, f := range opts.PerforationFactors {
			for _, m := range []approx.PerforationMode{approx.Chunk, approx.Stride, approx.SkipEveryPth} {
				menu = append(menu, approx.Decision{Site: siteIdx, Factor: f, Mode: m})
			}
		}
	case approx.SyncElision, approx.PrecisionReduction:
		menu = append(menu, approx.Decision{Site: siteIdx, Enabled: true})
	}
	return menu
}

func active(d approx.Decision, site approx.Site) bool {
	switch site.Technique {
	case approx.LoopPerforation:
		return d.Factor >= 2
	default:
		return d.Enabled
	}
}

// selectPareto filters candidates to the inaccuracy budget, keeps the
// (time, inaccuracy) skyline, and thins points that improve execution time
// by less than TimeGap over the previous selection.
func selectPareto(all []Candidate, opts Options) []Candidate {
	eligible := make([]Candidate, 0, len(all))
	for _, c := range all {
		if c.Effect.Inaccuracy <= opts.MaxInaccuracy && c.Effect.TimeScale <= 1 {
			eligible = append(eligible, c)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	// Sort by inaccuracy ascending, ties by faster first.
	sort.Slice(eligible, func(i, j int) bool {
		a, b := eligible[i].Effect, eligible[j].Effect
		if a.Inaccuracy != b.Inaccuracy {
			return a.Inaccuracy < b.Inaccuracy
		}
		return a.TimeScale < b.TimeScale
	})
	// Skyline: keep candidates that strictly improve execution time.
	var skyline []Candidate
	best := 2.0
	for _, c := range eligible {
		if c.Effect.TimeScale < best {
			skyline = append(skyline, c)
			best = c.Effect.TimeScale
		}
	}
	// Thin: each kept point must improve time by at least TimeGap over the
	// previously kept one — except the first, which anchors the frontier.
	out := skyline[:1:1]
	for _, c := range skyline[1:] {
		if out[len(out)-1].Effect.TimeScale-c.Effect.TimeScale >= opts.TimeGap {
			out = append(out, c)
		}
	}
	return downsample(out, opts.MaxVariants)
}

// downsample keeps at most n points, spaced evenly and always retaining both
// endpoints (the least and most approximate variants).
func downsample(pts []Candidate, n int) []Candidate {
	if n <= 0 || len(pts) <= n {
		return pts
	}
	if n == 1 {
		return []Candidate{pts[len(pts)-1]}
	}
	out := make([]Candidate, 0, n)
	step := float64(len(pts)-1) / float64(n-1)
	last := -1
	for i := 0; i < n; i++ {
		idx := int(float64(i)*step + 0.5)
		if idx <= last {
			idx = last + 1
		}
		if idx >= len(pts) {
			idx = len(pts) - 1
		}
		out = append(out, pts[idx])
		last = idx
	}
	return out
}
