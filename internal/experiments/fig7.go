package experiments

import (
	"fmt"
	"strings"

	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
)

// Fig7Cell is one violin triple of the paper's Fig. 7: the distributions of
// interactive tail latency, approximate-app execution time, and inaccuracy
// across every colocation of a given arity under one service.
type Fig7Cell struct {
	Service string
	Arity   int // number of colocated approximate apps
	Runs    int

	Latency    stats.Violin // p99 normalized to QoS, one sample per run
	ExecTime   stats.Violin // relative execution time, one sample per app per run
	Inaccuracy stats.Violin // percent, one sample per app per run
}

// Fig7Result is the full 3-services × 3-arities study.
type Fig7Result struct {
	Cells   []Fig7Cell
	Sampled bool // true when combinations were sampled rather than enumerated
}

// Fig7Violin runs 1-, 2-, and 3-way colocations for each service. The paper
// enumerates all combinations of the 24 applications; the fast profile
// samples CombosPerArity random combinations per (service, arity) instead
// and records that it did.
func Fig7Violin(p Profile) (Fig7Result, error) {
	classes := service.Classes()
	names := p.AppNames()

	type task struct {
		cls  service.Class
		apps []string
	}
	var tasks []task
	rng := sim.NewRNG(p.seedFor("fig7/combos"))
	sampled := false
	for _, cls := range classes {
		for arity := 1; arity <= 3; arity++ {
			combos := enumerate(names, arity)
			if p.CombosPerArity > 0 && len(combos) > p.CombosPerArity {
				sampled = true
				rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
				combos = combos[:p.CombosPerArity]
			}
			for _, combo := range combos {
				tasks = append(tasks, task{cls, combo})
			}
		}
	}

	type sample struct {
		cls     service.Class
		arity   int
		latency float64
		execs   []float64
		inaccs  []float64
	}
	samples := make([]sample, len(tasks))
	err := p.forEach(len(tasks), func(i int) error {
		t := tasks[i]
		cfg := colocate.Config{
			Seed:      p.seedFor(fmt.Sprintf("fig7/%s/%s", t.cls, strings.Join(t.apps, "+"))),
			Service:   t.cls,
			AppNames:  t.apps,
			Runtime:   colocate.Pliant,
			TimeScale: p.TimeScale,
		}
		res, err := colocate.Run(cfg)
		if err != nil {
			return err
		}
		s := sample{cls: t.cls, arity: len(t.apps), latency: res.TypicalOverQoS()}
		for _, a := range res.Apps {
			s.execs = append(s.execs, a.RelFairShare)
			s.inaccs = append(s.inaccs, a.Inaccuracy)
		}
		samples[i] = s
		return nil
	})
	if err != nil {
		return Fig7Result{}, err
	}

	var out Fig7Result
	out.Sampled = sampled
	for _, cls := range classes {
		for arity := 1; arity <= 3; arity++ {
			var lats, execs, inaccs []float64
			runs := 0
			for _, s := range samples {
				if s.cls != cls || s.arity != arity {
					continue
				}
				runs++
				lats = append(lats, s.latency)
				execs = append(execs, s.execs...)
				inaccs = append(inaccs, s.inaccs...)
			}
			out.Cells = append(out.Cells, Fig7Cell{
				Service:    cls.String(),
				Arity:      arity,
				Runs:       runs,
				Latency:    stats.NewViolin(lats, 12),
				ExecTime:   stats.NewViolin(execs, 12),
				Inaccuracy: stats.NewViolin(inaccs, 12),
			})
		}
	}
	return out, nil
}

// enumerate returns all arity-sized combinations of names, in lexical order.
func enumerate(names []string, arity int) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) == arity {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for i := start; i < len(names); i++ {
			rec(i+1, append(cur, names[i]))
		}
	}
	rec(0, nil)
	return out
}

// Render prints each violin as a five-number summary.
func (r Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 7: colocation-arity distributions (violin five-number summaries)\n")
	if r.Sampled {
		b.WriteString("  (combinations sampled; -full enumerates all, as the paper does)\n")
	}
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "\n  %s, %d approx app(s), %d runs\n", c.Service, c.Arity, c.Runs)
		p := func(label string, v stats.Violin) {
			fmt.Fprintf(&b, "    %-12s min %.2f  q1 %.2f  med %.2f  q3 %.2f  max %.2f\n",
				label, v.Min, v.Q1, v.Median, v.Q3, v.Max)
		}
		p("p99/QoS", c.Latency)
		p("exec time", c.ExecTime)
		p("inaccuracy%", c.Inaccuracy)
	}
	return b.String()
}
