package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/dse"
	"github.com/approx-sched/pliant/internal/service"
)

// Fig1DSEResult reproduces the odd rows of the paper's Fig. 1: for every
// application, the trade-off between execution time and inaccuracy across
// all examined variants, with the pareto-selected subset highlighted.
type Fig1DSEResult struct {
	Apps []Fig1DSEApp
}

// Fig1DSEApp is one scatter plot of Fig. 1.
type Fig1DSEApp struct {
	Name        string
	Suite       string
	Examined    int // blue dots
	AcceptHints bool
	Selected    []dse.Candidate // red dots, least→most approximate
}

// Fig1DSE runs the design-space exploration for every application in the
// profile's set (the paper explores all 24).
func Fig1DSE(p Profile) (Fig1DSEResult, error) {
	var out Fig1DSEResult
	for _, name := range p.AppNames() {
		prof, err := app.ByName(name)
		if err != nil {
			return out, err
		}
		res, err := dse.ExploreApp(prof)
		if err != nil {
			return out, err
		}
		out.Apps = append(out.Apps, Fig1DSEApp{
			Name:        prof.Name,
			Suite:       prof.Suite.String(),
			Examined:    len(res.All),
			AcceptHints: prof.AcceptHints,
			Selected:    res.Selected,
		})
	}
	return out, nil
}

// Render prints one row per application with its selected variants.
func (r Fig1DSEResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 1 (odd rows): approximation design-space exploration\n")
	b.WriteString("  app               suite      hints   examined selected  (timeScale@inaccuracy%)\n")
	for _, a := range r.Apps {
		hints := "gprof"
		if a.AcceptHints {
			hints = "ACCEPT"
		}
		fmt.Fprintf(&b, "  %-17s %-10s %-7s %8d %8d  ", a.Name, a.Suite, hints, a.Examined, len(a.Selected))
		for i, c := range a.Selected {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "v%d:%.2f@%.2f%%", i+1, c.Effect.TimeScale, c.Effect.Inaccuracy)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig1ImpactResult reproduces the even rows of the paper's Fig. 1: the tail
// latency (relative to QoS) each selected variant — and precise execution —
// imposes on each of the three interactive services.
type Fig1ImpactResult struct {
	Rows []Fig1ImpactRow
}

// Fig1ImpactRow is one (application, service) bar group.
type Fig1ImpactRow struct {
	App     string
	Service string
	// P99OverQoS[0] is precise execution; entry i>0 is selected variant i
	// (ordered least→most approximate).
	P99OverQoS []float64
}

// Fig1Impact measures tail latency per pinned variant for every (app,
// service) pair in the profile.
func Fig1Impact(p Profile) (Fig1ImpactResult, error) {
	apps := p.AppNames()
	classes := service.Classes()

	type task struct {
		appName string
		cls     service.Class
	}
	var tasks []task
	for _, a := range apps {
		for _, c := range classes {
			tasks = append(tasks, task{a, c})
		}
	}
	rows := make([]Fig1ImpactRow, len(tasks))

	err := p.forEach(len(tasks), func(i int) error {
		t := tasks[i]
		prof, err := app.ByName(t.appName)
		if err != nil {
			return err
		}
		variants, err := dse.VariantsFor(prof)
		if err != nil {
			return err
		}
		row := Fig1ImpactRow{App: t.appName, Service: t.cls.String()}
		for v := 0; v < len(variants); v++ {
			cfg := colocate.Config{
				Seed:          p.seedFor(fmt.Sprintf("fig1/%s/%s/v%d", t.appName, t.cls, v)),
				Service:       t.cls,
				AppNames:      []string{t.appName},
				FixedVariants: map[string]int{t.appName: v},
				TimeScale:     p.TimeScale,
				MaxDuration:   p.maxDuration(),
			}
			res, err := colocate.Run(cfg)
			if err != nil {
				return err
			}
			row.P99OverQoS = append(row.P99OverQoS, res.TypicalOverQoS())
		}
		rows[i] = row
		return nil
	})
	return Fig1ImpactResult{Rows: rows}, err
}

// Render prints one row per (app, service) with precise and per-variant
// latency ratios.
func (r Fig1ImpactResult) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 1 (even rows): tail latency vs QoS per selected variant\n")
	b.WriteString("  app               service     precise  v1..vK (p99/QoS)\n")
	rows := append([]Fig1ImpactRow(nil), r.Rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].App != rows[j].App {
			return rows[i].App < rows[j].App
		}
		return rows[i].Service < rows[j].Service
	})
	for _, row := range rows {
		if len(row.P99OverQoS) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-17s %-10s %s  ", row.App, row.Service, fmtRatio(row.P99OverQoS[0]))
		for _, v := range row.P99OverQoS[1:] {
			fmt.Fprintf(&b, "%s ", fmtRatio(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MostApproxImprovement returns the mean ratio of precise to most-approximate
// tail latency across rows: how much approximation alone helps.
func (r Fig1ImpactResult) MostApproxImprovement() float64 {
	sum, n := 0.0, 0
	for _, row := range r.Rows {
		if len(row.P99OverQoS) < 2 {
			continue
		}
		most := row.P99OverQoS[len(row.P99OverQoS)-1]
		if most <= 0 {
			continue
		}
		sum += row.P99OverQoS[0] / most
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
