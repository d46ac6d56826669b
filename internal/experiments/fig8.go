package experiments

import (
	"fmt"
	"strings"

	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/service"
)

// Fig8Loads are the offered-load points of the paper's input-load
// sensitivity study: 40% to 100% of saturation in 10% steps.
var Fig8Loads = []float64{0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 1.00}

// Fig8Point is one (service, app, load) measurement under Pliant.
type Fig8Point struct {
	Service    string
	App        string
	Load       float64
	P99OverQoS float64
	ExecRel    float64
	Inaccuracy float64
	MaxYielded int
}

// Fig8Result holds the sweep plus the precise-only QoS cliff per service.
type Fig8Result struct {
	Points []Fig8Point

	// PreciseCliff maps each service to the highest swept load at which
	// the *precise-only* colocation still met QoS (paper Sec. 6.4: 48% for
	// NGINX, 46% for memcached, 77% for MongoDB). The cliff is measured
	// against a representative heavy co-runner.
	PreciseCliff map[string]float64

	// CliffApp is the co-runner used for the precise-only cliff.
	CliffApp string
}

// fig8CliffLoads sweeps finer around the paper's reported cliffs.
var fig8CliffLoads = []float64{0.30, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.90}

// Fig8LoadSweep measures Pliant across input loads for every app in the
// profile, plus the precise-only cliff.
func Fig8LoadSweep(p Profile) (Fig8Result, error) {
	classes := service.Classes()
	apps := p.AppNames()

	type task struct {
		cls  service.Class
		app  string
		load float64
	}
	var tasks []task
	for _, cls := range classes {
		for _, a := range apps {
			for _, load := range Fig8Loads {
				tasks = append(tasks, task{cls, a, load})
			}
		}
	}
	points := make([]Fig8Point, len(tasks))
	err := p.forEach(len(tasks), func(i int) error {
		t := tasks[i]
		cfg := colocate.Config{
			Seed:         p.seedFor(fmt.Sprintf("fig8/%s/%s/%.2f", t.cls, t.app, t.load)),
			Service:      t.cls,
			AppNames:     []string{t.app},
			Runtime:      colocate.Pliant,
			LoadFraction: t.load,
			TimeScale:    p.TimeScale,
		}
		res, err := colocate.Run(cfg)
		if err != nil {
			return err
		}
		points[i] = Fig8Point{
			Service:    t.cls.String(),
			App:        t.app,
			Load:       t.load,
			P99OverQoS: res.TypicalOverQoS(),
			ExecRel:    res.Apps[0].RelNominal,
			Inaccuracy: res.Apps[0].Inaccuracy,
			MaxYielded: res.Apps[0].MaxYielded,
		}
		return nil
	})
	if err != nil {
		return Fig8Result{}, err
	}

	out := Fig8Result{Points: points, PreciseCliff: map[string]float64{}, CliffApp: "canneal"}
	type cliffTask struct {
		cls  service.Class
		load float64
	}
	var ctasks []cliffTask
	for _, cls := range classes {
		for _, load := range fig8CliffLoads {
			ctasks = append(ctasks, cliffTask{cls, load})
		}
	}
	meets := make([]bool, len(ctasks))
	err = p.forEach(len(ctasks), func(i int) error {
		t := ctasks[i]
		cfg := colocate.Config{
			Seed:         p.seedFor(fmt.Sprintf("fig8cliff/%s/%.2f", t.cls, t.load)),
			Service:      t.cls,
			AppNames:     []string{out.CliffApp},
			Runtime:      colocate.Precise,
			LoadFraction: t.load,
			TimeScale:    p.TimeScale,
		}
		res, err := colocate.Run(cfg)
		if err != nil {
			return err
		}
		meets[i] = res.MeetsQoS()
		return nil
	})
	if err != nil {
		return Fig8Result{}, err
	}
	for i, t := range ctasks {
		if meets[i] {
			name := t.cls.String()
			if t.load > out.PreciseCliff[name] {
				out.PreciseCliff[name] = t.load
			}
		}
	}
	return out, nil
}

// Render prints the sweep grouped by service and app.
func (r Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 8: input-load sensitivity under Pliant\n")
	for _, svc := range []string{"nginx", "memcached", "mongodb"} {
		fmt.Fprintf(&b, "\n  %s (precise-only meets QoS up to %.0f%% load with %s)\n",
			svc, r.PreciseCliff[svc]*100, r.CliffApp)
		b.WriteString("    app               load  p99/QoS  execRel  inacc%  yielded\n")
		for _, pt := range r.Points {
			if pt.Service != svc {
				continue
			}
			fmt.Fprintf(&b, "    %-17s %4.0f%%  %s  %6.2fx  %5.1f  %7d\n",
				pt.App, pt.Load*100, fmtRatio(pt.P99OverQoS), pt.ExecRel, pt.Inaccuracy, pt.MaxYielded)
		}
	}
	return b.String()
}
