package experiments

import (
	"fmt"
	"strings"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/dse"
	"github.com/approx-sched/pliant/internal/dyninst"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
)

// OverheadRow is one application's instrumentation overhead: the configured
// figure and the measured execution-time inflation from running the app
// under the substrate, precise and uncontended.
type OverheadRow struct {
	App        string
	Configured float64 // fraction, from the profile
	Measured   float64 // fraction, from paired simulated runs
}

// OverheadResult reproduces the Sec. 6.2 statistics: per-app DynamoRIO-style
// overhead, 3.8% on average and up to 8.9%.
type OverheadResult struct {
	Rows []OverheadRow
	Mean float64
	Max  float64
}

// Overhead measures the instrumentation overhead for every catalog app by
// running each to completion with and without the substrate attached.
func Overhead(p Profile) (OverheadResult, error) {
	names := p.AppNames()
	rows := make([]OverheadRow, len(names))
	err := p.forEach(len(names), func(i int) error {
		prof, err := app.ByName(names[i])
		if err != nil {
			return err
		}
		run := func(instrument bool) (sim.Duration, error) {
			eng := sim.NewEngine()
			rng := sim.NewRNG(p.seedFor("overhead/" + prof.Name))
			variants, err := dse.VariantsFor(prof)
			if err != nil {
				return 0, err
			}
			var inst app.Instance
			if err := inst.Init(eng, rng, prof, variants, app.ReferenceCores, nil); err != nil {
				return 0, err
			}
			if instrument {
				var proc dyninst.Process
				if err := proc.Init(eng, &inst, prof.DynOverhead); err != nil {
					return 0, err
				}
			}
			var tick sim.Ticker
			tick.Start(eng, 100*sim.Millisecond, inst.Advance)
			eng.Run(sim.Time(sim.Duration(prof.NominalExecSec*3) * sim.Second))
			tick.Stop()
			if !inst.Done() {
				return 0, fmt.Errorf("overhead: %s did not finish", prof.Name)
			}
			return inst.ExecTime(), nil
		}
		plain, err := run(false)
		if err != nil {
			return err
		}
		instrumented, err := run(true)
		if err != nil {
			return err
		}
		rows[i] = OverheadRow{
			App:        prof.Name,
			Configured: prof.DynOverhead,
			Measured:   instrumented.Seconds()/plain.Seconds() - 1,
		}
		return nil
	})
	if err != nil {
		return OverheadResult{}, err
	}
	var measured []float64
	for _, r := range rows {
		measured = append(measured, r.Measured)
	}
	return OverheadResult{
		Rows: rows,
		Mean: stats.Mean(measured),
		Max:  stats.MaxOf(measured),
	}, nil
}

// Render prints the per-app overhead table with summary.
func (r OverheadResult) Render() string {
	var b strings.Builder
	b.WriteString("Sec. 6.2: dynamic instrumentation overhead per application\n")
	b.WriteString("  app               configured  measured\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-17s %9.1f%%  %7.1f%%\n", row.App, row.Configured*100, row.Measured*100)
	}
	fmt.Fprintf(&b, "  mean %.1f%%, max %.1f%% (paper: 3.8%% mean, 8.9%% max)\n", r.Mean*100, r.Max*100)
	return b.String()
}
