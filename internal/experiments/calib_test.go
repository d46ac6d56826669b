package experiments

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/colocate"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
	"github.com/approx-sched/pliant/internal/workload"
)

var (
	simNewEngine             = sim.NewEngine
	simNewRNG                = sim.NewRNG
	statsNewLatencyHistogram = stats.NewLatencyHistogram
	workloadNewPoisson       = workload.NewPoisson
)

type simDuration = sim.Duration

const simSecond = sim.Second

func simTime(d sim.Duration) sim.Time { return sim.Time(d) }

// TestPrintCalibration prints the precise-mode violation spectrum across all
// 24 apps and 3 services. Dev aid; run with -run TestPrintCalibration -v.
func TestPrintCalibration(t *testing.T) {
	if os.Getenv("PLIANT_CALIBRATION") == "" {
		t.Skip("calibration print; set PLIANT_CALIBRATION=1 to run")
	}
	p := Fast()
	p.Apps = app.Names()
	type key struct{ svc, app string }
	rows := map[key]float64{}
	type task struct {
		cls service.Class
		app string
	}
	var tasks []task
	for _, cls := range service.Classes() {
		for _, a := range p.Apps {
			tasks = append(tasks, task{cls, a})
		}
	}
	vals := make([]float64, len(tasks))
	if err := p.forEach(len(tasks), func(i int) error {
		cfg := colocate.Config{
			Seed:    p.seedFor("calib/" + tasks[i].app + tasks[i].cls.String()),
			Service: tasks[i].cls, AppNames: []string{tasks[i].app},
			Runtime: colocate.Precise, TimeScale: p.TimeScale,
		}
		res, err := colocate.Run(cfg)
		if err != nil {
			return err
		}
		vals[i] = res.TypicalOverQoS()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, tk := range tasks {
		rows[key{tk.cls.String(), tk.app}] = vals[i]
	}
	for _, svc := range []string{"nginx", "memcached", "mongodb"} {
		var xs []float64
		fmt.Printf("== %s ==\n", svc)
		for _, a := range app.Names() {
			v := rows[key{svc, a}]
			xs = append(xs, v)
			fmt.Printf("  %-17s %6.2fx\n", a, v)
		}
		sort.Float64s(xs)
		fmt.Printf("  range [%.2f, %.2f] median %.2f\n", xs[0], xs[len(xs)-1], xs[len(xs)/2])
	}
}

// TestPrintHeadroom prints each service's isolated p99 at 78% load relative
// to QoS. Dev aid.
func TestPrintHeadroom(t *testing.T) {
	if os.Getenv("PLIANT_CALIBRATION") == "" {
		t.Skip("calibration print; set PLIANT_CALIBRATION=1 to run")
	}
	for _, cls := range service.Classes() {
		eng := simNewEngine()
		rng := simNewRNG(99)
		cfg := service.Preset(cls).Scaled(16)
		hist := statsNewLatencyHistogram()
		svc, err := service.New(eng, rng.Split(1), cfg, 8, func(d simDuration) { hist.Record(float64(d)) })
		if err != nil {
			t.Fatal(err)
		}
		qps := cfg.SaturationQPS(8) * 0.78
		arr, _ := workloadNewPoisson(qps)
		var next func()
		next = func() { svc.Arrive(); eng.After(arr.Next(rng, eng.Now()), next) }
		eng.After(arr.Next(rng, eng.Now()), next)
		eng.Run(simTime(20 * simSecond))
		fmt.Printf("%-10s isolated p99@78%% = %.2f of QoS\n", cls, hist.P99()/float64(cfg.QoS))
	}
}
