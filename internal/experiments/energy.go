package experiments

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// EnergyRow is one scheduling bundle's aggregate under the energy study.
type EnergyRow struct {
	Bundle             string
	QoSMetFrac         float64
	KJoules            float64
	MeanWatts          float64
	MeanWaitSec        float64
	MeanInaccuracy     float64
	ParkedNodeWindows  int
	LowFreqNodeWindows int
	Wakes              int
}

// EnergyResult compares scheduling bundles — placement policy plus
// autoscaler — over a diurnal day with the Table 1 power model attached: the
// question the paper implies but never measures, how many watts does
// approximation buy at equal QoS?
type EnergyResult struct {
	HorizonSec float64
	Rows       []EnergyRow
}

// RowFor returns the named bundle's row (zero row if absent).
func (r *EnergyResult) RowFor(bundle string) EnergyRow {
	for _, row := range r.Rows {
		if row.Bundle == bundle {
			return row
		}
	}
	return EnergyRow{}
}

// Render formats the comparison table.
func (r *EnergyResult) Render() string {
	s := fmt.Sprintf("energy-aware scheduling, diurnal day over %.0fs of cluster time\n", r.HorizonSec)
	s += fmt.Sprintf("  %-18s %9s %9s %8s %10s %11s %7s %8s\n",
		"bundle", "QoS met", "energy", "mean W", "mean wait", "mean inacc", "parked", "lowfreq")
	for _, row := range r.Rows {
		s += fmt.Sprintf("  %-18s %8.0f%% %7.0fkJ %7.0fW %9.1fs %10.2f%% %6dw %7dw\n",
			row.Bundle, row.QoSMetFrac*100, row.KJoules, row.MeanWatts,
			row.MeanWaitSec, row.MeanInaccuracy, row.ParkedNodeWindows, row.LowFreqNodeWindows)
	}
	afw, ff := r.RowFor("approx-for-watts"), r.RowFor("first-fit")
	if ff.KJoules > 0 {
		s += fmt.Sprintf("  summary: approx-for-watts spends %.0f%% of first-fit's energy "+
			"(%.0fkJ vs %.0fkJ) at %.0f%% vs %.0f%% QoS-met windows\n",
			afw.KJoules/ff.KJoules*100, afw.KJoules, ff.KJoules,
			afw.QoSMetFrac*100, ff.QoSMetFrac*100)
	}
	return s
}

// energyBundle pairs a placement policy with an autoscaler.
type energyBundle struct {
	name string
	pol  sched.Policy
	as   autoscale.Controller
}

// EnergyDiurnal runs the energy study: a five-node cluster (spare capacity
// to park), one compressed diurnal day, and the Table 1 power model, under
// four bundles — first-fit (static baseline), spread-first (QoS-friendly,
// watts-hostile), consolidate (classic autoscaling), and approx-for-watts
// (telemetry-aware placement, consolidation, and slack-funded frequency
// scaling).
func EnergyDiurnal(p Profile) (*EnergyResult, error) {
	const horizon = 120 * sim.Second
	shape, err := workload.NewDiurnal(0.25, horizon.Seconds())
	if err != nil {
		return nil, err
	}
	model := energy.ModelFor(platform.TablePlatform())
	bundles := []energyBundle{
		{"first-fit", sched.FirstFit{}, nil},
		{"spread-first", sched.Spread{}, nil},
		{"consolidate", sched.BestFit{}, autoscale.Consolidate{}},
		{"approx-for-watts", sched.TelemetryAware{}, autoscale.ApproxForWatts{
			// A healthy reserve keeps an unloaded node available, so
			// consolidation never forces placements onto violating hosts;
			// the conservative low-water mark spends only clear slack.
			Consolidate: autoscale.Consolidate{ReserveSlots: 6},
			LowWater:    0.6,
		}},
	}
	out := &EnergyResult{HorizonSec: horizon.Seconds()}
	for _, b := range bundles {
		cfg := sched.Config{
			Seed: p.seedFor("energy"),
			Nodes: []cluster.Node{
				{Name: "cache-1", Service: service.Memcached, MaxApps: 3},
				{Name: "web-1", Service: service.NGINX, MaxApps: 3},
				{Name: "db-1", Service: service.MongoDB, MaxApps: 3},
				{Name: "cache-2", Service: service.Memcached, MaxApps: 3},
				{Name: "web-2", Service: service.NGINX, MaxApps: 3},
			},
			Policy:     b.pol,
			Horizon:    horizon,
			Epoch:      10 * sim.Second,
			JobsPerSec: 0.10,
			BaseLoad:   0.65,
			Shape:      shape,
			TimeScale:  p.TimeScale,
			Shards:     p.parallelism(),
			Energy:     &model,
			Autoscaler: b.as,
		}
		res, err := sched.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: energy bundle %s: %w", b.name, err)
		}
		out.Rows = append(out.Rows, EnergyRow{
			Bundle:             b.name,
			QoSMetFrac:         res.QoSMetFrac,
			KJoules:            res.Joules / 1000,
			MeanWatts:          res.MeanWatts,
			MeanWaitSec:        res.MeanWaitSec,
			MeanInaccuracy:     res.MeanInaccuracy,
			ParkedNodeWindows:  res.ParkedNodeWindows,
			LowFreqNodeWindows: res.LowFreqNodeWindows,
			Wakes:              res.Wakes,
		})
	}
	return out, nil
}
