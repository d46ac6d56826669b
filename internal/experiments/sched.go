package experiments

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// SchedRow is one policy's aggregate under the diurnal-day study.
type SchedRow struct {
	Policy          string
	QoSMetFrac      float64
	MeanWaitSec     float64
	MeanUtilization float64
	MeanInaccuracy  float64
	Completed       int
	Arrived         int
}

// SchedResult compares online placement policies over a diurnal day — the
// paper's Sec. 6.4 scheduler integration made online: jobs stream in, load
// swings sinusoidally over the horizon, and the telemetry-aware policy
// consumes each node's live Pliant feedback.
type SchedResult struct {
	HorizonSec float64
	Rows       []SchedRow
}

// FracFor returns the QoS-met fraction of the named policy (0 if absent).
func (r *SchedResult) FracFor(policy string) float64 {
	for _, row := range r.Rows {
		if row.Policy == policy {
			return row.QoSMetFrac
		}
	}
	return 0
}

// WaitFor returns the mean job wait of the named policy (0 if absent).
func (r *SchedResult) WaitFor(policy string) float64 {
	for _, row := range r.Rows {
		if row.Policy == policy {
			return row.MeanWaitSec
		}
	}
	return 0
}

// Render formats the comparison table.
func (r *SchedResult) Render() string {
	s := fmt.Sprintf("online scheduling, diurnal day over %.0fs of cluster time\n", r.HorizonSec)
	s += fmt.Sprintf("  %-18s %9s %10s %8s %11s %13s\n",
		"policy", "QoS met", "mean wait", "util", "mean inacc", "done/arrived")
	for _, row := range r.Rows {
		s += fmt.Sprintf("  %-18s %8.0f%% %9.1fs %7.0f%% %10.2f%% %9d/%d\n",
			row.Policy, row.QoSMetFrac*100, row.MeanWaitSec,
			row.MeanUtilization*100, row.MeanInaccuracy, row.Completed, row.Arrived)
	}
	ta, ff := r.FracFor("telemetry-aware"), r.FracFor("first-fit")
	if ff > 0 {
		s += fmt.Sprintf("  summary: telemetry-aware meets QoS in %.0f%% of busy node-windows vs "+
			"first-fit's %.0f%% (%.2fx)\n", ta*100, ff*100, ta/ff)
	}
	return s
}

// SchedDiurnal runs the online-scheduling study: a three-service cluster, a
// Poisson job stream, and one "day" of sinusoidal load compressed into the
// horizon, under first-fit, best-fit, and telemetry-aware placement. The
// cluster runs two nodes of each service, so one seed's day puts a few dozen
// jobs through each policy; a three-node day completes only 3–10, too few
// for its QoS ordering to hold at every seed.
func SchedDiurnal(p Profile) (*SchedResult, error) {
	const horizon = 120 * sim.Second
	shape, err := workload.NewDiurnal(0.25, horizon.Seconds())
	if err != nil {
		return nil, err
	}
	cfg := sched.Config{
		Seed: p.seedFor("sched"),
		Nodes: []cluster.Node{
			{Name: "cache-1", Service: service.Memcached, MaxApps: 3},
			{Name: "web-1", Service: service.NGINX, MaxApps: 3},
			{Name: "db-1", Service: service.MongoDB, MaxApps: 3},
			{Name: "cache-2", Service: service.Memcached, MaxApps: 3},
			{Name: "web-2", Service: service.NGINX, MaxApps: 3},
			{Name: "db-2", Service: service.MongoDB, MaxApps: 3},
		},
		Horizon:    horizon,
		Epoch:      10 * sim.Second,
		JobsPerSec: 0.20,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  p.TimeScale,
		Shards:     p.parallelism(),
	}
	results, err := sched.Compare(cfg,
		sched.FirstFit{}, sched.BestFit{}, sched.TelemetryAware{})
	if err != nil {
		return nil, err
	}
	out := &SchedResult{HorizonSec: horizon.Seconds()}
	for _, res := range results {
		out.Rows = append(out.Rows, SchedRow{
			Policy:          res.Policy,
			QoSMetFrac:      res.QoSMetFrac,
			MeanWaitSec:     res.MeanWaitSec,
			MeanUtilization: res.MeanUtilization,
			MeanInaccuracy:  res.MeanInaccuracy,
			Completed:       res.Completed,
			Arrived:         res.Arrived,
		})
	}
	return out, nil
}
