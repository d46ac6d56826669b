package experiments

import (
	"bytes"
	"fmt"
	"math"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/trace"
	"github.com/approx-sched/pliant/internal/workload"
)

// TraceRow is one scheduling bundle's aggregate under the trace-replay study.
type TraceRow struct {
	Bundle          string
	QoSMetFrac      float64
	MeanWaitSec     float64
	MeanUtilization float64
	MeanInaccuracy  float64
	KJoules         float64
	Completed       int
	Arrived         int
}

// TraceResult compares scheduling bundles on replayed production-shaped
// arrivals: a multi-hour Google-format trace (heavy-tailed gaps, a diurnal
// swing, a flash burst) compressed into one simulated day, with the node
// services riding the trace's own rate curve — the scenario axis synthetic
// Poisson and sinusoidal streams cannot produce, and the arrival regime the
// paper's production claims live in.
type TraceResult struct {
	HorizonSec float64
	Source     string
	TraceJobs  int
	Rows       []TraceRow
}

// RowFor returns the named bundle's row (zero row if absent).
func (r *TraceResult) RowFor(bundle string) TraceRow {
	for _, row := range r.Rows {
		if row.Bundle == bundle {
			return row
		}
	}
	return TraceRow{}
}

// Render formats the comparison table.
func (r *TraceResult) Render() string {
	s := fmt.Sprintf("trace replay: %d %s-format jobs over %.0fs of cluster time, services riding the trace's rate curve\n",
		r.TraceJobs, r.Source, r.HorizonSec)
	s += fmt.Sprintf("  %-18s %9s %10s %8s %11s %9s %13s\n",
		"bundle", "QoS met", "mean wait", "util", "mean inacc", "energy", "done/arrived")
	for _, row := range r.Rows {
		s += fmt.Sprintf("  %-18s %8.0f%% %9.1fs %7.0f%% %10.2f%% %7.0fkJ %9d/%d\n",
			row.Bundle, row.QoSMetFrac*100, row.MeanWaitSec, row.MeanUtilization*100,
			row.MeanInaccuracy, row.KJoules, row.Completed, row.Arrived)
	}
	ta, ff := r.RowFor("telemetry-aware"), r.RowFor("first-fit")
	afw := r.RowFor("approx-for-watts")
	if ff.QoSMetFrac > 0 {
		s += fmt.Sprintf("  summary: on replayed arrivals telemetry-aware meets QoS in %.0f%% of busy node-windows vs "+
			"first-fit's %.0f%%; approx-for-watts holds %.0f%% at %.0f%% of first-fit's energy\n",
			ta.QoSMetFrac*100, ff.QoSMetFrac*100,
			afw.QoSMetFrac*100, safeRatio(afw.KJoules, ff.KJoules)*100)
	}
	return s
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceBundle pairs a placement policy with an autoscaler.
type traceBundle struct {
	name string
	pol  sched.Policy
	as   autoscale.Controller
}

// TraceReplay runs the trace-replay study: a six-hour Google-format trace is
// synthesized schema-exactly, parsed through the production ingestion path,
// normalized into the compressed day (down-sampled to the cluster's scale),
// and replayed as the job stream — while every node's service load follows
// the trace's binned rate curve (Trace.RateShape as a workload.Replay). The
// same replay runs under first-fit, telemetry-aware, and the
// approx-for-watts bundle, all with the Table 1 power model attached so
// energy is comparable.
func TraceReplay(p Profile) (*TraceResult, error) {
	const horizon = 120 * sim.Second
	raw := trace.Synthesize(trace.SynthConfig{
		Format:  trace.Google,
		Jobs:    240,
		SpanSec: 6 * 3600,
		Seed:    p.seedFor("trace"),
	})
	parsed, err := trace.Parse(bytes.NewReader(raw), trace.Google)
	if err != nil {
		return nil, err
	}
	// Land the last arrival at 90% of the horizon (late jobs deserve a
	// window to run) and down-sample to about 1.6 jobs per cluster slot.
	tr, err := parsed.Normalize(trace.Options{TargetSpanSec: 0.9 * horizon.Seconds(), MaxJobs: 24})
	if err != nil {
		return nil, err
	}
	times, mult, err := tr.RateShape(8)
	if err != nil {
		return nil, err
	}
	// Square-root damping: the service load follows the trace's rate curve
	// (bursts stay bursts, lulls stay lulls) but a 4× arrival spike becomes
	// a 2× load spike — stressed yet survivable, the regime where placement
	// quality differentiates instead of every policy drowning identically.
	for i, m := range mult {
		mult[i] = math.Sqrt(m)
	}
	shape, err := workload.NewReplay(times, mult)
	if err != nil {
		return nil, err
	}
	model := energy.ModelFor(platform.TablePlatform())
	bundles := []traceBundle{
		{"first-fit", sched.FirstFit{}, nil},
		{"telemetry-aware", sched.TelemetryAware{}, nil},
		{"approx-for-watts", sched.TelemetryAware{}, autoscale.ApproxForWatts{
			Consolidate: autoscale.Consolidate{ReserveSlots: 6},
			LowWater:    0.6,
		}},
	}
	out := &TraceResult{
		HorizonSec: horizon.Seconds(),
		Source:     tr.Source,
		TraceJobs:  len(tr.Jobs),
	}
	for _, b := range bundles {
		cfg := sched.Config{
			Seed: p.seedFor("trace"),
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
			Trace:      tr,
			BaseLoad:   0.65,
			Shape:      shape,
			TimeScale:  p.TimeScale,
			Shards:     p.parallelism(),
			Energy:     &model,
			Autoscaler: b.as,
		}
		res, err := sched.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: trace bundle %s: %w", b.name, err)
		}
		out.Rows = append(out.Rows, TraceRow{
			Bundle:          b.name,
			QoSMetFrac:      res.QoSMetFrac,
			MeanWaitSec:     res.MeanWaitSec,
			MeanUtilization: res.MeanUtilization,
			MeanInaccuracy:  res.MeanInaccuracy,
			KJoules:         res.Joules / 1000,
			Completed:       res.Completed,
			Arrived:         res.Arrived,
		})
	}
	return out, nil
}
