package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// ObsResult summarizes the observability study: what one energy-managed
// diurnal day emits through the tracer and metrics registry, and the
// determinism property the layer is built around — the exported bytes are
// identical at every shard count.
type ObsResult struct {
	HorizonSec float64

	// Record counts by kind over the day.
	Windows    uint64
	Episodes   uint64
	Placements uint64
	Autoscale  uint64
	Lifecycle  uint64
	Total      uint64

	// Snapshots is how many per-window metric rows the registry captured.
	Snapshots int

	// TraceSHA fingerprints the Chrome trace bytes (stable across runs and
	// shard counts for a fixed seed).
	TraceSHA string

	// ShardInvariant reports whether trace, Prometheus, and CSV exports were
	// byte-identical between a one-shard and a multi-shard run.
	ShardInvariant bool
}

// Render formats the observability summary.
func (r *ObsResult) Render() string {
	s := fmt.Sprintf("observability: decision trace of an energy-managed diurnal day (%.0fs)\n", r.HorizonSec)
	s += fmt.Sprintf("  records: %d total — %d episodes, %d placements, %d autoscale, %d lifecycle, %d windows\n",
		r.Total, r.Episodes, r.Placements, r.Autoscale, r.Lifecycle, r.Windows)
	s += fmt.Sprintf("  metrics: %d per-window snapshots\n", r.Snapshots)
	s += fmt.Sprintf("  chrome trace sha256: %s…\n", r.TraceSHA[:16])
	s += fmt.Sprintf("  exports byte-identical across shard counts: %v\n", r.ShardInvariant)
	return s
}

// obsDayConfig is the study's cluster day: six energy-managed nodes under
// consolidation autoscaling and sinusoidal load.
func obsDayConfig(p Profile, shards int, o *obs.Observer) sched.Config {
	const horizon = 120 * sim.Second
	shape, _ := workload.NewDiurnal(0.25, horizon.Seconds())
	model := energy.ModelFor(platform.TablePlatform())
	return sched.Config{
		Seed: p.seedFor("obs"),
		Nodes: []cluster.Node{
			{Name: "cache-1", Service: service.Memcached, MaxApps: 3},
			{Name: "cache-2", Service: service.Memcached, MaxApps: 3},
			{Name: "web-1", Service: service.NGINX, MaxApps: 3},
			{Name: "web-2", Service: service.NGINX, MaxApps: 3},
			{Name: "db-1", Service: service.MongoDB, MaxApps: 3},
			{Name: "db-2", Service: service.MongoDB, MaxApps: 3},
		},
		Policy:     sched.TelemetryAware{},
		Horizon:    horizon,
		Epoch:      10 * sim.Second,
		JobsPerSec: 0.18,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  p.TimeScale,
		Shards:     shards,
		Energy:     &model,
		Autoscaler: autoscale.Consolidate{},
		Obs:        o,
	}
}

// obsExports runs the study at the given shard count and returns the three
// export byte streams plus the observer.
func obsExports(p Profile, shards int) (*obs.Observer, []byte, []byte, []byte, error) {
	o := obs.New(obs.Options{})
	cfg := obsDayConfig(p, shards, o)
	if _, err := sched.Run(cfg); err != nil {
		return nil, nil, nil, nil, err
	}
	meta := obs.TraceMeta{Policy: cfg.Policy.Name()}
	for _, n := range cfg.Nodes {
		meta.NodeNames = append(meta.NodeNames, n.Name)
	}
	var trace, prom, csv bytes.Buffer
	if err := obs.WriteChromeTrace(&trace, o.Tracer, meta); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := obs.WriteMetricsProm(&prom, o.Metrics); err != nil {
		return nil, nil, nil, nil, err
	}
	if err := obs.WriteMetricsCSV(&csv, o.Metrics); err != nil {
		return nil, nil, nil, nil, err
	}
	return o, trace.Bytes(), prom.Bytes(), csv.Bytes(), nil
}

// ObsTrace runs the observability study: one energy-managed diurnal day
// traced and metered, on one shard and again across two, and
// checks the exports match byte for byte.
func ObsTrace(p Profile) (*ObsResult, error) {
	o1, trace1, prom1, csv1, err := obsExports(p, 1)
	if err != nil {
		return nil, err
	}
	_, trace2, prom2, csv2, err := obsExports(p, 2)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(trace1)
	return &ObsResult{
		HorizonSec: 120,
		Windows:    o1.Tracer.CountOf(obs.KindWindow),
		Episodes:   o1.Tracer.CountOf(obs.KindEpisode),
		Placements: o1.Tracer.CountOf(obs.KindPlacement),
		Autoscale:  o1.Tracer.CountOf(obs.KindAutoscale),
		Lifecycle:  o1.Tracer.CountOf(obs.KindLifecycle),
		Total:      o1.Tracer.Total(),
		Snapshots:  o1.Metrics.Snapshots(),
		TraceSHA:   hex.EncodeToString(sum[:]),
		ShardInvariant: bytes.Equal(trace1, trace2) &&
			bytes.Equal(prom1, prom2) && bytes.Equal(csv1, csv2),
	}, nil
}
