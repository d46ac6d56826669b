package experiments

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sched"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// FaultRow is one bundle's outcome through the rack outage, paired with its
// own no-fault baseline at the same seed so the delta isolates the outage.
type FaultRow struct {
	Bundle      string
	BaselineQoS float64 // QoS-met fraction, same seed, no faults
	FaultedQoS  float64 // QoS-met fraction through the outage
	DeltaPts    float64 // QoS points lost to the outage (baseline − faulted)
	Crashes     int
	Requeued    int
	JobsLost    int
	MeanWaitSec float64
	Completed   int
	Arrived     int
	Placed      int
	Pending     int
	RetrySum    int // Σ per-job retries; equals Requeued when no job is lost twice
}

// FaultResult compares scheduling bundles through a correlated rack outage
// that removes a quarter of the cluster mid-peak: the robustness question the
// paper's static testbed cannot ask — does approximation slack fund failure
// recovery the way it funds colocation?
type FaultResult struct {
	HorizonSec   float64
	OutageSec    float64
	OutageNodes  int
	ClusterNodes int
	// NoFaultQoS is THE no-fault reference: the QoS-met fraction of the
	// headline (degrade-under-loss) bundle run fault-free at the same seed —
	// what the cluster achieves when nothing breaks. The headline deltas
	// measure every faulted run against it.
	NoFaultQoS float64
	Rows       []FaultRow
}

// RowFor returns the named bundle's row (zero row if absent).
func (r *FaultResult) RowFor(bundle string) FaultRow {
	for _, row := range r.Rows {
		if row.Bundle == bundle {
			return row
		}
	}
	return FaultRow{}
}

// Render formats the comparison table.
func (r *FaultResult) Render() string {
	s := fmt.Sprintf("fault injection: %d-node rack outage (%d nodes, %.0fs) over a %.0fs diurnal day\n",
		r.OutageNodes, r.ClusterNodes, r.OutageSec, r.HorizonSec)
	s += fmt.Sprintf("  %-20s %9s %9s %7s %8s %9s %5s %10s %12s\n",
		"bundle", "QoS base", "QoS fault", "Δpts", "crashes", "requeued", "lost", "mean wait", "done/arrived")
	for _, row := range r.Rows {
		s += fmt.Sprintf("  %-20s %8.0f%% %8.0f%% %6.1f %8d %9d %5d %9.1fs %7d/%d\n",
			row.Bundle, row.BaselineQoS*100, row.FaultedQoS*100, row.DeltaPts,
			row.Crashes, row.Requeued, row.JobsLost, row.MeanWaitSec,
			row.Completed, row.Arrived)
	}
	dul, ff := r.RowFor("degrade-under-loss"), r.RowFor("first-fit")
	s += fmt.Sprintf("  summary: vs the no-fault run (%.0f%% QoS-met), degrade-under-loss "+
		"holds within %.1f points through the outage; first-fit-with-retries lands %.1f below\n",
		r.NoFaultQoS*100, (r.NoFaultQoS-dul.FaultedQoS)*100, (r.NoFaultQoS-ff.FaultedQoS)*100)
	return s
}

// faultBundle pairs a placement policy with an autoscaler for the study.
type faultBundle struct {
	name string
	pol  sched.Policy
	as   autoscale.Controller
}

// FaultStorm runs the robustness study: an eight-node cluster in two-node
// failure domains, one compressed diurnal day with the Table 1 power model,
// and a scripted rack outage that takes a domain — 25% of capacity — down
// through the peak. Three bundles face it: first-fit with retries (the
// strawman, which crams displaced jobs onto survivors), telemetry-aware
// placement (which paces re-admission by observed tails), and
// degrade-under-loss (telemetry placement plus the controller that funds the
// shortfall by waking reserves and snapping survivors to nominal frequency
// so approximation slack absorbs the densified colocation). Every bundle
// also runs fault-free at the same seed; the per-bundle QoS delta isolates
// what the outage cost.
func FaultStorm(p Profile) (*FaultResult, error) {
	const (
		horizon   = 120 * sim.Second
		outageAt  = 35.0
		outageSec = 50.0
	)
	shape, err := workload.NewDiurnal(0.25, horizon.Seconds())
	if err != nil {
		return nil, err
	}
	model := energy.ModelFor(platform.TablePlatform())
	plan := &fault.Plan{
		DomainSize: 2,
		Outages:    []fault.Outage{{AtSec: outageAt, Domain: 1, DurationSec: outageSec}},
	}
	bundles := []faultBundle{
		{"first-fit", sched.FirstFit{}, nil},
		{"telemetry", sched.TelemetryAware{}, nil},
		{"degrade-under-loss", sched.TelemetryAware{}, fault.DegradeUnderLoss{
			// Parking-only normal controller: consolidation keeps a parked
			// reserve on the shelf for the outage without the frequency games
			// that would muddy the QoS comparison against the other bundles.
			Normal: autoscale.Consolidate{ReserveSlots: 9},
		}},
	}
	out := &FaultResult{
		HorizonSec:   horizon.Seconds(),
		OutageSec:    outageSec,
		OutageNodes:  plan.DomainSize,
		ClusterNodes: 8,
	}
	for _, b := range bundles {
		cfg := sched.Config{
			Seed: p.seedFor("fault"),
			Nodes: []cluster.Node{
				{Name: "cache-1", Service: service.Memcached, MaxApps: 3},
				{Name: "web-1", Service: service.NGINX, MaxApps: 3},
				{Name: "db-1", Service: service.MongoDB, MaxApps: 3},
				{Name: "cache-2", Service: service.Memcached, MaxApps: 3},
				{Name: "web-2", Service: service.NGINX, MaxApps: 3},
				{Name: "db-2", Service: service.MongoDB, MaxApps: 3},
				{Name: "cache-3", Service: service.Memcached, MaxApps: 3},
				{Name: "web-3", Service: service.NGINX, MaxApps: 3},
			},
			Policy:     b.pol,
			Horizon:    horizon,
			Epoch:      10 * sim.Second,
			JobsPerSec: 0.25,
			BaseLoad:   0.65,
			Shape:      shape,
			TimeScale:  p.TimeScale,
			Shards:     p.parallelism(),
			Energy:     &model,
			Autoscaler: b.as,
		}
		base, err := sched.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault bundle %s baseline: %w", b.name, err)
		}
		cfg.Faults = plan
		res, err := sched.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault bundle %s: %w", b.name, err)
		}
		retrySum := 0
		for _, j := range res.Jobs {
			retrySum += j.Retries
		}
		if b.name == "degrade-under-loss" {
			out.NoFaultQoS = base.QoSMetFrac
		}
		out.Rows = append(out.Rows, FaultRow{
			Bundle:      b.name,
			BaselineQoS: base.QoSMetFrac,
			FaultedQoS:  res.QoSMetFrac,
			DeltaPts:    (base.QoSMetFrac - res.QoSMetFrac) * 100,
			Crashes:     res.Crashes,
			Requeued:    res.Requeued,
			JobsLost:    res.JobsLost,
			MeanWaitSec: res.MeanWaitSec,
			Completed:   res.Completed,
			Arrived:     res.Arrived,
			Placed:      res.Placed,
			Pending:     res.Pending,
			RetrySum:    retrySum,
		})
	}
	return out, nil
}
