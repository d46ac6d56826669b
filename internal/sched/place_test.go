package sched

import (
	"fmt"
	"strings"
	"testing"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/fault"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// parkedPicker breaks the Policy contract the way a policy that reads slots
// but not lifecycle would: it puts a job on a node that is not Active, which
// the scheduler offers with Free = 0 while the node still has empty slots.
type parkedPicker struct{ job, node *int }

func (parkedPicker) Name() string { return "parked-picker" }

func (p parkedPicker) Place(job Job, nodes []NodeState) int {
	for i := range nodes {
		if !nodes[i].Lifecycle.Placeable() && len(nodes[i].Resident) < nodes[i].Node.MaxApps {
			*p.job, *p.node = job.ID, nodes[i].Index
			return nodes[i].Index
		}
	}
	return FirstFit{}.Place(job, nodes)
}

// TestPolicyContractRejectsNonPlaceableNode: a policy that places a job on
// a parked, draining or waking node fails the run with an error naming the
// policy, the job and the node, instead of the job landing on a node the
// autoscaler took out of service.
func TestPolicyContractRejectsNonPlaceableNode(t *testing.T) {
	job, node := -1, -1
	cfg := energyConfig(3, parkedPicker{&job, &node}, autoscale.Consolidate{})
	cfg.JobsPerSec = 0.05
	_, err := Run(cfg)
	if node < 0 {
		t.Fatal("consolidation never offered a non-active node")
	}
	if err == nil {
		t.Fatalf("job %d placed on non-active node %d without an error", job, node)
	}
	for _, want := range []string{"parked-picker", fmt.Sprintf("job %d ", job), cfg.Nodes[node].Name} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// offer is one Place call a recordingPolicy saw.
type offer struct {
	job, deferrals, choice int
	// retry marks a crash-retried job, whose first offer masks its failed
	// domain.
	retry bool
	// free counts the offered nodes with Free > 0; open counts the nodes
	// with a slot open by lifecycle and residency, which undoes the
	// anti-affinity mask (a masked node is offered with Free = 0).
	free, open int
}

// recordingPolicy wraps a policy and logs every offer it is given.
type recordingPolicy struct {
	inner  Policy
	offers *[]offer
	t      *testing.T
}

func (p recordingPolicy) Name() string { return p.inner.Name() }

func (p recordingPolicy) Place(job Job, nodes []NodeState) int {
	o := offer{job: job.ID, deferrals: job.Deferrals, choice: p.inner.Place(job, nodes), retry: job.lastDomain >= 0}
	for i := range nodes {
		st := &nodes[i]
		open := st.Node.MaxApps - len(st.Resident)
		if !st.Lifecycle.Placeable() {
			open = 0
		}
		if st.Free > 0 {
			o.free++
			if st.Free != open {
				p.t.Errorf("job %d: node %d offered Free %d, has %d open slots", job.ID, i, st.Free, open)
			}
		}
		if open > 0 {
			o.open++
		}
	}
	*p.offers = append(*p.offers, o)
	return o.choice
}

// stormConfig is a shrunk storm: 16 nodes in 1 s windows, jobs arriving
// faster than they drain, crash/recover churn with a rack outage in
// 4-node domains, consolidation, and obs on.
func stormConfig(pol Policy) Config {
	classes := []service.Class{service.Memcached, service.NGINX, service.MongoDB}
	nodes := make([]cluster.Node, 16)
	for i := range nodes {
		nodes[i] = cluster.Node{Name: fmt.Sprintf("node-%d", i), Service: classes[i%len(classes)], MaxApps: 3}
	}
	shape, _ := workload.NewDiurnal(0.25, 40)
	model := energy.ModelFor(platform.TablePlatform())
	return Config{
		Seed:       42,
		Nodes:      nodes,
		Policy:     pol,
		Horizon:    40 * sim.Second,
		Epoch:      sim.Second,
		JobsPerSec: 2,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  1024,
		Shards:     1,
		Energy:     &model,
		Autoscaler: fault.DegradeUnderLoss{Normal: autoscale.Consolidate{ReserveSlots: 3}},
		Faults: &fault.Plan{
			MTTFSec:    15,
			MTTRSec:    5,
			DomainSize: 4,
			Outages:    []fault.Outage{{AtSec: 12, Domain: 1, DurationSec: 10}},
		},
		Obs: obs.New(obs.Options{}),
	}
}

// TestPlacementSkipsFullCluster pins the free-node counter and the
// no-free-slot short-circuit on a saturated storm: the policy is never
// offered a cluster without a free slot, every placement record counts the
// free nodes of the slice its job was offered (0 for a job deferred without
// an offer), and the job ledger balances.
func TestPlacementSkipsFullCluster(t *testing.T) {
	var offers []offer
	cfg := stormConfig(recordingPolicy{inner: TelemetryAware{}, offers: &offers, t: t})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := cfg.Obs.Tracer
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d records", tr.Dropped())
	}

	for _, o := range offers {
		if o.free == 0 {
			t.Fatalf("job %d offered a cluster with no free slot", o.job)
		}
	}

	// Placement records and offers run in the same order. A decision is one
	// offer, or two for a retried job whose masked offer came back -1; every
	// unmasked offer's free count is a full scan of the cluster.
	k, skipped, retried := 0, 0, 0
	tr.Records(func(r obs.Record) {
		if r.Kind != obs.KindPlacement {
			return
		}
		job, deferrals := int(r.A), int(r.C)
		same := func(i int) bool {
			return i < len(offers) && offers[i].job == job && offers[i].deferrals == deferrals
		}
		if r.B == 0 {
			skipped++
			if same(k) {
				t.Errorf("job %d offered while the cluster was full", job)
			}
			return
		}
		if !same(k) {
			t.Fatalf("placement record for job %d (deferrals %d) has no offer", job, deferrals)
		}
		unmasked := !offers[k].retry
		if !unmasked {
			retried++
		}
		if offers[k].choice < 0 && same(k+1) {
			k++
			unmasked = true
		}
		o := offers[k]
		k++
		if unmasked && o.free != o.open {
			t.Errorf("job %d: offered %d free nodes, cluster has %d", job, o.free, o.open)
		}
		if int(r.B) != o.open {
			t.Errorf("job %d: record counts %d candidates, offered slice has %d free nodes", job, r.B, o.open)
		}
		if int(r.Node) != o.choice {
			t.Errorf("job %d: record places on %d, policy chose %d", job, r.Node, o.choice)
		}
	})
	if k != len(offers) {
		t.Errorf("%d offers, %d matched placement records", len(offers), k)
	}
	if skipped == 0 || retried == 0 || res.ParkedNodeWindows == 0 {
		t.Errorf("storm too mild: skipped=%d retried=%d parked=%d", skipped, retried, res.ParkedNodeWindows)
	}
	t.Logf("offers=%d (%d retried) skipped=%d placed=%d pending=%d", len(offers), retried, skipped, res.Placed, res.Pending)

	if got := res.Placed + res.Pending + res.JobsLost; got != res.Arrived {
		t.Errorf("ledger leak: placed %d + pending %d + lost %d = %d, arrived %d",
			res.Placed, res.Pending, res.JobsLost, got, res.Arrived)
	}
	if len(res.Jobs) != res.Arrived {
		t.Errorf("%d job outcomes for %d arrivals", len(res.Jobs), res.Arrived)
	}
}
