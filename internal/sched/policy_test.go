package sched

import (
	"slices"
	"testing"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/service"
)

// states builds a synthetic cluster view: free slots per node, with
// optionally poisoned telemetry.
func states(free ...int) []NodeState {
	classes := []service.Class{service.Memcached, service.NGINX, service.MongoDB}
	out := make([]NodeState, len(free))
	for i, f := range free {
		out[i] = NodeState{
			Index:    i,
			Node:     cluster.Node{Name: "n", Service: classes[i%len(classes)], MaxApps: 3},
			Free:     f,
			LoadMult: 1,
		}
	}
	return out
}

func testJob(t *testing.T, name string) Job {
	t.Helper()
	prof, err := app.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Job{App: prof, Pressure: PressureOf(prof)}
}

func TestPressureOrdering(t *testing.T) {
	plsa, _ := app.ByName("PLSA")
	ray, _ := app.ByName("raytrace")
	if PressureOf(plsa) <= PressureOf(ray) {
		t.Fatalf("PLSA pressure %.1f not above raytrace %.1f", PressureOf(plsa), PressureOf(ray))
	}
}

func TestFirstFitPicksFirstFree(t *testing.T) {
	j := testJob(t, "canneal")
	if got := (FirstFit{}).Place(j, states(0, 2, 3)); got != 1 {
		t.Fatalf("first-fit picked %d, want 1", got)
	}
	if got := (FirstFit{}).Place(j, states(1, 2, 3)); got != 0 {
		t.Fatalf("first-fit picked %d, want 0", got)
	}
	if got := (FirstFit{}).Place(j, states(0, 0, 0)); got != -1 {
		t.Fatalf("first-fit placed on a full cluster (%d)", got)
	}
}

func TestBestFitPicksTightest(t *testing.T) {
	j := testJob(t, "canneal")
	if got := (BestFit{}).Place(j, states(3, 1, 2)); got != 1 {
		t.Fatalf("best-fit picked %d, want tightest node 1", got)
	}
	// Ties resolve to the lowest index.
	if got := (BestFit{}).Place(j, states(2, 2, 3)); got != 0 {
		t.Fatalf("best-fit tie picked %d, want 0", got)
	}
	if got := (BestFit{}).Place(j, states(0, 0, 0)); got != -1 {
		t.Fatalf("best-fit placed on a full cluster (%d)", got)
	}
}

func TestTelemetryAwarePrefersHeadroom(t *testing.T) {
	j := testJob(t, "PLSA") // heaviest pressure source
	st := states(3, 3, 3)
	// Empty nodes, no telemetry: the heaviest job goes to the most tolerant
	// service (MongoDB), mirroring the batch interference-aware policy.
	if got := (TelemetryAware{}).Place(j, st); got != 2 {
		t.Fatalf("heavy job placed on %d, want mongodb node 2", got)
	}
	// Load the mongodb node with resident pressure: the job must move on.
	st[2].Pressure = 80
	if got := (TelemetryAware{}).Place(j, st); got == 2 {
		t.Fatal("job placed on pressured node")
	}
}

func TestTelemetryAwareAvoidsViolatingNodes(t *testing.T) {
	j := testJob(t, "canneal")
	st := states(3, 3, 3)
	// MongoDB (the default headroom winner for canneal too) is violating.
	st[2].Telemetry = violatingTelemetry(2.0)
	got := (TelemetryAware{}).Place(j, st)
	if got == 2 {
		t.Fatal("job placed on a violating node while healthy nodes exist")
	}
	if got < 0 {
		t.Fatal("job deferred while healthy nodes exist")
	}
}

func TestTelemetryAwareDefersThenFallsBack(t *testing.T) {
	j := testJob(t, "canneal")
	st := states(3, 3, 3)
	for i := range st {
		st[i].Telemetry = violatingTelemetry(1.8)
	}
	// All nodes violating: defer while under MaxDefer…
	if got := (TelemetryAware{MaxDefer: 2}).Place(j, st); got != -1 {
		t.Fatalf("job not deferred on a saturated cluster (%d)", got)
	}
	// …then force-place on the least-bad node rather than starve.
	j.Deferrals = 2
	if got := (TelemetryAware{MaxDefer: 2}).Place(j, st); got == -1 {
		t.Fatal("job starved past MaxDefer")
	}
	// With every slot taken there is nothing to fall back to.
	full := states(0, 0, 0)
	if got := (TelemetryAware{MaxDefer: 2}).Place(j, full); got != -1 {
		t.Fatalf("job placed on a slotless cluster (%d)", got)
	}
}

func TestTelemetryAwareLoadDerating(t *testing.T) {
	j := testJob(t, "canneal")
	// Two identical nginx nodes, one at its diurnal peak: the job must take
	// the off-peak node.
	st := []NodeState{
		{Index: 0, Node: cluster.Node{Service: service.NGINX, MaxApps: 3}, Free: 3, LoadMult: 1.3},
		{Index: 1, Node: cluster.Node{Service: service.NGINX, MaxApps: 3}, Free: 3, LoadMult: 0.8},
	}
	if got := (TelemetryAware{}).Place(j, st); got != 1 {
		t.Fatalf("job placed on peak-load node (%d), want off-peak node 1", got)
	}
}

// violatingTelemetry fabricates node feedback whose recent p99 sits at the
// given multiple of QoS.
func violatingTelemetry(p99OverQoS float64) cluster.Telemetry {
	return cluster.Telemetry{P99OverQoS: p99OverQoS, ViolationFrac: 1, Reports: 5}
}

func TestSpreadPicksEmptiestNode(t *testing.T) {
	j := testJob(t, "canneal")
	if got := (Spread{}).Place(j, states(1, 3, 2)); got != 1 {
		t.Fatalf("spread picked %d, want the emptiest node 1", got)
	}
	if got := (Spread{}).Place(j, states(0, 0, 0)); got != -1 {
		t.Fatalf("spread placed %d on a full cluster, want -1", got)
	}
	// Ties break to the lowest index, keeping runs deterministic.
	if got := (Spread{}).Place(j, states(2, 2, 2)); got != 0 {
		t.Fatalf("spread tie-break picked %d, want 0", got)
	}
}

// TestPoliciesAllocFree pins the four built-in policies' Place at zero
// allocations, counted over a batch of calls so that amortized growth fails
// it as well as a per-call allocation. The batch offers three 256-node
// views that together reach every branch: a mixed view where every node has
// residents and telemetry, so TelemetryAware walks its whole ranking path; a
// full view with no free slot; and a hot view where every free node breaches
// the admission threshold, offered to a fresh job (deferred) and to one
// already deferred (forced onto the least-bad node).
func TestPoliciesAllocFree(t *testing.T) {
	free := make([]int, 256)
	for i := range free {
		free[i] = i % 4
	}
	nodes := states(free...)
	for i := range nodes {
		nodes[i].Resident = []string{"canneal"}
		nodes[i].Pressure = 0.5
		nodes[i].Telemetry = cluster.Telemetry{Reports: 1, P99OverQoS: 0.9 + float64(i%5)/10}
	}
	full := states(make([]int, len(free))...)
	hot := slices.Clone(nodes)
	for i := range hot {
		hot[i].Telemetry.P99OverQoS = 2
	}
	j := testJob(t, "canneal")
	deferred := j
	deferred.Deferrals = 1
	const n = 100
	for _, p := range []Policy{FirstFit{}, BestFit{}, Spread{}, TelemetryAware{}} {
		var choice, onFull, onHot, forced int
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				choice = p.Place(j, nodes)
				onFull = p.Place(j, full)
				onHot = p.Place(j, hot)
				forced = p.Place(deferred, hot)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %d Place calls allocate %v times in total, want 0", p.Name(), 4*n, allocs)
		}
		if choice < 0 || forced < 0 {
			t.Errorf("%s deferred on a cluster with free slots", p.Name())
		}
		if onFull != -1 {
			t.Errorf("%s placed %d on a full cluster, want -1", p.Name(), onFull)
		}
		if gate := p.Name() == "telemetry-aware"; gate != (onHot < 0) {
			t.Errorf("%s placed %d on an all-violating cluster", p.Name(), onHot)
		}
	}
}
