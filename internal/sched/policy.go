package sched

import (
	"math"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/service"
)

// Policy decides, at every scheduling window, where the next pending job
// runs. It never sees the whole job stream: it is offered one job at a time
// against the cluster's live state and may defer (return -1) to keep the
// job queued — admission control when every node is saturated.
//
// The contract, which the scheduler enforces and relies on:
//
//   - Place is a pure function of its arguments. It returns -1 or the Index
//     of a node whose offered Free > 0; any other node fails the run with an
//     error naming the policy, the job and the node. Parked, draining,
//     waking and down nodes, and the failed domain of a retried job, are
//     offered with Free = 0.
//   - nodes is lent for the call only. It is updated in place as jobs land,
//     and the scheduler rewrites the same backing arrays, each NodeState's
//     Resident included, at every window; a policy that keeps any of it
//     must copy it.
//   - Jobs are not offered while no node has a free slot. Such a job is
//     deferred without a call, as if Place had returned -1: its Deferrals
//     count goes up and, with obs attached, it gets a placement record with
//     0 candidates.
type Policy interface {
	Name() string
	Place(job Job, nodes []NodeState) int
}

// FirstFit places each job on the first node with a free slot — the
// telemetry-blind baseline every bin-packing comparison starts from.
type FirstFit struct{}

// Name identifies the policy.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Policy.
//
//pliant:hotpath
func (FirstFit) Place(_ Job, nodes []NodeState) int {
	for i := range nodes {
		if nodes[i].Free > 0 {
			return nodes[i].Index
		}
	}
	return -1
}

// BestFit packs each job onto the occupied node with the fewest free slots
// that still fits — classic best-fit bin packing on slots, concentrating
// jobs to keep whole nodes unfragmented. Still telemetry-blind.
type BestFit struct{}

// Name identifies the policy.
func (BestFit) Name() string { return "best-fit" }

// Place implements Policy.
//
//pliant:hotpath
func (BestFit) Place(_ Job, nodes []NodeState) int {
	best, bestFree := -1, math.MaxInt
	for i := range nodes {
		st := &nodes[i]
		if st.Free > 0 && st.Free < bestFree {
			best, bestFree = st.Index, st.Free
		}
	}
	return best
}

// Spread places each job on the free node with the most open slots —
// spread-first: it minimizes per-node interference by keeping arity low, at
// the cost of keeping every node awake. The energy study's QoS-friendly,
// watts-hostile endpoint.
type Spread struct{}

// Name identifies the policy.
func (Spread) Name() string { return "spread-first" }

// Place implements Policy.
//
//pliant:hotpath
func (Spread) Place(_ Job, nodes []NodeState) int {
	best, bestFree := -1, 0
	for i := range nodes {
		st := &nodes[i]
		if st.Free > bestFree {
			best, bestFree = st.Index, st.Free
		}
	}
	return best
}

// TelemetryAware consumes the Pliant runtime's live feedback — each node's
// recent p99/QoS and violation fraction, each resident job's residual
// pressure (PressureOf) — plus per-service tolerance budgets, and packs
// interference instead of slots: among nodes whose recent tail is within
// the admission threshold, a job goes to the one with the most tolerance
// headroom left after accounting for the upcoming window's load (headroom
// ranks candidates; observed telemetry, not predicted pressure, gates
// admission). When every free node's recent tail breaches the
// threshold the job is deferred, up to MaxDefer windows, after which it
// takes the least-bad free slot rather than starving.
type TelemetryAware struct {
	// Tolerance maps service classes to co-runner pressure budgets; nil uses
	// defaultTolerances.
	Tolerance map[service.Class]float64

	// AdmitP99 is the recent p99/QoS ratio above which a node stops
	// admitting jobs (default 1.2 — marginal violations are left to the
	// node's own Pliant runtime to absorb; only clear breaches repel).
	AdmitP99 float64

	// MaxDefer is how many windows a job may be deferred before it is
	// force-placed on the least-bad free node (default 1).
	MaxDefer int
}

// Name identifies the policy.
func (TelemetryAware) Name() string { return "telemetry-aware" }

// defaultTolerances is the tolerance table TelemetryAware uses when its own
// is nil: how much residual co-runner pressure each service absorbs before
// needing core reclamation, in PressureOf's units (MB-equivalents of
// shed-adjusted footprint). The values follow the paper's Fig. 10 ordering:
// MongoDB most tolerant, memcached least. Only ever read.
var defaultTolerances = map[service.Class]float64{
	service.MongoDB:   95,
	service.NGINX:     80,
	service.Memcached: 65,
}

// PressureOf scores a job's residual shared-resource pressure: the LLC
// footprint its most approximate variant retains, plus bandwidth weight.
// The scheduler precomputes it into Job.Pressure for policies, and trace
// replay ranks catalog apps by it.
func PressureOf(p app.Profile) float64 {
	// Best-case traffic scale from the sites (product of full-depth
	// reductions), mirroring approx.Combine on maximal decisions without
	// running the full DSE.
	traffic := 1.0
	for _, s := range p.Sites {
		traffic *= 1 - s.TrafficShare*0.9
	}
	if traffic < 0.1 {
		traffic = 0.1
	}
	return p.LLCMB*traffic + 4*p.BWPerCoreGBs
}

// Place implements Policy.
//
//pliant:hotpath
func (p TelemetryAware) Place(job Job, nodes []NodeState) int {
	tol := p.Tolerance
	if tol == nil {
		tol = defaultTolerances
	}
	admit := p.AdmitP99
	if admit == 0 {
		admit = 1.2
	}
	maxDefer := p.MaxDefer
	if maxDefer == 0 {
		maxDefer = 1
	}

	// Rank free nodes by tolerance headroom: the service's budget, derated
	// by the upcoming window's load (a service near its peak absorbs less
	// co-runner pressure), minus resident pressure and what this job adds.
	// Live telemetry gates admission: nodes whose recent tail breaches the
	// threshold are only used once every healthy option is exhausted.
	best, bestHead := -1, math.Inf(-1)
	fallback, fbHead := -1, math.Inf(-1)
	for i := range nodes {
		st := &nodes[i]
		if st.Free == 0 {
			continue
		}
		head := tol[st.Node.Service]/math.Max(st.LoadMult, 0.1) - st.Pressure - job.Pressure
		if head > fbHead {
			fallback, fbHead = st.Index, head
		}
		if st.Telemetry.Reports > 0 && st.Telemetry.P99OverQoS > admit {
			continue // recently violating: let it recover
		}
		if head > bestHead {
			best, bestHead = st.Index, head
		}
	}
	if best >= 0 {
		return best
	}
	// Every free node is violating: defer (admission control), then fall
	// back to the least-bad node rather than starving the job.
	if job.Deferrals >= maxDefer {
		return fallback // possibly still -1 when every slot is taken
	}
	return -1
}
