// Package interference models contention in the resources the colocated
// tenants share: the last-level cache and memory bandwidth (plus a mild
// scheduling term when a tenant is starved of cores). It converts each
// tenant's current resource demand into a per-tenant slowdown factor that the
// service and application models apply to their work.
//
// The model is deliberately simple and monotone — the paper's runtime treats
// the machine as a black box and only observes end-to-end latency, so what
// matters for reproducing its behaviour is that (a) colocated pressure
// inflates interactive service time enough to violate QoS at high load
// (paper: 2–10×), (b) approximation reduces pressure roughly in proportion to
// the traffic it eliminates, and (c) core reclamation shifts capacity without
// changing pressure per remaining core.
package interference

import (
	"fmt"

	"github.com/approx-sched/pliant/internal/platform"
)

// Demand is one tenant's instantaneous pressure on shared resources.
type Demand struct {
	// LLCMB is the tenant's working-set demand on the shared LLC, in MB.
	// When the sum across tenants exceeds capacity, everyone's effective
	// occupancy shrinks proportionally and miss rates rise.
	LLCMB float64

	// MemBWGBs is the tenant's memory-bandwidth demand in GB/s at its
	// current core allocation and approximation variant.
	MemBWGBs float64

	// Sensitivity scales how strongly this tenant's execution suffers per
	// unit of cache/bandwidth shortfall. Interactive services with strict
	// microsecond budgets (memcached) have high sensitivity; I/O-bound
	// services (MongoDB) have low sensitivity.
	Sensitivity Sensitivity
}

// Sensitivity captures how a tenant's execution time responds to shortfalls
// in each shared resource. A value of 1.0 means a 100% shortfall doubles the
// tenant's service demand.
type Sensitivity struct {
	LLC   float64
	MemBW float64
}

// DefaultKnee is the occupancy fraction at which contention effects begin.
// Real caches suffer conflict and capacity misses well before the summed
// working sets reach nominal capacity, and memory controllers queue before
// peak bandwidth; 0.75 reproduces the gradual onset the paper's precise-mode
// violation spectrum (2–10×) implies.
const DefaultKnee = 0.75

// Model computes per-tenant slowdowns from the demands of all colocated
// tenants on a server.
type Model struct {
	spec platform.Spec
	knee float64
}

// Init (re)initialises m in place as the contention model of the given
// server, whose contention onset begins at the given fraction of nominal
// capacity (DefaultKnee for the paper's figures; knee=1 means contention
// begins exactly at capacity — the idealized proportional-sharing model).
// On error m is unchanged.
func (m *Model) Init(spec platform.Spec, knee float64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if knee <= 0 || knee > 1 {
		return fmt.Errorf("interference: knee %v outside (0,1]", knee)
	}
	*m = Model{spec: spec, knee: knee}
	return nil
}

// Spec returns the server spec the model was built for.
func (m *Model) Spec() platform.Spec { return m.spec }

// Pressure summarizes the shared-resource state for one evaluation.
type Pressure struct {
	// LLCDemandMB is the summed cache demand across tenants.
	LLCDemandMB float64
	// LLCOvercommit is max(0, demand/capacity - 1): how far the combined
	// working sets exceed the cache.
	LLCOvercommit float64
	// BWDemandGBs is the summed bandwidth demand.
	BWDemandGBs float64
	// BWOvercommit is max(0, demand/peak - 1).
	BWOvercommit float64
}

// EvaluateInto computes the current slowdown of every tenant: it writes
// the multiplicative execution-time inflation of demands[i] (1.0 = no
// interference) to slow[i] (slow must be at least as long as demands) and
// returns the pressure. Callers that refresh contention many times per run
// reuse one slow buffer and allocate nothing.
//
// Cache: tenants compete for LLC capacity. Each tenant's occupancy is its
// demand scaled down proportionally when the sum exceeds capacity; its
// shortfall fraction (1 - occupancy/demand) drives extra misses, hence
// inflation via the tenant's LLC sensitivity.
//
// Bandwidth: when the summed demand exceeds the achievable peak, memory
// accesses queue; every tenant sees the same relative shortfall, weighted by
// its bandwidth sensitivity.
func (m *Model) EvaluateInto(demands []Demand, slow []float64) Pressure {
	var p Pressure
	for _, d := range demands {
		p.LLCDemandMB += nonneg(d.LLCMB)
		p.BWDemandGBs += nonneg(d.MemBWGBs)
	}
	if p.LLCDemandMB > m.spec.LLCMB {
		p.LLCOvercommit = p.LLCDemandMB/m.spec.LLCMB - 1
	}
	if p.BWDemandGBs > m.spec.MemBWGBs {
		p.BWOvercommit = p.BWDemandGBs/m.spec.MemBWGBs - 1
	}

	// Fraction of each tenant's demand it effectively receives: full until
	// combined demand reaches the contention knee, then shrinking
	// proportionally.
	llcShare := 1.0
	if effCap := m.knee * m.spec.LLCMB; p.LLCDemandMB > effCap {
		llcShare = effCap / p.LLCDemandMB
	}
	bwShare := 1.0
	if effCap := m.knee * m.spec.MemBWGBs; p.BWDemandGBs > effCap {
		bwShare = effCap / p.BWDemandGBs
	}

	for i, d := range demands {
		llcShort := 0.0
		if d.LLCMB > 0 {
			llcShort = 1 - llcShare
		}
		bwShort := 0.0
		if d.MemBWGBs > 0 {
			bwShort = 1 - bwShare
		}
		s := 1 + d.Sensitivity.LLC*llcShort + d.Sensitivity.MemBW*bwShort
		if s < 1 {
			s = 1
		}
		slow[i] = s
	}
	return p
}

func nonneg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// String formats the pressure state for traces.
func (p Pressure) String() string {
	return fmt.Sprintf("llc=%.1fMB(+%.0f%%) bw=%.1fGB/s(+%.0f%%)",
		p.LLCDemandMB, p.LLCOvercommit*100, p.BWDemandGBs, p.BWOvercommit*100)
}
