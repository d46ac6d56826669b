package interference

import (
	"testing"

	"github.com/approx-sched/pliant/internal/platform"
)

func contended() []Demand {
	return []Demand{
		{Tenant: "svc", LLCMB: 30, MemBWGBs: 40, Sensitivity: Sensitivity{LLC: 2, MemBW: 3}},
		{Tenant: "a", LLCMB: 25, MemBWGBs: 35, Sensitivity: Sensitivity{LLC: 1, MemBW: 1}},
		{Tenant: "b", LLCMB: 0, MemBWGBs: 20, Sensitivity: Sensitivity{LLC: 1, MemBW: 2}},
	}
}

// EvaluateInto must agree with Evaluate tenant by tenant and report the same
// pressure.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	m, err := New(platform.TablePlatform())
	if err != nil {
		t.Fatal(err)
	}
	demands := contended()
	slow := make([]float64, len(demands))
	p := m.EvaluateInto(demands, slow)
	res := m.Evaluate(demands)
	if p != res.Pressure {
		t.Fatalf("pressure %+v, Evaluate says %+v", p, res.Pressure)
	}
	for i, d := range demands {
		if slow[i] != res.Slowdown(d.Tenant) {
			t.Fatalf("%s: slowdown %v, Evaluate says %v", d.Tenant, slow[i], res.Slowdown(d.Tenant))
		}
	}
	if slow[0] <= 1 {
		t.Fatalf("contended service slowdown %v, want > 1", slow[0])
	}
}

// TestEvaluateIntoAllocFree pins EvaluateInto at zero allocations over a
// batch of calls, so amortized growth fails it as well as a per-call
// allocation. The batch evaluates the contended mix alone and with a
// tenant that overcommits the LLC, whose negative bandwidth demand counts
// as zero and whose negative sensitivity is clamped to no slowdown, so
// every branch runs.
func TestEvaluateIntoAllocFree(t *testing.T) {
	m, err := New(platform.TablePlatform())
	if err != nil {
		t.Fatal(err)
	}
	demands := contended()
	odd := append(contended(), Demand{Tenant: "c", LLCMB: 5, MemBWGBs: -1, Sensitivity: Sensitivity{LLC: -1, MemBW: -1}})
	slow := make([]float64, len(odd))
	const n = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			m.EvaluateInto(demands, slow)
			m.EvaluateInto(odd, slow)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d EvaluateInto calls allocate %.1f times in total, want 0", 2*n, allocs)
	}
	if slow[len(odd)-1] != 1 {
		t.Fatalf("negative-sensitivity slowdown %v, want the clamp to 1", slow[len(odd)-1])
	}
}
