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

func TestEvaluateIntoAllocFree(t *testing.T) {
	m, err := New(platform.TablePlatform())
	if err != nil {
		t.Fatal(err)
	}
	demands := contended()
	slow := make([]float64, len(demands))
	if avg := testing.AllocsPerRun(1000, func() { m.EvaluateInto(demands, slow) }); avg != 0 {
		t.Fatalf("EvaluateInto allocates %.1f times per call", avg)
	}
}
