package interference

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/approx-sched/pliant/internal/platform"
)

// model returns an idealized proportional-sharing model (knee=1), under
// which shortfall arithmetic is exact and easy to assert.
func model(t *testing.T) *Model {
	t.Helper()
	m, err := NewWithKnee(platform.TablePlatform(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// eval returns the pressure and the slowdown at each slot of demands.
func eval(m *Model, demands ...Demand) (Pressure, []float64) {
	slow := make([]float64, len(demands))
	return m.EvaluateInto(demands, slow), slow
}

func TestNewRejectsInvalidSpec(t *testing.T) {
	bad := platform.TablePlatform()
	bad.LLCMB = 0
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted invalid spec")
	}
}

func TestNewRejectsBadKnee(t *testing.T) {
	for _, knee := range []float64{0, -0.5, 1.5} {
		if _, err := NewWithKnee(platform.TablePlatform(), knee); err == nil {
			t.Errorf("knee %v accepted", knee)
		}
	}
}

func TestKneeStartsContentionEarly(t *testing.T) {
	m, err := New(platform.TablePlatform()) // default knee 0.75
	if err != nil {
		t.Fatal(err)
	}
	cap := m.Spec().LLCMB
	// Demand at 90% of capacity: under proportional sharing there is no
	// shortfall, but past the knee there is.
	_, slow := eval(m, Demand{LLCMB: cap * 0.9, Sensitivity: Sensitivity{LLC: 1}})
	if got := slow[0]; got <= 1.0 {
		t.Fatalf("slowdown at 90%% occupancy = %v, want > 1 with knee", got)
	}
	// Demand below the knee: no contention.
	_, slow = eval(m, Demand{LLCMB: cap * 0.7, Sensitivity: Sensitivity{LLC: 1}})
	if got := slow[0]; got != 1.0 {
		t.Fatalf("slowdown at 70%% occupancy = %v, want 1.0", got)
	}
}

func TestNoContentionNoSlowdown(t *testing.T) {
	m := model(t)
	p, slow := eval(m,
		Demand{LLCMB: 10, MemBWGBs: 5, Sensitivity: Sensitivity{LLC: 2, MemBW: 2}},
		Demand{LLCMB: 10, MemBWGBs: 5, Sensitivity: Sensitivity{LLC: 1, MemBW: 1}},
	)
	if got := slow[0]; got != 1.0 {
		t.Fatalf("uncontended svc slowdown = %v, want 1.0", got)
	}
	if got := slow[1]; got != 1.0 {
		t.Fatalf("uncontended app slowdown = %v, want 1.0", got)
	}
	if p.LLCOvercommit != 0 || p.BWOvercommit != 0 {
		t.Fatalf("unexpected overcommit: %+v", p)
	}
}

func TestLLCOvercommitSlowsSensitiveTenant(t *testing.T) {
	m := model(t)
	// Combined demand 110MB on a 55MB LLC: each tenant gets half its demand.
	_, slow := eval(m,
		Demand{LLCMB: 55, Sensitivity: Sensitivity{LLC: 2}},
		Demand{LLCMB: 55, Sensitivity: Sensitivity{LLC: 0.5}},
	)
	// Shortfall is 0.5 each; svc inflates by 1+2*0.5=2, app by 1.25.
	if got := slow[0]; got != 2.0 {
		t.Fatalf("svc slowdown = %v, want 2.0", got)
	}
	if got := slow[1]; got != 1.25 {
		t.Fatalf("app slowdown = %v, want 1.25", got)
	}
}

func TestBWOvercommit(t *testing.T) {
	m := model(t)
	peak := m.Spec().MemBWGBs
	p, slow := eval(m,
		Demand{MemBWGBs: peak, Sensitivity: Sensitivity{MemBW: 1}},
		Demand{MemBWGBs: peak, Sensitivity: Sensitivity{MemBW: 1}},
	)
	// Each gets half its demand: shortfall 0.5, slowdown 1.5.
	if got := slow[0]; got != 1.5 {
		t.Fatalf("svc slowdown = %v, want 1.5", got)
	}
	if p.BWOvercommit != 1.0 {
		t.Fatalf("BWOvercommit = %v, want 1.0", p.BWOvercommit)
	}
}

func TestZeroDemandTenantUnaffected(t *testing.T) {
	m := model(t)
	_, slow := eval(m,
		Demand{LLCMB: 0, MemBWGBs: 0, Sensitivity: Sensitivity{LLC: 5, MemBW: 5}},
		Demand{LLCMB: 60, MemBWGBs: 80, Sensitivity: Sensitivity{LLC: 1, MemBW: 1}},
		Demand{LLCMB: 60, MemBWGBs: 80, Sensitivity: Sensitivity{LLC: 1, MemBW: 1}},
	)
	// A tenant that touches neither resource can't be slowed by them.
	if got := slow[0]; got != 1.0 {
		t.Fatalf("idle slowdown = %v, want 1.0", got)
	}
	if slow[1] <= 1.0 {
		t.Fatal("contending tenant not slowed")
	}
}

// A slot with no demand and no sensitivity — a tenant the model knows
// nothing about — keeps slowdown 1.0 beside an overcommitting co-runner,
// and evaluating no tenants reports no pressure.
func TestUnknownTenantDefaultsToOne(t *testing.T) {
	m := model(t)
	if p := m.EvaluateInto(nil, nil); p != (Pressure{}) {
		t.Fatalf("pressure of no tenants = %+v, want zero", p)
	}
	_, slow := eval(m, Demand{}, Demand{LLCMB: 200, MemBWGBs: 200, Sensitivity: Sensitivity{LLC: 1, MemBW: 1}})
	if slow[0] != 1.0 {
		t.Fatal("unknown tenant should have slowdown 1.0")
	}
}

func TestNegativeDemandClamped(t *testing.T) {
	m := model(t)
	p, slow := eval(m, Demand{LLCMB: -10, MemBWGBs: -10, Sensitivity: Sensitivity{LLC: 1, MemBW: 1}})
	if p.LLCDemandMB != 0 || p.BWDemandGBs != 0 {
		t.Fatalf("negative demand leaked into pressure: %+v", p)
	}
	if slow[0] != 1.0 {
		t.Fatal("negative demand produced slowdown")
	}
}

func TestReducingDemandReducesSlowdown(t *testing.T) {
	// The core premise of Pliant: approximation reduces traffic, which must
	// monotonically reduce the victim's slowdown.
	m := model(t)
	sens := Sensitivity{LLC: 1.5, MemBW: 1.2}
	victim := Demand{LLCMB: 20, MemBWGBs: 10, Sensitivity: sens}
	prev := 1e18
	for bw := 120.0; bw >= 0; bw -= 20 {
		_, slow := eval(m, victim, Demand{LLCMB: 80, MemBWGBs: bw, Sensitivity: Sensitivity{LLC: 0.5, MemBW: 0.5}})
		s := slow[0]
		if s > prev {
			t.Fatalf("slowdown not monotone in co-runner bandwidth: %v after %v", s, prev)
		}
		prev = s
	}
}

// Property: slowdowns are always >= 1 and finite, for arbitrary demands.
func TestSlowdownBoundsProperty(t *testing.T) {
	m := model(t)
	f := func(llc1, bw1, llc2, bw2 uint16, sLLC, sBW uint8) bool {
		_, slow := eval(m,
			Demand{LLCMB: float64(llc1), MemBWGBs: float64(bw1),
				Sensitivity: Sensitivity{LLC: float64(sLLC) / 16, MemBW: float64(sBW) / 16}},
			Demand{LLCMB: float64(llc2), MemBWGBs: float64(bw2),
				Sensitivity: Sensitivity{LLC: 1, MemBW: 1}},
		)
		for i, s := range slow {
			if s < 1 || s != s /* NaN */ {
				return false
			}
			// Shortfall fractions are < 1, so slowdown < 1 + sLLC + sBW.
			if i == 1 && s >= 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPressureString(t *testing.T) {
	m := model(t)
	p, _ := eval(m, Demand{LLCMB: 100, MemBWGBs: 100})
	if !strings.Contains(p.String(), "llc=") {
		t.Fatalf("Pressure.String() = %q", p.String())
	}
}
