package energy

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/sim"
)

func TestModelForTablePlatform(t *testing.T) {
	m := ModelFor(platform.TablePlatform())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// 22 cores × 2.2 GHz × 3.0 W/(core·GHz) ≈ the part's 145 W TDP.
	if m.PeakW < 140 || m.PeakW > 150 {
		t.Errorf("PeakW = %.1f, want ≈145 (Table 1 TDP)", m.PeakW)
	}
	if m.IdleW <= m.ParkedW || m.IdleW >= m.PeakW {
		t.Errorf("power ordering violated: parked %.1f, idle %.1f, peak %.1f",
			m.ParkedW, m.IdleW, m.PeakW)
	}
	if got := m.FreqAt(m.Nominal()); got != 2.2 {
		t.Errorf("nominal frequency = %v, want base 2.2", got)
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	base := ModelFor(platform.SmallPlatform())
	cases := []func(*Model){
		func(m *Model) { m.PeakW = 0 },
		func(m *Model) { m.IdleW = m.PeakW + 1 },
		func(m *Model) { m.ParkedW = m.IdleW + 1 },
		func(m *Model) { m.Alpha = 0 },
		func(m *Model) { m.FreqGHz = nil },
		func(m *Model) { m.FreqGHz = []float64{1.0, 0.5} }, // descending
		func(m *Model) { m.FreqGHz = []float64{-1} },
	}
	for i, mutate := range cases {
		m := base
		m.FreqGHz = append([]float64(nil), base.FreqGHz...)
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: bad model validated", i)
		}
	}
}

func TestPowerCurveMonotone(t *testing.T) {
	m := ModelFor(platform.TablePlatform())
	nominal := m.FreqAt(m.Nominal())
	// Power grows with utilization at fixed frequency.
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.1 {
		p := m.Power(u, nominal)
		if p <= prev {
			t.Fatalf("power not increasing in utilization at u=%.1f: %v <= %v", u, p, prev)
		}
		prev = p
	}
	// Endpoints pin the idle floor and peak.
	if got := m.Power(0, nominal); math.Abs(got-m.IdleW) > 1e-9 {
		t.Errorf("Power(0, nominal) = %v, want IdleW %v", got, m.IdleW)
	}
	if got := m.Power(1, nominal); math.Abs(got-m.PeakW) > 1e-9 {
		t.Errorf("Power(1, nominal) = %v, want PeakW %v", got, m.PeakW)
	}
	// Lower frequency states draw strictly less at equal utilization.
	for s := 0; s < m.Nominal(); s++ {
		if lo, hi := m.PowerAt(0.7, s), m.PowerAt(0.7, s+1); lo >= hi {
			t.Errorf("state %d draws %.1f ≥ state %d's %.1f", s, lo, s+1, hi)
		}
	}
	// Utilization clamps rather than extrapolating.
	if got := m.Power(1.7, nominal); got != m.PeakW {
		t.Errorf("Power(1.7) = %v, want clamped PeakW %v", got, m.PeakW)
	}
	if got := m.Power(-0.3, nominal); got != m.IdleW {
		t.Errorf("Power(-0.3) = %v, want clamped IdleW %v", got, m.IdleW)
	}
}

func TestSlowdownAt(t *testing.T) {
	m := ModelFor(platform.TablePlatform())
	if got := m.SlowdownAt(m.Nominal()); got != 1 {
		t.Errorf("nominal slowdown = %v, want 1", got)
	}
	if got := m.SlowdownAt(0); math.Abs(got-1/0.6) > 1e-9 {
		t.Errorf("lowest-state slowdown = %v, want %v", got, 1/0.6)
	}
	// Out-of-range states clamp into the ladder.
	if got := m.SlowdownAt(99); got != 1 {
		t.Errorf("clamped-high slowdown = %v, want 1", got)
	}
}

func TestAccumulatorIntegratesPower(t *testing.T) {
	var a Accumulator
	a.Reset(0)
	a.Advance(sim.Time(2*sim.Second), 100) // 200 J
	a.Advance(sim.Time(5*sim.Second), 50)  // +150 J
	if math.Abs(a.Joules-350) > 1e-9 {
		t.Errorf("Joules = %v, want 350", a.Joules)
	}
	// Out-of-order and same-instant advances are ignored.
	a.Advance(sim.Time(4*sim.Second), 1e6)
	a.Advance(sim.Time(5*sim.Second), 1e6)
	if math.Abs(a.Joules-350) > 1e-9 {
		t.Errorf("Joules after stale advance = %v, want 350", a.Joules)
	}
	a.AddJoules(25)
	if math.Abs(a.Joules-375) > 1e-9 {
		t.Errorf("Joules after AddJoules = %v, want 375", a.Joules)
	}
	if a.Last() != sim.Time(5*sim.Second) {
		t.Errorf("Last = %v, want 5s", a.Last())
	}
	a.Reset(sim.Time(7 * sim.Second))
	if a.Joules != 0 || a.Last() != sim.Time(7*sim.Second) {
		t.Errorf("Reset left Joules=%v Last=%v", a.Joules, a.Last())
	}
}

// TestEnergyAccountingAllocFree pins the acceptance criterion: energy
// accumulation is pure arithmetic on the telemetry path — zero allocations.
// It counts the total over a batch of calls, so amortized growth (an append
// that reallocates once in a hundred calls) fails it too. Each batch starts
// from a reset accumulator and reaches both branches of Advance: an
// in-order instant accrues, a repeated or earlier one is ignored.
func TestEnergyAccountingAllocFree(t *testing.T) {
	m := ModelFor(platform.TablePlatform())
	var a Accumulator
	const n = 1000
	allocs := testing.AllocsPerRun(1, func() {
		a.Reset(0)
		for i := 1; i <= n; i++ {
			now := sim.Time(i) * sim.Time(sim.Second)
			a.Advance(now, m.PowerAt(0.6, 1))
			a.Advance(now-sim.Time(sim.Second), m.PowerAt(0.6, 1))
		}
	})
	if allocs != 0 {
		t.Errorf("%d Advance calls allocate %v times in total, want 0", 2*n, allocs)
	}
	if want := sim.Time(n) * sim.Time(sim.Second); a.Last() != want {
		t.Errorf("Last = %v after the batch, want %v", a.Last(), want)
	}
}
