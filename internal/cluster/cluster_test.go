package cluster

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/sim"
)

func TestNodeSeedIndependentPerNode(t *testing.T) {
	if NodeSeed(1, 0) == NodeSeed(1, 1) {
		t.Fatal("node seeds collide")
	}
	if NodeSeed(1, 0) != NodeSeed(1, 0) {
		t.Fatal("node seed not deterministic")
	}
}

func TestTelemetryObserve(t *testing.T) {
	var tel Telemetry
	if !tel.QoSMet() {
		t.Fatal("fresh telemetry must trivially meet QoS")
	}
	qos := sim.Duration(10 * sim.Millisecond)
	tel.Observe(monitor.Report{P99: qos / 2, QoS: qos})
	if tel.P99OverQoS != 0.5 || tel.Reports != 1 || tel.ViolationFrac != 0 {
		t.Fatalf("after first report: %+v", tel)
	}
	tel.Observe(monitor.Report{P99: 2 * qos, QoS: qos, Violation: true})
	// EWMA: 0.3·2 + 0.7·0.5 = 0.95.
	if tel.P99OverQoS < 0.94 || tel.P99OverQoS > 0.96 {
		t.Fatalf("ewma %v, want ≈0.95", tel.P99OverQoS)
	}
	if tel.ViolationFrac != 0.5 {
		t.Fatalf("violation frac %v", tel.ViolationFrac)
	}
	tel.Observe(monitor.Report{P99: 3 * qos, QoS: qos, Violation: true})
	if tel.QoSMet() {
		t.Fatalf("telemetry at %v×QoS still reports QoS met", tel.P99OverQoS)
	}
}

func TestShuffledJobsDeterministic(t *testing.T) {
	a := ShuffledJobs(1, 5)
	b := ShuffledJobs(1, 5)
	if len(a) != 5 {
		t.Fatalf("len %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not deterministic")
		}
	}
	c := ShuffledJobs(2, 5)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical shuffles")
	}
	if len(ShuffledJobs(1, 100)) != 24 {
		t.Fatal("overlong request not clamped to catalog size")
	}
}

// TestTelemetryEWMADecay pins the recency weighting: after a single spike,
// each quiet interval decays the EWMA by exactly (1-alpha), so the spike's
// influence halves roughly every two reports at alpha = 0.3.
func TestTelemetryEWMADecay(t *testing.T) {
	const alpha = 0.3
	qos := sim.Duration(10 * sim.Millisecond)
	var tel Telemetry
	tel.Observe(monitor.Report{P99: 4 * qos, QoS: qos, Violation: true}) // spike: ratio 4
	want := 4.0
	for i := 0; i < 6; i++ {
		tel.Observe(monitor.Report{P99: qos, QoS: qos}) // quiet: ratio 1
		want = alpha*1 + (1-alpha)*want
		if diff := tel.P99OverQoS - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("after %d quiet reports: EWMA %v, want %v", i+1, tel.P99OverQoS, want)
		}
	}
	// Six quiet intervals leave under 12% of the spike's excess.
	if excess := tel.P99OverQoS - 1; excess > 3*math.Pow(1-alpha, 6) {
		t.Fatalf("spike not decaying: excess %v", excess)
	}
}

// TestTelemetryEnergyObserve covers the energy EWMAs: watts seed on the
// first energy-bearing report, decay with the same alpha, joules accumulate,
// and reports without energy leave all three untouched.
func TestTelemetryEnergyObserve(t *testing.T) {
	qos := sim.Duration(10 * sim.Millisecond)
	var tel Telemetry
	tel.Observe(monitor.Report{P99: qos, QoS: qos}) // no energy attached
	if tel.Watts != 0 || tel.Joules != 0 || tel.PerfPerWatt != 0 {
		t.Fatalf("energy fields moved without energy-bearing report: %+v", tel)
	}
	r := monitor.Report{
		P99: qos, QoS: qos, Interval: sim.Second,
		Seen: 1000, Watts: 100, Joules: 100,
	}
	tel.Observe(r)
	if tel.Watts != 100 || tel.Joules != 100 {
		t.Fatalf("first energy report did not seed: %+v", tel)
	}
	if tel.PerfPerWatt != 10 { // 1000 req/s at 100 W
		t.Fatalf("PerfPerWatt = %v, want 10", tel.PerfPerWatt)
	}
	r.Watts, r.Joules, r.Seen = 200, 200, 1000
	tel.Observe(r)
	if want := 0.3*200 + 0.7*100.0; math.Abs(tel.Watts-want) > 1e-12 {
		t.Fatalf("Watts EWMA = %v, want %v", tel.Watts, want)
	}
	if tel.Joules != 300 {
		t.Fatalf("Joules = %v, want 300", tel.Joules)
	}
}

// TestTelemetryObserveAllocFree pins the acceptance criterion: folding an
// energy-bearing report into node telemetry allocates nothing. It counts
// the total over a batch of reports, so amortized growth fails it too. Each
// batch starts from empty telemetry, so the first report and the first
// energy-bearing report seed their EWMAs, and it alternates met and
// violated reports.
func TestTelemetryObserveAllocFree(t *testing.T) {
	qos := sim.Duration(10 * sim.Millisecond)
	met := monitor.Report{
		P99: qos, QoS: qos, Interval: sim.Second,
		Seen: 1000, Watts: 100, Joules: 100,
	}
	violated := met
	violated.P99, violated.Violation = 2*qos, true
	var tel Telemetry
	const n = 1000
	allocs := testing.AllocsPerRun(1, func() {
		tel = Telemetry{}
		for i := 0; i < n; i++ {
			tel.Observe(met)
			tel.Observe(violated)
		}
	})
	if allocs != 0 {
		t.Errorf("%d Telemetry.Observe calls allocate %.2f times in total, want 0", 2*n, allocs)
	}
	if tel.ViolationFrac != 0.5 {
		t.Errorf("ViolationFrac = %v after alternating reports, want 0.5", tel.ViolationFrac)
	}
}
