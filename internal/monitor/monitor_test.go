package monitor

import (
	"fmt"
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(200 * sim.Microsecond)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"zero qos":      func(c *Config) { c.QoS = 0 },
		"zero interval": func(c *Config) { c.Interval = 0 },
		"zero target":   func(c *Config) { c.TargetSamples = 0 },
		"zero dense":    func(c *Config) { c.DenseFactor = 0 },
	}
	for name, mutate := range cases {
		c := DefaultConfig(sim.Millisecond)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// newMonitor returns a monitor initialised on eng.
func newMonitor(t *testing.T, eng *sim.Engine, cfg Config, onReport func(Report)) *Monitor {
	t.Helper()
	m := &Monitor{}
	if err := m.Init(eng, cfg, onReport); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInitValidation re-initialises a running monitor with each bad input:
// every one is refused and leaves the monitor as it was, still sampling into
// the same histogram and reporting to the same callback on the same ticker.
func TestInitValidation(t *testing.T) {
	eng := sim.NewEngine()
	var reports []Report
	m := newMonitor(t, eng, DefaultConfig(sim.Millisecond), func(r Report) { reports = append(reports, r) })
	for i := 0; i < 5; i++ {
		m.Observe(500 * sim.Microsecond)
	}
	before, pending := fmt.Sprintf("%#v", *m), eng.Pending()
	bad := DefaultConfig(sim.Millisecond)
	bad.QoS = 0
	for name, init := range map[string]func() error{
		"nil engine": func() error { return m.Init(nil, DefaultConfig(sim.Millisecond), nil) },
		"bad config": func() error { return m.Init(eng, bad, nil) },
	} {
		if err := init(); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if after := fmt.Sprintf("%#v", *m); after != before || eng.Pending() != pending {
			t.Fatalf("%s: refused Init changed the monitor\n%s\nwant\n%s", name, after, before)
		}
	}
	eng.Run(sim.Time(sim.Second))
	if len(reports) != 1 || reports[0].Samples != 5 {
		t.Fatalf("after refused Inits: reports %+v, want one with the 5 samples", reports)
	}
}

func TestReportsFireEveryInterval(t *testing.T) {
	eng := sim.NewEngine()
	var reports []Report
	m := newMonitor(t, eng, DefaultConfig(sim.Millisecond), func(r Report) { reports = append(reports, r) })
	eng.Run(sim.Time(3500 * sim.Millisecond))
	if len(reports) != 3 {
		t.Fatalf("%d reports in 3.5s with 1s interval, want 3", len(reports))
	}
	for i, r := range reports {
		if r.At != sim.Time(i+1)*sim.Time(sim.Second) {
			t.Fatalf("report %d at %v", i, r.At)
		}
	}
	if m.Reports() != 3 {
		t.Fatalf("Reports() = %d", m.Reports())
	}
}

func TestViolationAndSlack(t *testing.T) {
	eng := sim.NewEngine()
	qos := sim.Millisecond
	var last Report
	m := newMonitor(t, eng, DefaultConfig(qos), func(r Report) { last = r })
	// Feed latencies all at 500µs: p99 ≈ 500µs, slack ≈ 0.5.
	eng.Schedule(sim.Time(100*sim.Millisecond), func() {
		for i := 0; i < 1000; i++ {
			m.Observe(500 * sim.Microsecond)
		}
	})
	eng.Run(sim.Time(sim.Second))
	if last.Violation {
		t.Fatal("500µs vs 1ms QoS flagged as violation")
	}
	if last.Slack < 0.45 || last.Slack > 0.55 {
		t.Fatalf("slack = %v, want ~0.5", last.Slack)
	}

	// Now feed latencies above QoS: violation with negative slack.
	eng.Schedule(eng.Now().Add(100*sim.Millisecond), func() {
		for i := 0; i < 1000; i++ {
			m.Observe(3 * sim.Millisecond)
		}
	})
	eng.Run(sim.Time(2 * sim.Second))
	if !last.Violation {
		t.Fatal("3ms vs 1ms QoS not flagged")
	}
	if last.Slack >= 0 {
		t.Fatalf("slack = %v, want negative", last.Slack)
	}
}

func TestEmptyIntervalIsNotViolation(t *testing.T) {
	eng := sim.NewEngine()
	var last Report
	newMonitor(t, eng, DefaultConfig(sim.Millisecond), func(r Report) { last = r })
	eng.Run(sim.Time(sim.Second))
	if last.Violation {
		t.Fatal("idle interval flagged as violation")
	}
	if last.Slack != 1 {
		t.Fatalf("idle slack = %v, want 1", last.Slack)
	}
	if last.Samples != 0 {
		t.Fatalf("idle samples = %d", last.Samples)
	}
}

func TestAdaptiveStrideConvergesToTarget(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(100 * sim.Millisecond) // QoS far away: no densification
	cfg.TargetSamples = 100
	var reports []Report
	m := newMonitor(t, eng, cfg, func(r Report) { reports = append(reports, r) })
	// 10k completions per interval at 1µs latency for 4 intervals.
	var tick sim.Ticker
	tick.Start(eng, 100*sim.Microsecond, func(sim.Time) { m.Observe(sim.Microsecond) })
	eng.Run(sim.Time(4 * sim.Second))
	tick.Stop()
	if len(reports) != 4 {
		t.Fatalf("%d reports", len(reports))
	}
	// First interval samples everything (stride 1); later intervals must
	// approach the target.
	first, last := reports[0], reports[len(reports)-1]
	if first.Samples < 9000 {
		t.Fatalf("first interval samples = %d, want ~10000 (stride 1)", first.Samples)
	}
	if last.Samples > 3*cfg.TargetSamples {
		t.Fatalf("adapted samples = %d, want near target %d", last.Samples, cfg.TargetSamples)
	}
	if m.Stride() <= 1 {
		t.Fatalf("stride = %d, want > 1 under heavy load", m.Stride())
	}
}

func TestDensificationNearBoundary(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(sim.Millisecond)
	cfg.TargetSamples = 50
	cfg.DenseFactor = 8
	m := newMonitor(t, eng, cfg, nil)
	// Heavy load with p99 right at QoS: stride should use the densified
	// target (400) rather than 50.
	var tick sim.Ticker
	tick.Start(eng, 100*sim.Microsecond, func(sim.Time) { m.Observe(sim.Millisecond) })
	eng.Run(sim.Time(3 * sim.Second))
	tick.Stop()
	// 10k/interval over target 400 → stride ~25; without densification it
	// would be ~200.
	if m.Stride() > 50 {
		t.Fatalf("stride = %d near boundary, want densified (~25)", m.Stride())
	}
	if m.Stride() <= 1 {
		t.Fatalf("stride = %d, want adapted above 1", m.Stride())
	}
}

func TestStopHaltsReports(t *testing.T) {
	eng := sim.NewEngine()
	count := 0
	m := newMonitor(t, eng, DefaultConfig(sim.Millisecond), func(Report) { count++ })
	eng.Schedule(sim.Time(2500*sim.Millisecond), func() { m.Stop() })
	eng.Run(sim.Time(10 * sim.Second))
	if count != 2 {
		t.Fatalf("reports after stop = %d, want 2", count)
	}
}

func TestSeenCountsUnsampled(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(100 * sim.Millisecond)
	cfg.TargetSamples = 10
	var reports []Report
	m := newMonitor(t, eng, cfg, func(r Report) { reports = append(reports, r) })
	var tick sim.Ticker
	tick.Start(eng, sim.Millisecond, func(sim.Time) { m.Observe(sim.Microsecond) })
	eng.Run(sim.Time(3 * sim.Second))
	tick.Stop()
	last := reports[len(reports)-1]
	if last.Seen < 900 {
		t.Fatalf("seen = %d, want ~1000", last.Seen)
	}
	if last.Samples > last.Seen {
		t.Fatal("sampled more than seen")
	}
}
