package service

import (
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/stats"
	"github.com/approx-sched/pliant/internal/workload"
)

func testConfig() Config {
	return Config{
		Name:            "test",
		QoS:             1 * sim.Millisecond,
		Demand:          workload.Constant(100e-6), // 100us deterministic
		WorkersPerCore:  1,
		ContentionShare: 1.0,
		MaxBacklog:      100 * sim.Millisecond, // 1000 requests per core at 100µs
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"no name":      func(c *Config) { c.Name = "" },
		"zero qos":     func(c *Config) { c.QoS = 0 },
		"nil demand":   func(c *Config) { c.Demand = nil },
		"zero workers": func(c *Config) { c.WorkersPerCore = 0 },
		"share > 1":    func(c *Config) { c.ContentionShare = 1.5 },
		"share < 0":    func(c *Config) { c.ContentionShare = -0.1 },
		"zero cap":     func(c *Config) { c.MaxBacklog = 0 },
	}
	for name, mutate := range cases {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", name)
		}
	}
}

func TestNewValidates(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	if _, err := New(eng, rng, testConfig(), 0, nil); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad := testConfig()
	bad.MaxBacklog = 0
	if _, err := New(eng, rng, bad, 2, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSingleRequestLatencyEqualsDemand(t *testing.T) {
	eng := sim.NewEngine()
	var lat sim.Duration
	svc, err := New(eng, sim.NewRNG(1), testConfig(), 2, func(d sim.Duration) { lat = d })
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(0, func() { svc.Arrive() })
	eng.Run(sim.Forever)
	if lat != 100*sim.Microsecond {
		t.Fatalf("latency = %v, want 100µs", lat)
	}
	if svc.Served() != 1 {
		t.Fatalf("served = %d", svc.Served())
	}
}

func TestQueueingWhenAllWorkersBusy(t *testing.T) {
	eng := sim.NewEngine()
	var lats []sim.Duration
	svc, _ := New(eng, sim.NewRNG(1), testConfig(), 1, func(d sim.Duration) { lats = append(lats, d) })
	// Two simultaneous arrivals on one worker: second waits for the first.
	eng.Schedule(0, func() { svc.Arrive(); svc.Arrive() })
	eng.Run(sim.Forever)
	if len(lats) != 2 {
		t.Fatalf("completed %d, want 2", len(lats))
	}
	if lats[0] != 100*sim.Microsecond || lats[1] != 200*sim.Microsecond {
		t.Fatalf("latencies = %v, want [100µs 200µs]", lats)
	}
}

func TestSlowdownInflatesService(t *testing.T) {
	eng := sim.NewEngine()
	var lat sim.Duration
	svc, _ := New(eng, sim.NewRNG(1), testConfig(), 1, func(d sim.Duration) { lat = d })
	svc.SetSlowdown(2.0)
	eng.Schedule(0, func() { svc.Arrive() })
	eng.Run(sim.Forever)
	if lat != 200*sim.Microsecond {
		t.Fatalf("latency = %v, want 200µs under 2x slowdown", lat)
	}
	// Slowdown below 1 clamps to 1.
	svc.SetSlowdown(0.5)
	if svc.Slowdown() != 1.0 {
		t.Fatalf("Slowdown clamped to %v, want 1.0", svc.Slowdown())
	}
}

func TestContentionShareLimitsInflation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.ContentionShare = 0.4 // only 40% of demand inflates
	var lat sim.Duration
	svc, _ := New(eng, sim.NewRNG(1), cfg, 1, func(d sim.Duration) { lat = d })
	svc.SetSlowdown(2.0)
	eng.Schedule(0, func() { svc.Arrive() })
	eng.Run(sim.Forever)
	// 100us * (0.6 + 0.4*2) = 140us.
	if lat != 140*sim.Microsecond {
		t.Fatalf("latency = %v, want 140µs", lat)
	}
}

func TestSetCoresDrainsQueue(t *testing.T) {
	eng := sim.NewEngine()
	done := 0
	svc, _ := New(eng, sim.NewRNG(1), testConfig(), 1, func(sim.Duration) { done++ })
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			svc.Arrive()
		}
		if svc.QueueLen() != 3 {
			t.Errorf("queue = %d, want 3", svc.QueueLen())
		}
		svc.SetCores(4)
		if svc.QueueLen() != 0 {
			t.Errorf("queue = %d after adding cores, want 0", svc.QueueLen())
		}
	})
	eng.Run(sim.Forever)
	if done != 4 {
		t.Fatalf("completed %d, want 4", done)
	}
}

func TestSetCoresFloorsAtOne(t *testing.T) {
	eng := sim.NewEngine()
	svc, _ := New(eng, sim.NewRNG(1), testConfig(), 2, nil)
	svc.SetCores(0)
	if svc.Cores() != 1 {
		t.Fatalf("Cores = %d, want floor of 1", svc.Cores())
	}
}

func TestQueueCapDropsAndAccounts(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.MaxBacklog = 500 * sim.Microsecond // 5 requests on one core
	var lats []sim.Duration
	svc, _ := New(eng, sim.NewRNG(1), cfg, 1, func(d sim.Duration) { lats = append(lats, d) })
	eng.Schedule(0, func() {
		for i := 0; i < 10; i++ { // 1 in service, 5 queued, 4 dropped
			svc.Arrive()
		}
	})
	eng.Run(sim.Forever)
	if svc.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", svc.Dropped())
	}
	if svc.Served() != 6 {
		t.Fatalf("served = %d, want 6", svc.Served())
	}
	// All 10 requests produced a latency observation (drops use estimates).
	if len(lats) != 10 {
		t.Fatalf("latency observations = %d, want 10", len(lats))
	}
}

func TestWorkersPerCoreMultiplexing(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.WorkersPerCore = 4
	done := 0
	svc, _ := New(eng, sim.NewRNG(1), cfg, 1, func(sim.Duration) { done++ })
	eng.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			svc.Arrive()
		}
		if svc.QueueLen() != 0 {
			t.Errorf("queue = %d, want 0 with 4 workers", svc.QueueLen())
		}
	})
	eng.Run(sim.Forever)
	if done != 4 {
		t.Fatalf("completed %d", done)
	}
}

func TestScaledPreservesUtilization(t *testing.T) {
	cfg := testConfig()
	scaled := cfg.Scaled(10)
	if scaled.QoS != 10*sim.Millisecond {
		t.Fatalf("scaled QoS = %v", scaled.QoS)
	}
	if scaled.MaxBacklog != sim.Second {
		t.Fatalf("scaled MaxBacklog = %v", scaled.MaxBacklog)
	}
	if got, want := scaled.Demand.Mean(), cfg.Demand.Mean()*10; got != want {
		t.Fatalf("scaled demand mean = %v, want %v", got, want)
	}
	// Saturation QPS scales down by 10x; utilization at scaled rate matches.
	if got, want := scaled.SaturationQPS(4), cfg.SaturationQPS(4)/10; got != want {
		t.Fatalf("scaled saturation = %v, want %v", got, want)
	}
}

func TestSaturationQPS(t *testing.T) {
	cfg := testConfig() // 100us constant demand
	if got := cfg.SaturationQPS(1); got != 10000 {
		t.Fatalf("SaturationQPS(1) = %v, want 10000", got)
	}
	if got := cfg.SaturationQPS(8); got != 80000 {
		t.Fatalf("SaturationQPS(8) = %v, want 80000", got)
	}
}

func TestDemandReportsPressure(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.LLCMB = 12
	cfg.BWPerCoreGBs = 1.5
	svc, _ := New(eng, sim.NewRNG(1), cfg, 4, nil)
	d := svc.Demand("svc")
	if d.Tenant != "svc" {
		t.Fatalf("tenant = %s", d.Tenant)
	}
	if d.LLCMB != 12 {
		t.Fatalf("LLCMB = %v", d.LLCMB)
	}
	if d.MemBWGBs != 6 {
		t.Fatalf("MemBWGBs = %v, want 1.5*4", d.MemBWGBs)
	}
}

func TestPresetsValidateAndMatchPaper(t *testing.T) {
	for _, c := range Classes() {
		cfg := Preset(c)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%v preset invalid: %v", c, err)
		}
	}
	if QoSOf(NGINX) != 10*sim.Millisecond {
		t.Errorf("NGINX QoS = %v, want 10ms", QoSOf(NGINX))
	}
	if QoSOf(Memcached) != 200*sim.Microsecond {
		t.Errorf("memcached QoS = %v, want 200µs", QoSOf(Memcached))
	}
	if QoSOf(MongoDB) != 100*sim.Millisecond {
		t.Errorf("MongoDB QoS = %v, want 100ms", QoSOf(MongoDB))
	}
	if NGINX.String() != "nginx" || Memcached.String() != "memcached" || MongoDB.String() != "mongodb" {
		t.Error("class names do not match the paper's labels")
	}
}

func TestPresetSaturationScale(t *testing.T) {
	// Paper Fig. 8 sweeps: NGINX to 700K QPS, memcached to 600K, MongoDB to
	// 400 QPS. At the fair 8-core share saturation should be near those
	// upper labels.
	nginx := Preset(NGINX).SaturationQPS(8)
	if nginx < 600e3 || nginx > 850e3 {
		t.Errorf("nginx saturation = %.0f, want ~700K", nginx)
	}
	// The heavy-tailed demand calibration (which pins the isolated p99 near
	// the strict 200µs QoS) puts saturation near 410K; the paper's axis
	// reaches 600K.
	mc := Preset(Memcached).SaturationQPS(8)
	if mc < 350e3 || mc > 650e3 {
		t.Errorf("memcached saturation = %.0f, want 400-600K", mc)
	}
	mongo := Preset(MongoDB).SaturationQPS(8)
	if mongo < 250 || mongo > 650 {
		t.Errorf("mongodb saturation = %.0f, want ~400", mongo)
	}
}

// runIsolated drives the service at the given fraction of its 8-core
// saturation for the given duration and returns the p99 latency.
func runIsolated(t *testing.T, cls Class, loadFrac, slowdown float64, dur sim.Duration) sim.Duration {
	t.Helper()
	eng := sim.NewEngine()
	rng := sim.NewRNG(1234)
	hist := stats.NewLatencyHistogram()
	cfg := Preset(cls)
	svc, err := New(eng, rng.Split(1), cfg, 8, func(d sim.Duration) {
		hist.Record(float64(d))
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetSlowdown(slowdown)
	qps := cfg.SaturationQPS(8) * loadFrac
	arr, err := workload.NewPoisson(qps)
	if err != nil {
		t.Fatal(err)
	}
	// Inline generator to avoid importing client (cycle-free but keeps the
	// test self-contained).
	var nextArrival func()
	nextArrival = func() {
		svc.Arrive()
		eng.After(arr.Next(rng, eng.Now()), nextArrival)
	}
	eng.After(arr.Next(rng, eng.Now()), nextArrival)
	eng.Run(sim.Time(dur))
	return sim.Duration(hist.P99())
}

func TestIsolatedServicesMeetQoSAtPaperLoad(t *testing.T) {
	// Paper Sec. 5: services run at 75–80% of saturation and meet QoS in
	// isolation (QoS is defined from the isolated latency-throughput curve).
	for _, cls := range Classes() {
		p99 := runIsolated(t, cls, 0.78, 1.0, 3*sim.Second)
		if qos := QoSOf(cls); p99 > qos {
			t.Errorf("%v isolated at 78%%: p99 %v exceeds QoS %v", cls, p99, qos)
		}
	}
}

func TestContentionCausesQoSViolation(t *testing.T) {
	// A sustained ~1.35x inflation at 78% load must blow through QoS for the
	// CPU-bound services (the paper's precise-mode violations).
	for _, cls := range []Class{NGINX, Memcached} {
		p99 := runIsolated(t, cls, 0.78, 1.35, 3*sim.Second)
		if qos := QoSOf(cls); p99 <= qos {
			t.Errorf("%v under 1.35x contention: p99 %v did not violate QoS %v", cls, p99, qos)
		}
	}
}

func TestMongoDBTolerantToModestContention(t *testing.T) {
	// MongoDB's disk-dominated requests shield it from modest contention
	// (paper: "the I/O-bound MongoDB needs no additional cores ... in many
	// cases").
	p99 := runIsolated(t, MongoDB, 0.75, 1.15, 4*sim.Second)
	if qos := QoSOf(MongoDB); p99 > qos {
		t.Errorf("mongodb under 1.15x contention: p99 %v exceeds QoS %v", p99, qos)
	}
}
