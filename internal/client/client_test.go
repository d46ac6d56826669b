package client

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

func testService(eng *sim.Engine, onLat func(sim.Duration)) *service.Instance {
	cfg := service.Config{
		Name:            "t",
		QoS:             sim.Millisecond,
		Demand:          workload.Constant(10e-6),
		WorkersPerCore:  1,
		ContentionShare: 1,
		MaxBacklog:      sim.Second,
	}
	svc, err := service.New(eng, sim.NewRNG(2), cfg, 4, onLat)
	if err != nil {
		panic(err)
	}
	return svc
}

// newGenerator returns a generator initialised on eng.
func newGenerator(t *testing.T, eng *sim.Engine, rng *sim.RNG, svc *service.Instance, arrival workload.ArrivalProcess) *Generator {
	t.Helper()
	g := &Generator{}
	if err := g.Init(eng, rng, svc, arrival); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestInitValidation re-initialises a running generator with each bad
// input: every one is refused and leaves the generator as it was.
func TestInitValidation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	svc := testService(eng, nil)
	g := newGenerator(t, eng, rng, svc, workload.Uniform{QPS: 10})
	g.Start()
	eng.Run(sim.Time(sim.Second))
	before := *g
	for name, init := range map[string]func() error{
		"nil engine":        func() error { return g.Init(nil, rng, svc, workload.Uniform{QPS: 10}) },
		"nil rng":           func() error { return g.Init(eng, nil, svc, workload.Uniform{QPS: 10}) },
		"nil service":       func() error { return g.Init(eng, rng, nil, workload.Uniform{QPS: 10}) },
		"nil arrival":       func() error { return g.Init(eng, rng, svc, nil) },
		"zero-rate arrival": func() error { return g.Init(eng, rng, svc, workload.Uniform{QPS: 0}) },
	} {
		if err := init(); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if *g != before {
			t.Fatalf("%s: refused Init changed the generator to %+v, want %+v", name, *g, before)
		}
	}
}

func TestGeneratorOffersConfiguredLoad(t *testing.T) {
	eng := sim.NewEngine()
	served := 0
	svc := testService(eng, func(sim.Duration) { served++ })
	gen := newGenerator(t, eng, sim.NewRNG(3), svc, workload.Uniform{QPS: 1000})
	gen.Start()
	eng.Run(sim.Time(2 * sim.Second))
	// Uniform 1000 QPS for 2 seconds: 2000 arrivals (±1 boundary effect).
	if math.Abs(float64(gen.Sent())-2000) > 2 {
		t.Fatalf("sent = %d, want ~2000", gen.Sent())
	}
	if served < 1990 {
		t.Fatalf("served = %d, want ~2000", served)
	}
	if gen.Rate() != 1000 {
		t.Fatalf("Rate = %v", gen.Rate())
	}
}

func TestPoissonLoadApproximatesRate(t *testing.T) {
	eng := sim.NewEngine()
	svc := testService(eng, nil)
	arr, _ := workload.NewPoisson(5000)
	gen := newGenerator(t, eng, sim.NewRNG(4), svc, arr)
	gen.Start()
	eng.Run(sim.Time(4 * sim.Second))
	want := 20000.0
	got := float64(gen.Sent())
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("sent = %v, want ~%v", got, want)
	}
}

func TestStopHaltsArrivals(t *testing.T) {
	eng := sim.NewEngine()
	svc := testService(eng, nil)
	gen := newGenerator(t, eng, sim.NewRNG(5), svc, workload.Uniform{QPS: 1000})
	gen.Start()
	eng.Schedule(sim.Time(sim.Second), func() { gen.Stop() })
	eng.Run(sim.Time(5 * sim.Second))
	if math.Abs(float64(gen.Sent())-1000) > 2 {
		t.Fatalf("sent = %d after stop at 1s, want ~1000", gen.Sent())
	}
}

func TestStartIsIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	svc := testService(eng, nil)
	gen := newGenerator(t, eng, sim.NewRNG(6), svc, workload.Uniform{QPS: 100})
	gen.Start()
	gen.Start() // must not double the offered load
	eng.Run(sim.Time(sim.Second))
	if math.Abs(float64(gen.Sent())-100) > 2 {
		t.Fatalf("sent = %d, want ~100 (double-start doubled load?)", gen.Sent())
	}
}
