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

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	svc := testService(eng, nil)
	if _, err := New(nil, rng, svc, workload.Uniform{QPS: 10}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(eng, nil, svc, workload.Uniform{QPS: 10}); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := New(eng, rng, nil, workload.Uniform{QPS: 10}); err == nil {
		t.Fatal("nil service accepted")
	}
	if _, err := New(eng, rng, svc, nil); err == nil {
		t.Fatal("nil arrival accepted")
	}
	if _, err := New(eng, rng, svc, workload.Uniform{QPS: 0}); err == nil {
		t.Fatal("zero-rate arrival accepted")
	}
}

func TestGeneratorOffersConfiguredLoad(t *testing.T) {
	eng := sim.NewEngine()
	served := 0
	svc := testService(eng, func(sim.Duration) { served++ })
	gen, err := New(eng, sim.NewRNG(3), svc, workload.Uniform{QPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
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
	gen, _ := New(eng, sim.NewRNG(4), svc, arr)
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
	gen, _ := New(eng, sim.NewRNG(5), svc, workload.Uniform{QPS: 1000})
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
	gen, _ := New(eng, sim.NewRNG(6), svc, workload.Uniform{QPS: 100})
	gen.Start()
	gen.Start() // must not double the offered load
	eng.Run(sim.Time(sim.Second))
	if math.Abs(float64(gen.Sent())-100) > 2 {
		t.Fatalf("sent = %d, want ~100 (double-start doubled load?)", gen.Sent())
	}
}
