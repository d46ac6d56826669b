package workload

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
)

func TestConstant(t *testing.T) {
	c := Constant(5)
	rng := sim.NewRNG(1)
	if c.Sample(rng) != 5 || c.Mean() != 5 {
		t.Fatal("Constant misbehaves")
	}
}

func TestLogNormalMeanAndMedian(t *testing.T) {
	l := NewLogNormal(100, 0.5)
	wantMean := 100 * math.Exp(0.125)
	if math.Abs(l.Mean()-wantMean) > 1e-9 {
		t.Fatalf("analytic mean %v, want %v", l.Mean(), wantMean)
	}
	rng := sim.NewRNG(3)
	const n = 100000
	below, sum := 0, 0.0
	for i := 0; i < n; i++ {
		v := l.Sample(rng)
		if v < 100 {
			below++
		}
		sum += v
	}
	if frac := float64(below) / n; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("median fraction %v, want ~0.5", frac)
	}
	if got := sum / n; math.Abs(got-wantMean)/wantMean > 0.02 {
		t.Fatalf("empirical mean %v, want ~%v", got, wantMean)
	}
}

// TestScaleMatchesReference pins the demand samplers bit for bit: a
// log-normal built once by NewLogNormal and scaled in place by Scale draws
// exactly rng.LogNormal(log m, σ)·f and reports the mean (m·e^{σ²/2})·f, and
// a scaled Bimodal draws its component's value times f. The pairs are the
// service presets' (median, sigma), f spans the time scales in use, and the
// bimodal is MongoDB's.
func TestScaleMatchesReference(t *testing.T) {
	pairs := []struct{ m, sigma float64 }{{8e-6, 0.8}, {10e-6, 1.15}, {2e-3, 0.5}, {33e-3, 0.4}}
	for _, f := range []float64{1, 16, 1024} {
		for _, p := range pairs {
			s := Scale(NewLogNormal(p.m, p.sigma), f)
			if got, want := s.Mean(), p.m*math.Exp(p.sigma*p.sigma/2)*f; got != want {
				t.Errorf("(%v, %v)×%v: mean %v, want %v", p.m, p.sigma, f, got, want)
			}
			a, b := sim.NewRNG(5), sim.NewRNG(5)
			for i := 0; i < 1000; i++ {
				if got, want := s.Sample(a), b.LogNormal(math.Log(p.m), p.sigma)*f; got != want {
					t.Fatalf("(%v, %v)×%v draw %d: %v, want %v", p.m, p.sigma, f, i, got, want)
				}
			}
		}

		const pHeavy = 0.55
		light, heavy := pairs[2], pairs[3]
		s := Scale(Bimodal{Light: NewLogNormal(light.m, light.sigma), Heavy: NewLogNormal(heavy.m, heavy.sigma), PHeavy: pHeavy}, f)
		meanL := light.m * math.Exp(light.sigma*light.sigma/2)
		meanH := heavy.m * math.Exp(heavy.sigma*heavy.sigma/2)
		if got, want := s.Mean(), ((1-pHeavy)*meanL+pHeavy*meanH)*f; got != want {
			t.Errorf("bimodal×%v: mean %v, want %v", f, got, want)
		}
		a, b := sim.NewRNG(6), sim.NewRNG(6)
		for i := 0; i < 1000; i++ {
			var want float64
			if b.Bernoulli(pHeavy) {
				want = b.LogNormal(math.Log(heavy.m), heavy.sigma)
			} else {
				want = b.LogNormal(math.Log(light.m), light.sigma)
			}
			if got := s.Sample(a); got != want*f {
				t.Fatalf("bimodal×%v draw %d: %v, want %v", f, i, got, want*f)
			}
		}
	}
}

func TestBimodal(t *testing.T) {
	b := Bimodal{Light: Constant(1), Heavy: Constant(100), PHeavy: 0.1}
	if want := 0.9*1 + 0.1*100; math.Abs(b.Mean()-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", b.Mean(), want)
	}
	rng := sim.NewRNG(4)
	heavy := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if b.Sample(rng) == 100 {
			heavy++
		}
	}
	if frac := float64(heavy) / n; math.Abs(frac-0.1) > 0.005 {
		t.Fatalf("heavy fraction %v, want ~0.1", frac)
	}
}

func TestPoissonRateAndPositivity(t *testing.T) {
	p, err := NewPoisson(1000)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate() != 1000 {
		t.Fatalf("Rate = %v", p.Rate())
	}
	rng := sim.NewRNG(7)
	var total sim.Duration
	const n = 100000
	for i := 0; i < n; i++ {
		gap := p.Next(rng, 0)
		if gap <= 0 {
			t.Fatal("non-positive gap")
		}
		total += gap
	}
	meanGap := total.Seconds() / n
	if math.Abs(meanGap-0.001)/0.001 > 0.02 {
		t.Fatalf("mean gap %v, want ~1ms", meanGap)
	}
}

func TestPoissonValidation(t *testing.T) {
	if _, err := NewPoisson(0); err == nil {
		t.Fatal("NewPoisson(0) succeeded")
	}
	if _, err := NewPoisson(-5); err == nil {
		t.Fatal("NewPoisson(-5) succeeded")
	}
	if _, err := NewPoisson(math.NaN()); err == nil {
		t.Fatal("NewPoisson(NaN) succeeded")
	}
}

func TestUniformArrivals(t *testing.T) {
	u := Uniform{QPS: 100}
	if u.Rate() != 100 {
		t.Fatal("Rate wrong")
	}
	rng := sim.NewRNG(8)
	want := sim.DurationOf(0.01)
	for i := 0; i < 10; i++ {
		if got := u.Next(rng, 0); got != want {
			t.Fatalf("gap = %v, want %v", got, want)
		}
	}
}

// TestDegenerateRateYieldsCap pins the arrival processes' guard against a
// zero, negative or NaN rate in a literal that bypassed its constructor:
// every one yields the finite far-future cap, never the 1ns arrival storm an
// overflowed DurationOf turned into.
func TestDegenerateRateYieldsCap(t *testing.T) {
	for _, qps := range []float64{0, -1, math.NaN()} {
		for _, p := range []ArrivalProcess{
			Poisson{QPS: qps},
			Uniform{QPS: qps},
			ShapedPoisson{BaseQPS: qps, Shape: Steady{}},
		} {
			if g := p.Next(sim.NewRNG(7), 0); g != sim.DurationOf(maxGapSec) {
				t.Errorf("%T at qps %v: gap %v, want the finite cap %v", p, qps, g, sim.DurationOf(maxGapSec))
			}
		}
	}
}
