package workload

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
)

func TestSteadyShape(t *testing.T) {
	if m := (Steady{}).Multiplier(123); m != 1 {
		t.Fatalf("zero-value steady multiplier %v, want 1", m)
	}
	if m := (Steady{Level: 0.5}).Multiplier(0); m != 0.5 {
		t.Fatalf("steady multiplier %v, want 0.5", m)
	}
}

func TestDiurnalPhasePoints(t *testing.T) {
	d, err := NewDiurnal(0.3, 86400)
	if err != nil {
		t.Fatal(err)
	}
	// Known phase points of 1 + 0.3·sin(2πt/86400).
	cases := []struct{ t, want float64 }{
		{0, 1},               // mid-ramp
		{21600, 1.3},         // quarter period: peak
		{43200, 1},           // half period: mid-fall
		{64800, 0.7},         // three quarters: trough
		{86400, 1},           // full day wraps
		{86400 + 21600, 1.3}, // second day peak
	}
	for _, c := range cases {
		if got := d.Multiplier(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("diurnal(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if _, err := NewDiurnal(1.2, 100); err == nil {
		t.Fatal("amplitude ≥1 accepted")
	}
	if _, err := NewDiurnal(0.2, 0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewDiurnal(math.NaN(), 100); err == nil {
		t.Fatal("NaN amplitude accepted")
	}
	if _, err := NewDiurnal(0.2, math.NaN()); err == nil {
		t.Fatal("NaN period accepted")
	}
}

func TestFlashShape(t *testing.T) {
	// Transient flash crowd.
	f := Flash{Peak: 3, StartSec: 10, DurationSec: 5}
	for _, c := range []struct{ t, want float64 }{
		{0, 1}, {9.99, 1}, {10, 3}, {14.99, 3}, {15, 1}, {100, 1},
	} {
		if got := f.Multiplier(c.t); got != c.want {
			t.Errorf("flash(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Permanent step.
	s := Flash{Base: 0.8, Peak: 1.6, StartSec: 20}
	if s.Multiplier(19) != 0.8 || s.Multiplier(20) != 1.6 || s.Multiplier(1e6) != 1.6 {
		t.Fatal("permanent step wrong")
	}
	// The validating constructor rejects the silent-footgun configs —
	// including the zero base, which used to slip through and silently mean
	// 1.0 (the unconfigurable-zero class autoscale.Consolidate also had).
	if _, err := NewFlash(1, 0, 10, 5); err == nil {
		t.Fatal("zero peak accepted")
	}
	if _, err := NewFlash(-1, 2, 10, 5); err == nil {
		t.Fatal("negative base accepted")
	}
	if _, err := NewFlash(0, 2, 10, 5); err == nil {
		t.Fatal("zero base accepted by the constructor")
	}
	if _, err := NewFlash(1, 2, -1, 5); err == nil {
		t.Fatal("negative start accepted")
	}
	for _, args := range [][4]float64{
		{math.NaN(), 2, 10, 5}, {1, math.NaN(), 10, 5}, {1, 2, math.NaN(), 5}, {1, 2, 10, math.NaN()},
	} {
		if _, err := NewFlash(args[0], args[1], args[2], args[3]); err == nil {
			t.Fatalf("NewFlash%v accepted", args)
		}
	}
	if g, err := NewFlash(1, 2, 10, 5); err != nil || g.Multiplier(12) != 2 {
		t.Fatalf("valid flash rejected: %v %v", g, err)
	}
	// The zero-value literal's base resolves through the one explicit
	// place, BaseLevel.
	if (Flash{Peak: 2}).BaseLevel() != 1 || (Flash{Base: 0.5, Peak: 2}).BaseLevel() != 0.5 {
		t.Fatal("BaseLevel zero-value resolution wrong")
	}
}

func TestReplayShape(t *testing.T) {
	r, err := NewReplay([]float64{0, 10, 20}, []float64{1, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ t, want float64 }{
		{-5, 1}, {0, 1}, {5, 1}, {10, 2}, {19.9, 2}, {20, 0.5}, {1e4, 0.5},
	} {
		if got := r.Multiplier(c.t); got != c.want {
			t.Errorf("replay(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if _, err := NewReplay([]float64{5, 1}, []float64{1, 1}); err == nil {
		t.Fatal("unsorted times accepted")
	}
	if _, err := NewReplay([]float64{0}, []float64{-1}); err == nil {
		t.Fatal("negative multiplier accepted")
	}
	if _, err := NewReplay(nil, nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestReplayDuplicateInstants is the regression for the stale-sample bug:
// a trace revising its multiplier at one instant (two samples at the same
// time, as real exports emit) must apply the revision, not the first-written
// value SearchFloat64s lands on. NewReplay must accept such traces.
func TestReplayDuplicateInstants(t *testing.T) {
	r, err := NewReplay([]float64{0, 10, 10, 10, 20}, []float64{1, 2, 3, 4, 0.5})
	if err != nil {
		t.Fatalf("duplicate instants rejected: %v", err)
	}
	for _, c := range []struct{ t, want float64 }{
		{0, 1}, {9.9, 1},
		{10, 4}, // last sample at the duplicated instant wins
		{15, 4}, {19.9, 4}, {20, 0.5},
	} {
		if got := r.Multiplier(c.t); got != c.want {
			t.Errorf("replay(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestReplayMatchesLinearScan property-checks Multiplier against the obvious
// reference — a linear scan for the last sample at or before t — over random
// sorted, duplicate-bearing traces and probes on, between, before, and after
// the samples.
func TestReplayMatchesLinearScan(t *testing.T) {
	naive := func(r Replay, tSec float64) float64 {
		out := r.Mult[0]
		for i, ts := range r.TimesSec {
			if ts <= tSec {
				out = r.Mult[i]
			}
		}
		return out
	}
	rng := sim.NewRNG(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		times := make([]float64, n)
		mult := make([]float64, n)
		tcur := 0.0
		for i := range times {
			if i > 0 && rng.Bernoulli(0.3) {
				tcur = times[i-1] // duplicate instant
			} else {
				tcur += rng.Float64() * 10
			}
			times[i] = tcur
			mult[i] = 0.1 + rng.Float64()*3
		}
		r, err := NewReplay(times, mult)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		probes := []float64{times[0] - 1, times[n-1] + 1}
		for _, ts := range times {
			probes = append(probes, ts, ts-0.01, ts+0.01)
		}
		for i := 0; i < 10; i++ {
			probes = append(probes, rng.Float64()*(times[n-1]+2))
		}
		for _, p := range probes {
			if got, want := r.Multiplier(p), naive(r, p); got != want {
				t.Fatalf("trial %d: replay(%v) = %v, reference %v (times %v mult %v)",
					trial, p, got, want, times, mult)
			}
		}
	}
}

func TestShiftedShape(t *testing.T) {
	d, _ := NewDiurnal(0.3, 86400)
	s := Shifted{Inner: d, BySec: 21600}
	if got, want := s.Multiplier(0), d.Multiplier(21600); math.Abs(got-want) > 1e-12 {
		t.Fatalf("shifted(0) = %v, want %v", got, want)
	}
}

func TestShapedPoissonTracksShape(t *testing.T) {
	d, _ := NewDiurnal(0.5, 1000)
	p, err := NewShapedPoisson(100, d)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate() != 100 {
		t.Fatalf("base rate %v", p.Rate())
	}
	// Mean gap at the peak must be about a third of the gap at the trough
	// (rate 150 vs 50).
	meanGap := func(at sim.Time) float64 {
		rng := sim.NewRNG(7)
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += p.Next(rng, at).Seconds()
		}
		return sum / n
	}
	peak := meanGap(sim.Time(250) * sim.Time(sim.Second))
	trough := meanGap(sim.Time(750) * sim.Time(sim.Second))
	if ratio := trough / peak; ratio < 2.6 || ratio > 3.4 {
		t.Fatalf("trough/peak gap ratio %.2f, want ≈3", ratio)
	}
}

func TestShapedPoissonDeterministic(t *testing.T) {
	d, _ := NewDiurnal(0.4, 500)
	p, _ := NewShapedPoisson(80, d)
	draw := func(seed uint64) []sim.Duration {
		rng := sim.NewRNG(seed)
		now := sim.Time(0)
		out := make([]sim.Duration, 200)
		for i := range out {
			out[i] = p.Next(rng, now)
			now = now.Add(out[i])
		}
		return out
	}
	a, b, c := draw(1), draw(1), draw(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d differs under equal seeds", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical gap sequences")
	}
}

func TestShapedPoissonValidation(t *testing.T) {
	if _, err := NewShapedPoisson(0, Steady{}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewShapedPoisson(math.NaN(), Steady{}); err == nil {
		t.Fatal("NaN rate accepted")
	}
	if _, err := NewShapedPoisson(10, nil); err == nil {
		t.Fatal("nil shape accepted")
	}
	rng := sim.NewRNG(3)
	// A shape dipping to zero is clamped, not allowed to stall the client.
	z, _ := NewShapedPoisson(10, Flash{Base: 1, Peak: 0, StartSec: 0})
	if g := z.Next(rng, 0); g <= 0 {
		t.Fatal("clamped shape produced non-positive gap")
	}
}

// TestShapedPoissonNonPositiveRate pins the clamp of a degenerate shape:
// inside a Peak: 0 flash window the clamp floors the rate, and gaps stay
// finite, positive, and match the explicitly clamped rate's distribution.
// Degenerate base rates are TestDegenerateRateYieldsCap's.
func TestShapedPoissonNonPositiveRate(t *testing.T) {
	flash := Flash{Base: 1, Peak: 0, StartSec: 100, DurationSec: 50}
	p, err := NewShapedPoisson(10, flash)
	if err != nil {
		t.Fatal(err)
	}
	inWindow := sim.Time(120) * sim.Time(sim.Second)
	explicit := ShapedPoisson{BaseQPS: 10, Shape: Steady{Level: minMultiplier}}
	for seed := uint64(1); seed <= 5; seed++ {
		a, b := sim.NewRNG(seed), sim.NewRNG(seed)
		got, want := p.Next(a, inWindow), explicit.Next(b, 0)
		if got != want {
			t.Fatalf("seed %d: zero-peak window gap %v != clamped-rate gap %v", seed, got, want)
		}
		if got <= 0 || got > sim.DurationOf(maxGapSec) {
			t.Fatalf("seed %d: gap %v outside (0, cap]", seed, got)
		}
	}
}
