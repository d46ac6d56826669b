package app

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/approx-sched/pliant/internal/approx"
	"github.com/approx-sched/pliant/internal/sim"
)

func testProfile() Profile {
	return Profile{
		Name: "test-app", Suite: PARSEC,
		NominalExecSec: 10, ParallelExp: 1.0,
		LLCMB: 40, BWPerCoreGBs: 2,
		MaxVariants: 4,
		DynOverhead: 0.04,
		Sites: []approx.Site{{
			Name: "loop", Technique: approx.LoopPerforation,
			RuntimeShare: 0.5, TrafficShare: 0.5, UsefulFrac: 0.5,
			QualityCoef: 0.1, QualityExp: 1.0,
		}},
		QualityMetric: "test metric",
	}
}

func testVariants() []approx.Effect {
	return []approx.Effect{
		approx.Precise(),
		{TimeScale: 0.8, TrafficScale: 0.8, Inaccuracy: 1.0},
		{TimeScale: 0.5, TrafficScale: 0.5, Inaccuracy: 4.0},
	}
}

func newTestInstance(t *testing.T, eng *sim.Engine, cores int) *Instance {
	t.Helper()
	a, err := NewInstance(eng, sim.NewRNG(7), testProfile(), testVariants(), cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// near asserts a duration within a small tolerance: progress integration is
// floating-point, so nanosecond exactness is not meaningful.
func near(t *testing.T, got, want sim.Duration) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 5*sim.Millisecond {
		t.Fatalf("duration = %v, want ~%v", got, want)
	}
}

func TestProfileValidate(t *testing.T) {
	if err := testProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Profile){
		"no name":       func(p *Profile) { p.Name = "" },
		"zero exec":     func(p *Profile) { p.NominalExecSec = 0 },
		"bad parexp":    func(p *Profile) { p.ParallelExp = 1.5 },
		"neg llc":       func(p *Profile) { p.LLCMB = -1 },
		"no sites":      func(p *Profile) { p.Sites = nil },
		"huge overhead": func(p *Profile) { p.DynOverhead = 0.5 },
		"bad phase":     func(p *Profile) { p.PhaseAmp = 1.2 },
		"amp no period": func(p *Profile) { p.PhaseAmp = 0.2; p.PhasePeriodSec = 0 },
	}
	for name, mutate := range cases {
		p := testProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCatalogValidatesAndCounts(t *testing.T) {
	cat := Catalog()
	if len(cat) != 24 {
		t.Fatalf("catalog has %d apps, paper uses 24", len(cat))
	}
	seen := map[string]bool{}
	for _, p := range cat {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate app %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestCatalogSuiteComposition(t *testing.T) {
	// Paper Sec. 5: 3 PARSEC, 3 SPLASH-2, 10 MineBench, 8 BioPerf.
	want := map[Suite]int{PARSEC: 3, SPLASH2: 3, MineBench: 10, BioPerf: 8}
	for suite, n := range want {
		if got := len(BySuite(suite)); got != n {
			t.Errorf("%v: %d apps, want %d", suite, got, n)
		}
	}
	if SPLASH2.String() != "SPLASH-2" || MineBench.String() != "MineBench" {
		t.Error("suite names wrong")
	}
}

func TestByNameAndNames(t *testing.T) {
	p, err := ByName("canneal")
	if err != nil || p.Name != "canneal" {
		t.Fatalf("ByName(canneal) = %v, %v", p.Name, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown app accepted")
	}
	names := Names()
	if len(names) != 24 || names[0] != "fluidanimate" {
		t.Fatalf("Names() = %v", names[:3])
	}
}

// scribble overwrites fields of p and of its first site, so a lookup that
// shared storage with the catalog would see the change.
func scribble(p *Profile) {
	p.Name += "-edited"
	p.NominalExecSec *= 3
	p.LLCMB = -1
	p.Sensitivity.LLC = 9
	p.MaxVariants = 99
	p.QualityMetric = "edited"
	p.Sites[0].Name = "edited_loop"
	p.Sites[0].QualityCoef = 42
}

func TestLookupsReturnPrivateCopies(t *testing.T) {
	want, err := ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	want = want.clone()

	got, _ := ByName("canneal")
	scribble(&got)
	for _, p := range Catalog() {
		scribble(&p)
	}
	cat := Catalog()
	scribble(&cat[1])
	for _, p := range BySuite(PARSEC) {
		scribble(&p)
	}
	for _, p := range SortedByPressure() {
		scribble(&p)
	}

	again, err := ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	if !again.equal(want) {
		t.Fatalf("ByName after mutation = %+v, want %+v", again, want)
	}
	if fresh := Catalog()[1]; !fresh.equal(want) {
		t.Fatalf("Catalog()[1] after mutation = %+v, want %+v", fresh, want)
	}
	if !IsCatalog(again) {
		t.Fatal("unmodified lookup is not recognized as the catalog profile")
	}
}

func TestByNameAllocatesOnlyTheSitesCopy(t *testing.T) {
	var sink Profile
	avg := testing.AllocsPerRun(1000, func() {
		sink, _ = ByName("streamcluster")
	})
	if avg > 1 {
		t.Fatalf("ByName allocates %.1f times per call, want at most 1", avg)
	}
	if sink.Name != "streamcluster" {
		t.Fatal(sink.Name)
	}
}

// TestIsCatalogSeesEveryField changes one field at a time, through
// reflection, so a field added to Profile but missing from equal fails here.
func TestIsCatalogSeesEveryField(t *testing.T) {
	base, _ := ByName("SNP")
	if !IsCatalog(base) {
		t.Fatal("catalog profile not recognized")
	}
	if IsCatalog(testProfile()) {
		t.Fatal("a profile outside the catalog is recognized")
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		p := base.clone()
		f := reflect.ValueOf(&p).Elem().Field(i)
		if !perturb(f) {
			t.Fatalf("test cannot perturb field %s of kind %v", typ.Field(i).Name, f.Kind())
		}
		if IsCatalog(p) {
			t.Errorf("IsCatalog ignores a change to %s", typ.Field(i).Name)
		}
		if !IsCatalog(base) {
			t.Fatalf("perturbing %s reached the catalog", typ.Field(i).Name)
		}
	}
}

// perturb changes v in place, recursing into the first field of a struct and
// the first element of a slice; it reports whether it knew how.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.Struct:
		return perturb(v.Field(0))
	case reflect.Slice:
		return v.Len() > 0 && perturb(v.Index(0))
	default:
		return false
	}
	return true
}

func TestEffectReadsTheVariantTable(t *testing.T) {
	a := newTestInstance(t, sim.NewEngine(), 8)
	want := testVariants()
	for i := 0; i <= a.MostApproximate(); i++ {
		if a.Effect(i) != want[i] {
			t.Fatalf("Effect(%d) = %+v, want %+v", i, a.Effect(i), want[i])
		}
	}
}

func TestSortedByPressure(t *testing.T) {
	sorted := SortedByPressure()
	if len(sorted) != 24 {
		t.Fatal("wrong length")
	}
	for i := 1; i < len(sorted); i++ {
		pi := sorted[i-1].LLCMB + 8*sorted[i-1].BWPerCoreGBs
		pj := sorted[i].LLCMB + 8*sorted[i].BWPerCoreGBs
		if pi < pj {
			t.Fatal("not sorted by pressure")
		}
	}
}

func TestExecTimeOnScaling(t *testing.T) {
	p := testProfile() // ParallelExp 1: perfect scaling
	if got := p.ExecTimeOn(ReferenceCores); got != 10 {
		t.Fatalf("ExecTimeOn(8) = %v, want 10", got)
	}
	if got := p.ExecTimeOn(4); got != 20 {
		t.Fatalf("ExecTimeOn(4) = %v, want 20", got)
	}
	p.ParallelExp = 0.5
	if got := p.ExecTimeOn(2); math.Abs(got-20) > 1e-9 {
		t.Fatalf("sublinear ExecTimeOn(2) = %v, want 20", got)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(1)
	prof := testProfile()
	if _, err := NewInstance(eng, rng, prof, nil, 4, nil); err == nil {
		t.Fatal("empty variants accepted")
	}
	if _, err := NewInstance(eng, rng, prof, []approx.Effect{{TimeScale: 0.5}}, 4, nil); err == nil {
		t.Fatal("non-precise first variant accepted")
	}
	unordered := []approx.Effect{approx.Precise(), {TimeScale: 0.5, TrafficScale: 1, Inaccuracy: 4}, {TimeScale: 0.7, TrafficScale: 1, Inaccuracy: 1}}
	if _, err := NewInstance(eng, rng, prof, unordered, 4, nil); err == nil {
		t.Fatal("unordered variants accepted")
	}
	if _, err := NewInstance(eng, rng, prof, testVariants(), 0, nil); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestPreciseRunFinishesOnTime(t *testing.T) {
	eng := sim.NewEngine()
	finished := false
	a, err := NewInstance(eng, sim.NewRNG(7), testProfile(), testVariants(), ReferenceCores,
		func() { finished = true })
	if err != nil {
		t.Fatal(err)
	}
	// Advance in steps to 10s: app should finish exactly at nominal time.
	for s := 1; s <= 10; s++ {
		eng.Schedule(sim.Time(s)*sim.Time(sim.Second), func() { a.Advance(eng.Now()) })
	}
	eng.Run(sim.Forever)
	if !finished || !a.Done() {
		t.Fatal("app did not finish")
	}
	near(t, a.ExecTime(), 10*sim.Second)
	if a.Inaccuracy() != 0 {
		t.Fatalf("precise run inaccuracy = %v", a.Inaccuracy())
	}
	if math.Abs(a.RelativeExecTime()-1.0) > 1e-9 {
		t.Fatalf("RelativeExecTime = %v", a.RelativeExecTime())
	}
}

func TestApproximateRunIsFasterAndInaccurate(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, ReferenceCores)
	a.SetVariant(2) // TimeScale 0.5, Inaccuracy 4%
	stop := eng.Ticker(100*sim.Millisecond, func(now sim.Time) { a.Advance(now) })
	eng.Run(sim.Time(20 * sim.Second))
	stop()
	if !a.Done() {
		t.Fatal("app did not finish")
	}
	near(t, a.ExecTime(), 5*sim.Second)
	if got := a.Inaccuracy(); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("Inaccuracy = %v, want 4.0 (whole run at variant 2)", got)
	}
}

func TestMixedVariantInaccuracyIsWorkWeighted(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, ReferenceCores)
	// Run half the work precise, half at variant 2 (4% loss): final loss 2%.
	eng.Schedule(sim.Time(5*sim.Second), func() {
		a.Advance(eng.Now())
		if math.Abs(a.Progress()-0.5) > 1e-9 {
			t.Errorf("progress = %v at 5s, want 0.5", a.Progress())
		}
		a.SetVariant(2)
	})
	stop := eng.Ticker(250*sim.Millisecond, func(now sim.Time) { a.Advance(now) })
	eng.Run(sim.Time(20 * sim.Second))
	stop()
	if !a.Done() {
		t.Fatal("not done")
	}
	if got := a.Inaccuracy(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("Inaccuracy = %v, want 2.0", got)
	}
	// 5s precise + 2.5s at half-time-scale: 7.5s total.
	near(t, a.ExecTime(), 7500*sim.Millisecond)
}

func TestFewerCoresSlowProgress(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, 4) // half of reference: 2x time at ParallelExp 1
	stop := eng.Ticker(sim.Second, func(now sim.Time) { a.Advance(now) })
	eng.Run(sim.Time(30 * sim.Second))
	stop()
	near(t, a.ExecTime(), 20*sim.Second)
}

func TestSlowdownDilatesExecution(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, ReferenceCores)
	a.SetSlowdown(2.0)
	stop := eng.Ticker(sim.Second, func(now sim.Time) { a.Advance(now) })
	eng.Run(sim.Time(30 * sim.Second))
	stop()
	near(t, a.ExecTime(), 20*sim.Second)
}

func TestInstrumentationOverheadDilates(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, ReferenceCores)
	a.SetInstrumented(0.10)
	stop := eng.Ticker(100*sim.Millisecond, func(now sim.Time) { a.Advance(now) })
	eng.Run(sim.Time(30 * sim.Second))
	stop()
	near(t, a.ExecTime(), 11*sim.Second)
}

func TestVariantClampingAndSwitchCount(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, 8)
	a.SetVariant(99)
	if a.Variant() != a.MostApproximate() {
		t.Fatalf("variant = %d, want clamp to %d", a.Variant(), a.MostApproximate())
	}
	a.SetVariant(-5)
	if a.Variant() != 0 {
		t.Fatalf("variant = %d, want clamp to 0", a.Variant())
	}
	if a.Switches() != 2 {
		t.Fatalf("switches = %d, want 2", a.Switches())
	}
	a.SetVariant(0) // no-op: same variant
	if a.Switches() != 2 {
		t.Fatalf("no-op switch counted: %d", a.Switches())
	}
	if a.VariantCount() != 2 {
		t.Fatalf("VariantCount = %d", a.VariantCount())
	}
}

func TestDemandScalesWithVariantAndCores(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, 8)
	d0 := a.Demand("app", 0)
	if d0.LLCMB != 40 || d0.MemBWGBs != 16 {
		t.Fatalf("precise demand = %+v", d0)
	}
	a.SetVariant(2) // traffic scale 0.5
	d2 := a.Demand("app", 0)
	if d2.MemBWGBs != 8 {
		t.Fatalf("approx bw = %v, want 8", d2.MemBWGBs)
	}
	if d2.LLCMB >= d0.LLCMB || d2.LLCMB <= d0.LLCMB*0.5 {
		t.Fatalf("approx llc = %v, want between 20 and 40 (sublinear)", d2.LLCMB)
	}
	a.SetCores(4)
	if got := a.Demand("app", 0).MemBWGBs; got != 4 {
		t.Fatalf("bw on 4 cores = %v, want 4", got)
	}
}

func TestFinishedAppExertsNoPressure(t *testing.T) {
	eng := sim.NewEngine()
	a := newTestInstance(t, eng, 8)
	a.Advance(sim.Time(100 * sim.Second))
	if !a.Done() {
		t.Fatal("not done after 100s")
	}
	d := a.Demand("app", eng.Now())
	if d.LLCMB != 0 || d.MemBWGBs != 0 {
		t.Fatalf("finished app demand = %+v", d)
	}
	// Switching a finished app is a no-op.
	a.SetVariant(2)
	if a.Variant() != 0 {
		t.Fatal("finished app switched variant")
	}
}

func TestPhaseOscillatesDemand(t *testing.T) {
	eng := sim.NewEngine()
	prof := testProfile()
	prof.PhaseAmp = 0.4
	prof.PhasePeriodSec = 10
	a, err := NewInstance(eng, sim.NewRNG(3), prof, testVariants(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for s := 0.0; s < 10; s += 0.5 {
		d := a.Demand("app", sim.Time(s*float64(sim.Second)))
		if d.MemBWGBs < lo {
			lo = d.MemBWGBs
		}
		if d.MemBWGBs > hi {
			hi = d.MemBWGBs
		}
	}
	nominal := prof.BWPerCoreGBs * 8
	if hi < nominal*1.2 || lo > nominal*0.8 {
		t.Fatalf("phase variation too small: [%v, %v] around %v", lo, hi, nominal)
	}
}

func TestNonDeterministicVariantAddsNoise(t *testing.T) {
	prof := testProfile()
	variants := []approx.Effect{
		approx.Precise(),
		{TimeScale: 0.8, TrafficScale: 0.7, Inaccuracy: 3.0, NonDeterministic: true},
	}
	// With elision active for the whole run, final inaccuracy must exceed
	// the deterministic 3% for at least some seeds.
	exceeded := false
	for seed := uint64(0); seed < 10; seed++ {
		eng := sim.NewEngine()
		a, err := NewInstance(eng, sim.NewRNG(seed), prof, variants, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.SetVariant(1)
		a.Advance(sim.Time(100 * sim.Second))
		if !a.Done() {
			t.Fatal("not done")
		}
		if a.Inaccuracy() < 3.0 {
			t.Fatalf("noise reduced inaccuracy below deterministic part: %v", a.Inaccuracy())
		}
		if a.Inaccuracy() > 3.0 {
			exceeded = true
		}
	}
	if !exceeded {
		t.Fatal("nondeterministic noise never materialized")
	}
}

// Property: progress is monotone and bounded in [0,1]; inaccuracy is
// monotone, for arbitrary interleavings of advances and switches.
func TestProgressMonotoneProperty(t *testing.T) {
	f := func(seed uint64, steps []uint8) bool {
		eng := sim.NewEngine()
		a, err := NewInstance(eng, sim.NewRNG(seed), testProfile(), testVariants(), 4, nil)
		if err != nil {
			return false
		}
		now := sim.Time(0)
		prevP, prevI := 0.0, 0.0
		for _, s := range steps {
			now = now.Add(sim.Duration(s) * 10 * sim.Millisecond)
			switch s % 3 {
			case 0:
				eng.Schedule(now, func() {})
				a.Advance(now)
			case 1:
				a.SetVariant(int(s) % 4)
			case 2:
				a.SetCores(int(s)%7 + 1)
			}
			p, i := a.Progress(), a.Inaccuracy()
			if p < prevP-1e-12 || p > 1+1e-12 || i < prevI-1e-12 {
				return false
			}
			prevP, prevI = p, i
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
