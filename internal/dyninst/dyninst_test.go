package dyninst

import (
	"testing"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/approx"
	"github.com/approx-sched/pliant/internal/dse"
	"github.com/approx-sched/pliant/internal/sim"
)

func launchCanneal(t *testing.T, eng *sim.Engine) *Process {
	t.Helper()
	prof, err := app.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	variants, err := dse.VariantsFor(prof)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := app.NewInstance(eng, sim.NewRNG(42), prof, variants, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Launch(eng, inst, Options{OverheadOverride: -1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLaunchValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := Launch(nil, nil, Options{}); err == nil {
		t.Fatal("nil deps accepted")
	}
	if _, err := Launch(eng, nil, Options{}); err == nil {
		t.Fatal("nil app accepted")
	}
}

func TestLaunchAppliesProfileOverhead(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	// canneal's catalog overhead is 4.5%: nominal 38s becomes ~39.71s.
	stop := eng.Ticker(sim.Second, func(now sim.Time) { p.App().Advance(now) })
	eng.Run(sim.Time(60 * sim.Second))
	stop()
	if !p.App().Done() {
		t.Fatal("app did not finish")
	}
	want := 38.0 * 1.045
	got := p.App().ExecTime().Seconds()
	if got < want-0.5 || got > want+0.5 {
		t.Fatalf("instrumented exec time %.2fs, want ~%.2fs", got, want)
	}
}

func TestFunctionTableShape(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	prof := p.App().Profile()
	nVariants := p.App().VariantCount() + 1
	table := p.Table()
	if len(table) != len(prof.Sites)*nVariants {
		t.Fatalf("table has %d entries, want %d sites × %d variants",
			len(table), len(prof.Sites), nVariants)
	}
	// Addresses must be unique.
	seen := map[uint64]bool{}
	for _, fv := range table {
		if seen[fv.Address] {
			t.Fatalf("duplicate address %#x", fv.Address)
		}
		seen[fv.Address] = true
	}
	// Initially every function dispatches to its precise (variant-0) version.
	for _, site := range prof.Sites {
		addr, err := p.ActiveAddress(site.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fv := range table {
			if fv.Function == site.Name && fv.Variant == 0 && fv.Address != addr {
				t.Fatalf("%s dispatches to %#x, want precise %#x", site.Name, addr, fv.Address)
			}
		}
	}
	if _, err := p.ActiveAddress("no_such_fn"); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestSignalMappingRoundTrip(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	n := p.App().VariantCount() + 1
	for v := 0; v < n; v++ {
		sig, err := p.SignalFor(v)
		if err != nil {
			t.Fatal(err)
		}
		if sig < SigRTMin || sig > SigRTMax {
			t.Fatalf("signal %d outside real-time range", sig)
		}
		back, err := p.VariantFor(sig)
		if err != nil || back != v {
			t.Fatalf("round trip %d -> %d (%v)", v, back, err)
		}
	}
	if _, err := p.SignalFor(n); err == nil {
		t.Fatal("out-of-range variant accepted")
	}
	if _, err := p.VariantFor(SigRTMin - 1); err == nil {
		t.Fatal("unmapped signal accepted")
	}
}

func TestSignalMappingAllocFree(t *testing.T) {
	p := launchCanneal(t, sim.NewEngine())
	most := p.App().MostApproximate()
	if avg := testing.AllocsPerRun(1000, func() { _, _ = p.SignalFor(most) }); avg != 0 {
		t.Fatalf("SignalFor allocates %.1f times per call", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { _, _ = p.VariantFor(SigRTMin + most) }); avg != 0 {
		t.Fatalf("VariantFor allocates %.1f times per call", avg)
	}
}

func TestDeliverSwitchesAfterLatency(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	sig, _ := p.SignalFor(2)
	eng.Schedule(sim.Time(sim.Second), func() {
		if err := p.Deliver(sig); err != nil {
			t.Errorf("Deliver: %v", err)
		}
	})
	// Just before the latency elapses the variant is unchanged.
	eng.Schedule(sim.Time(sim.Second)+sim.Time(DefaultSwitchLatency/2), func() {
		if p.Variant() != 0 {
			t.Error("variant switched before latency elapsed")
		}
	})
	eng.Schedule(sim.Time(sim.Second)+sim.Time(2*DefaultSwitchLatency), func() {
		if p.Variant() != 2 {
			t.Errorf("variant = %d after latency, want 2", p.Variant())
		}
	})
	eng.Run(sim.Time(2 * sim.Second))
	if p.Signals() != 1 || p.Switches() != 1 {
		t.Fatalf("signals=%d switches=%d", p.Signals(), p.Switches())
	}
}

func TestSwapUpdatesFunctionTable(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	eng.Schedule(0, func() { _ = p.SwitchTo(1) })
	eng.Run(sim.Time(sim.Second))
	prof := p.App().Profile()
	for _, site := range prof.Sites {
		addr, _ := p.ActiveAddress(site.Name)
		found := false
		for _, fv := range p.Table() {
			if fv.Function == site.Name && fv.Variant == 1 && fv.Address == addr {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s not dispatching to variant 1 after swap", site.Name)
		}
	}
}

func TestRapidSignalsSupersede(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	eng.Schedule(0, func() {
		_ = p.SwitchTo(1)
		_ = p.SwitchTo(3) // supersedes before the first lands
	})
	eng.Run(sim.Time(sim.Second))
	if p.Variant() != 3 {
		t.Fatalf("variant = %d, want 3 (last signal wins)", p.Variant())
	}
	if p.Switches() != 1 {
		t.Fatalf("switches = %d, want 1 (first swap superseded)", p.Switches())
	}
}

func TestSignalsToFinishedProcessIgnored(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	p.App().Advance(sim.Time(300 * sim.Second)) // run to completion
	if !p.App().Done() {
		t.Fatal("app not done")
	}
	if err := p.SwitchTo(1); err != nil {
		t.Fatalf("signal to finished process errored: %v", err)
	}
	eng.Run(sim.Time(sim.Second))
	if p.Variant() != 0 {
		t.Fatal("finished process switched variant")
	}
}

func TestOverheadOverride(t *testing.T) {
	eng := sim.NewEngine()
	prof := app.Profile{
		Name: "x", NominalExecSec: 10, ParallelExp: 1, MaxVariants: 2,
		Sites: []approx.Site{{Name: "f", Technique: approx.LoopPerforation,
			RuntimeShare: 0.5, TrafficShare: 0.5, UsefulFrac: 0.5,
			QualityCoef: 0.05, QualityExp: 1}},
	}
	variants := []approx.Effect{approx.Precise(), {TimeScale: 0.8, TrafficScale: 0.8, Inaccuracy: 1}}
	inst, err := app.NewInstance(eng, sim.NewRNG(1), prof, variants, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Launch(eng, inst, Options{OverheadOverride: 0}); err != nil {
		t.Fatal(err)
	}
	stop := eng.Ticker(sim.Second, func(now sim.Time) { inst.Advance(now) })
	eng.Run(sim.Time(15 * sim.Second))
	stop()
	got := inst.ExecTime().Seconds()
	if got < 9.99 || got > 10.01 {
		t.Fatalf("zero-overhead exec time %.3fs, want 10s", got)
	}
}

func TestTooManyVariantsRejected(t *testing.T) {
	eng := sim.NewEngine()
	prof := app.Profile{
		Name: "huge", NominalExecSec: 10, ParallelExp: 1,
		Sites: []approx.Site{{Name: "f", Technique: approx.LoopPerforation,
			RuntimeShare: 0.5, TrafficShare: 0.5, UsefulFrac: 0.5,
			QualityCoef: 0.05, QualityExp: 1}},
	}
	variants := []approx.Effect{approx.Precise()}
	for i := 0; i < SigRTMax-SigRTMin+1; i++ {
		variants = append(variants, approx.Effect{
			TimeScale: 0.99 - float64(i)*0.001, TrafficScale: 1, Inaccuracy: float64(i),
		})
	}
	inst, err := app.NewInstance(eng, sim.NewRNG(1), prof, variants, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Launch(eng, inst, Options{}); err == nil {
		t.Fatal("variant count exceeding signal range accepted")
	}
}

// A signal schedules its swap as a typed event and the swap itself writes
// one index, so actuation allocates nothing once the engine's arenas are
// warm.
func TestSwitchAndSwapAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	v := 1
	cycle := func() {
		if err := p.SwitchTo(v); err != nil {
			t.Fatal(err)
		}
		eng.Run(eng.Now() + sim.Time(2*DefaultSwitchLatency))
		if p.Variant() != v {
			t.Fatalf("variant %d after the swap, want %d", p.Variant(), v)
		}
		v = 3 - v // alternate 1 and 2 so every swap is effective
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("SwitchTo plus the swap allocates %.1f times", avg)
	}
	if p.Switches() == 0 {
		t.Fatal("no swap landed")
	}
}

// The derived dispatch keeps the name-keyed semantics for a profile that
// repeats a site name: the last site of that name owns it, before and after
// a swap.
func TestActiveAddressDuplicateSiteName(t *testing.T) {
	eng := sim.NewEngine()
	site := approx.Site{Name: "f", Technique: approx.LoopPerforation,
		RuntimeShare: 0.2, TrafficShare: 0.2, UsefulFrac: 0.5,
		QualityCoef: 0.05, QualityExp: 1}
	other := site
	other.Name = "g"
	prof := app.Profile{
		Name: "dup", NominalExecSec: 10, ParallelExp: 1,
		Sites: []approx.Site{site, other, site},
	}
	variants := []approx.Effect{approx.Precise(), {TimeScale: 0.8, TrafficScale: 0.8, Inaccuracy: 1}}
	inst, err := app.NewInstance(eng, sim.NewRNG(1), prof, variants, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Launch(eng, inst, Options{OverheadOverride: 0})
	if err != nil {
		t.Fatal(err)
	}
	// want mirrors a name-keyed table filled site by site: later entries
	// overwrite earlier ones of the same name.
	want := func(variant int) map[string]uint64 {
		m := map[string]uint64{}
		for _, fv := range p.Table() {
			if fv.Variant == variant {
				m[fv.Function] = fv.Address
			}
		}
		return m
	}
	check := func(variant int) {
		t.Helper()
		for fn, addr := range want(variant) {
			got, err := p.ActiveAddress(fn)
			if err != nil || got != addr {
				t.Fatalf("variant %d: %s dispatches to %#x (%v), want %#x", variant, fn, got, err, addr)
			}
		}
	}
	check(0)
	eng.Schedule(0, func() { _ = p.SwitchTo(1) })
	eng.Run(sim.Time(sim.Second))
	check(1)
}
