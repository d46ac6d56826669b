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
	p, err := Launch(eng, inst, inst.Profile().DynOverhead)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLaunchValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := Launch(nil, nil, 0); err == nil {
		t.Fatal("nil deps accepted")
	}
	if _, err := Launch(eng, nil, 0); err == nil {
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

func TestDeliverSwitchesAfterLatency(t *testing.T) {
	eng := sim.NewEngine()
	p := launchCanneal(t, eng)
	eng.Schedule(sim.Time(sim.Second), func() {
		if err := p.SwitchTo(2); err != nil {
			t.Errorf("SwitchTo: %v", err)
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
	if p.App().Switches() != 1 {
		t.Fatalf("switches=%d", p.App().Switches())
	}
	if err := p.SwitchTo(p.App().VariantCount() + 1); err == nil {
		t.Fatal("out-of-range variant accepted")
	}
	if err := p.SwitchTo(-1); err == nil {
		t.Fatal("negative variant accepted")
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
	if p.App().Switches() != 1 {
		t.Fatalf("switches = %d, want 1 (first swap superseded)", p.App().Switches())
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
	if _, err := Launch(eng, inst, 0); err != nil {
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
	for i := 0; i < maxVariants; i++ {
		variants = append(variants, approx.Effect{
			TimeScale: 0.99 - float64(i)*0.001, TrafficScale: 1, Inaccuracy: float64(i),
		})
	}
	inst, err := app.NewInstance(eng, sim.NewRNG(1), prof, variants, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Launch(eng, inst, 0); err == nil {
		t.Fatal("variant count exceeding signal range accepted")
	}
}

// A signal schedules its swap as a typed event and the swap itself only
// switches the app model, so actuation allocates nothing once the engine's
// arenas are warm.
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
	if p.App().Switches() == 0 {
		t.Fatal("no swap landed")
	}
}
