package colocate

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/monitor"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
)

func energyScenario(seed uint64) (Config, energy.Model) {
	model := energy.ModelFor(platform.TablePlatform())
	return Config{
		Seed:         seed,
		Service:      service.Memcached,
		AppNames:     []string{"canneal"},
		Runtime:      Pliant,
		LoadFraction: 0.78,
		TimeScale:    16,
		EnergyModel:  &model,
	}, model
}

// TestEnergyAccountingIsObservationOnly pins the core invariant: attaching a
// power model at nominal frequency must not perturb the simulation — same
// seed, same requests, same tail; only the energy fields appear.
func TestEnergyAccountingIsObservationOnly(t *testing.T) {
	with, _ := energyScenario(7)
	without := with
	without.EnergyModel = nil

	rw, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Served != ro.Served || rw.Dropped != ro.Dropped || rw.OverallP99 != ro.OverallP99 {
		t.Fatalf("energy accounting perturbed the run: with=(%d,%d,%v) without=(%d,%d,%v)",
			rw.Served, rw.Dropped, rw.OverallP99, ro.Served, ro.Dropped, ro.OverallP99)
	}
	if rw.Joules <= 0 || rw.MeanWatts <= 0 || rw.MeanUtil <= 0 {
		t.Fatalf("energy totals missing: joules=%v watts=%v util=%v", rw.Joules, rw.MeanWatts, rw.MeanUtil)
	}
	if ro.Joules != 0 || ro.MeanWatts != 0 {
		t.Fatalf("nil model accrued energy: %+v", ro)
	}
	if rw.Trace.Series("watts").Len() == 0 {
		t.Fatal("watts series missing from trace")
	}
	if ro.Trace.Series("watts").Len() != 0 {
		t.Fatal("watts series present without a model")
	}
}

// TestEnergyBoundsAndReports checks the physical envelope — mean draw sits
// between the parked floor and peak — and that OnReport carries per-interval
// watts/joules consistent with the run totals.
func TestEnergyBoundsAndReports(t *testing.T) {
	cfg, model := energyScenario(3)
	var joules float64
	var reports int
	cfg.OnReport = func(r monitor.Report) {
		if r.Watts < model.ParkedW || r.Watts > model.PeakW {
			t.Errorf("interval watts %v outside [%v, %v]", r.Watts, model.ParkedW, model.PeakW)
		}
		if r.Util < 0 || r.Util > 1 {
			t.Errorf("interval util %v outside [0,1]", r.Util)
		}
		joules += r.Joules
		reports++
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reports == 0 {
		t.Fatal("no reports observed")
	}
	if res.MeanWatts < model.IdleW || res.MeanWatts > model.PeakW {
		t.Errorf("mean watts %v outside [idle %v, peak %v]", res.MeanWatts, model.IdleW, model.PeakW)
	}
	// Per-interval joules should account for nearly all of the run total
	// (the final partial interval is closed at the last observed draw).
	if joules > res.Joules || joules < 0.8*res.Joules {
		t.Errorf("interval joules %v vs run total %v", joules, res.Joules)
	}
}

// TestLowFrequencySavesEnergy drives the same colocation in the lowest
// frequency state: the node must draw measurably fewer joules per second
// while the tail gets worse (the service really is slower), which is exactly
// the slack the approx-for-watts policy spends.
func TestLowFrequencySavesEnergy(t *testing.T) {
	nominal, model := energyScenario(7)
	nominal.MaxDuration = 40 * 16 * sim.Second // bounded, identical for both runs

	slow := nominal
	slow.FreqGHz = model.FreqAt(0)

	rn, err := Run(nominal)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanWatts >= rn.MeanWatts {
		t.Errorf("low state draws %v W ≥ nominal %v W", rs.MeanWatts, rn.MeanWatts)
	}
	if rs.TypicalP99 <= rn.TypicalP99 {
		t.Errorf("low state p99 %v not above nominal %v — slowdown not applied", rs.TypicalP99, rn.TypicalP99)
	}
}

// TestEnergyConfigValidation rejects frequency without a model and bad
// frequencies.
func TestEnergyConfigValidation(t *testing.T) {
	cfg, _ := energyScenario(1)
	cfg.EnergyModel = nil
	cfg.FreqGHz = 1.8
	if _, err := Run(cfg); err == nil {
		t.Error("FreqGHz without EnergyModel validated")
	}
	cfg, _ = energyScenario(1)
	cfg.FreqGHz = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative FreqGHz validated")
	}
	cfg, _ = energyScenario(1)
	cfg.FreqGHz = math.NaN()
	if _, err := Run(cfg); err == nil {
		t.Error("NaN FreqGHz validated")
	}
	cfg, model := energyScenario(1)
	cfg.FreqGHz = model.FreqAt(model.Nominal()) + 1
	if _, err := Run(cfg); err == nil {
		t.Error("above-nominal FreqGHz validated — would extrapolate the power curve")
	}
}
