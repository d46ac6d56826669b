package colocate

import (
	"reflect"
	"slices"
	"testing"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/core"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// scratchEpisodes is a deliberately varied episode stream: app counts that
// shrink and grow, energy on then off, a crash-shortened episode, a custom
// profile that shares a catalog name, pinned variants, resumed work, every
// runtime, a caller's policy, each service, and one episode that fails.
// Each episode differs from its predecessor in what the Scratch must reset.
func scratchEpisodes(t *testing.T) []Config {
	t.Helper()
	model := energy.ModelFor(platform.TablePlatform())
	shape, err := workload.NewDiurnal(0.3, 20)
	if err != nil {
		t.Fatal(err)
	}
	custom, err := app.ByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	custom.MaxVariants = 1 // same name as the catalog entry, its own table
	custom.NominalExecSec = 9

	base := func(seed uint64, svc service.Class, load float64, apps ...string) Config {
		return Config{
			Seed:         seed,
			Service:      svc,
			LoadFraction: load,
			AppNames:     apps,
			TimeScale:    16,
			MaxDuration:  12 * sim.Second,
		}
	}
	var eps []Config

	c := base(1, service.Memcached, 0.95, "canneal", "k-means", "SNP")
	c.EnergyModel = &model
	c.LoadShape = shape
	eps = append(eps, c)

	c = base(2, service.NGINX, 0.7, "Bayesian")
	eps = append(eps, c)

	c = base(3, service.Memcached, 1.1, "streamcluster", "canneal", "PLSA")
	c.EnergyModel = &model
	c.FreqGHz = model.FreqAt(model.Nominal()) * 0.8
	c.MaxDuration = 3*sim.Second + 370*sim.Millisecond // a node crash cuts it short
	eps = append(eps, c)

	c = base(4, service.MongoDB, 0.8, "canneal", "canneal")
	c.CustomApps = []app.Profile{custom}
	eps = append(eps, c)

	c = base(5, service.Memcached, 0.9, "canneal", "SNP")
	c.FixedVariants = map[string]int{"canneal": 2, "SNP": 1}
	eps = append(eps, c)

	c = base(6, service.Memcached, 0.85, "k-means", "raytrace", "canneal")
	c.AppWorkScale = []float64{0.3, 1, 0.6}
	c.Runtime = ImpactAware
	eps = append(eps, c)

	c = base(7, service.NGINX, 1.2, "water_spatial")
	c.EnergyModel = &model
	eps = append(eps, c)

	// The episodes below reach the components the arena re-initialises in
	// place: the other built-in runtimes, a caller's policy, each service's
	// demand sampler, and a run that fails part-way.
	c = base(8, service.Memcached, 0.9, "canneal", "SNP")
	c.Runtime = Precise
	eps = append(eps, c)

	c = base(9, service.Memcached, 0.95, "Bayesian", "canneal", "k-means")
	c.Runtime = Learner
	eps = append(eps, c)

	c = base(10, service.Memcached, 1.0, "canneal", "PLSA")
	c.Policy = fixedPolicy{{Kind: core.ReclaimCore, App: 1}, {Kind: core.SwitchVariant, App: 0, To: 1}}
	eps = append(eps, c)

	c = base(11, service.MongoDB, 0.8, "SNP", "raytrace") // bimodal demand
	eps = append(eps, c)

	c = base(12, service.NGINX, 0.8, "raytrace", "SNP")
	eps = append(eps, c)

	c = base(13, service.Memcached, 0.9, "canneal", "k-means", "SNP")
	c.Policy = fixedPolicy{{Kind: core.SwitchVariant, App: 2, To: 99}} // breaks the action contract
	eps = append(eps, c)

	c = base(14, service.Memcached, 0.9, "canneal", "k-means", "SNP")
	c.EnergyModel = &model
	eps = append(eps, c)
	return eps
}

// outcome is one episode's result or error.
type outcome struct {
	res Result
	err error
}

// TestScratchReuseIsInvisible runs the episode stream twice on one Scratch
// and requires every result to equal a run of the same config without one:
// the scalar fields and per-app results deep-equal, the trace series equal
// name by name and point by point.
func TestScratchReuseIsInvisible(t *testing.T) {
	eps := scratchEpisodes(t)
	want := make([]outcome, len(eps))
	failing := 0
	for i, cfg := range eps {
		res, err := Run(cfg)
		want[i] = outcome{res, err}
		if err != nil {
			failing++
		}
	}
	if failing != 1 {
		t.Fatalf("%d episodes fail without a scratch, want exactly the contract breaker", failing)
	}
	sc := &Scratch{}
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range eps {
			cfg.Scratch = sc
			got, err := Run(cfg)
			if want[i].err != nil {
				if err == nil || err.Error() != want[i].err.Error() {
					t.Fatalf("pass %d episode %d: error %v, want %v", pass, i, err, want[i].err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("pass %d episode %d: %v", pass, i, err)
			}
			// Compare before the next episode recycles got.Trace and got.Apps.
			requireSameResult(t, pass, i, got, want[i].res)
		}
	}
}

// stormEpisode is the shape of one storm-coordinator node-window episode:
// memcached with three resident jobs, 1 s at time scale 1024, energy on,
// under a diurnal load shape.
func stormEpisode(tb testing.TB) Config {
	tb.Helper()
	model := energy.ModelFor(platform.TablePlatform())
	shape, err := workload.NewDiurnal(0.25, 120)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Seed:         42,
		Service:      service.Memcached,
		LoadFraction: 0.65,
		LoadShape:    shape,
		AppNames:     []string{"canneal", "k-means", "SNP"},
		AppWorkScale: []float64{1, 0.5, 0.8},
		TimeScale:    1024,
		MaxDuration:  sim.Second,
		EnergyModel:  &model,
		FreqGHz:      model.FreqAt(model.Nominal()),
	}
}

// TestWarmScratchEpisodeAllocs pins a warm-Scratch episode at zero
// allocations under the paper's round-robin arbiter, the impact-aware one
// and the learner: the arena re-initialises the scenario and every
// component in place, the controller with its arbiters, the learner's arm
// table and the buffer its Decide lends included. The storm-shaped episode
// runs 30 intervals instead of one, so every controller switches variants
// and the learner credits its arms. The pin counts the total over a batch
// of episodes, so a buffer that regrows once in many episodes fails it too.
func TestWarmScratchEpisodeAllocs(t *testing.T) {
	for _, rt := range []RuntimeKind{Pliant, ImpactAware, Learner} {
		cfg := stormEpisode(t)
		cfg.Runtime = rt
		cfg.MaxDuration = 30 * sim.Second
		cfg.Scratch = &Scratch{}
		const n = 20
		var runErr error
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < n; i++ {
				if _, err := Run(cfg); err != nil {
					runErr = err
				}
			}
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		if allocs != 0 {
			t.Fatalf("%d warm-scratch episodes under %v allocate %.0f times in total, want 0", n, rt, allocs)
		}
	}
}

// BenchmarkEpisodeWarmScratch times one storm-shaped episode on a warm
// Scratch, the configuration TestWarmScratchEpisodeAllocs pins.
func BenchmarkEpisodeWarmScratch(b *testing.B) {
	cfg := stormEpisode(b)
	cfg.Scratch = &Scratch{}
	if _, err := Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func requireSameResult(t *testing.T, pass, i int, got, want Result) {
	t.Helper()
	if want.Trace.Series("p99").Len() == 0 {
		t.Fatalf("episode %d recorded no reports; the stream exercises nothing", i)
	}
	gotNames, wantNames := got.Trace.Names(), want.Trace.Names()
	if !slices.Equal(gotNames, wantNames) {
		t.Fatalf("pass %d episode %d: trace series %v, want %v", pass, i, gotNames, wantNames)
	}
	for _, name := range wantNames {
		if g, w := got.Trace.Series(name).Points, want.Trace.Series(name).Points; !slices.Equal(g, w) {
			t.Fatalf("pass %d episode %d: series %q differs\n got %v\nwant %v", pass, i, name, g, w)
		}
	}
	got.Trace, want.Trace = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pass %d episode %d: result differs\n got %+v\nwant %+v", pass, i, got, want)
	}
}
