package colocate

import (
	"reflect"
	"slices"
	"testing"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/platform"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

// scratchEpisodes is a deliberately varied episode stream: app counts that
// shrink and grow, energy on then off, a crash-shortened episode, a custom
// profile that shares a catalog name, pinned variants and resumed work. Each
// episode differs from its predecessor in what the Scratch must reset.
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
	return eps
}

// TestScratchReuseIsInvisible runs the episode stream twice on one Scratch
// and requires every result to equal a run of the same config without one:
// the scalar fields and per-app results deep-equal, the trace series equal
// name by name and point by point.
func TestScratchReuseIsInvisible(t *testing.T) {
	eps := scratchEpisodes(t)
	want := make([]Result, len(eps))
	for i, cfg := range eps {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("episode %d without scratch: %v", i, err)
		}
		want[i] = res
	}
	sc := &Scratch{}
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range eps {
			cfg.Scratch = sc
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("pass %d episode %d: %v", pass, i, err)
			}
			// Compare before the next episode recycles got.Trace.
			requireSameResult(t, pass, i, got, want[i])
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
