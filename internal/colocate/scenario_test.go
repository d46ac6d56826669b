package colocate

import (
	"strings"
	"testing"

	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
)

// fastCfg returns the scaled-down test profile: identical utilization
// arithmetic, ~16x fewer simulated requests.
func fastCfg(cls service.Class, apps ...string) Config {
	return Config{
		Seed:         1,
		Service:      cls,
		LoadFraction: 0.78,
		AppNames:     apps,
		TimeScale:    16,
	}
}

func TestConfigValidation(t *testing.T) {
	bad := fastCfg(service.NGINX)
	if _, err := Run(bad); err == nil {
		t.Fatal("no apps accepted")
	}
	bad = fastCfg(service.NGINX, "canneal")
	bad.LoadFraction = -1
	if _, err := Run(bad); err == nil {
		t.Fatal("negative load accepted")
	}
	bad = fastCfg(service.NGINX, "no-such-app")
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown app accepted")
	}
	bad = fastCfg(service.NGINX, "canneal")
	bad.DecisionInterval = sim.Millisecond
	if _, err := Run(bad); err == nil {
		t.Fatal("sub-10ms interval accepted")
	}
}

func TestPreciseBaselineViolatesQoS(t *testing.T) {
	skipIfShort(t)
	// The paper's headline precise-mode result: colocating an approximate
	// app with an interactive service under a fair static allocation
	// violates QoS badly (NGINX 2.1–9.8x).
	cfg := fastCfg(service.NGINX, "canneal")
	cfg.Runtime = Precise
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeetsQoS() {
		t.Fatalf("precise colocation met QoS: p99/QoS = %.2f", res.TypicalOverQoS())
	}
	if r := res.TypicalOverQoS(); r < 1.5 || r > 20 {
		t.Fatalf("precise violation ratio %.2f outside plausible range", r)
	}
	// Baseline apps run precise with zero inaccuracy.
	if res.Apps[0].Inaccuracy != 0 {
		t.Fatalf("precise run accrued inaccuracy %.2f", res.Apps[0].Inaccuracy)
	}
	if res.Runtime != "precise" {
		t.Fatalf("runtime = %q", res.Runtime)
	}
}

func TestPliantMeetsQoSWithBoundedInaccuracy(t *testing.T) {
	skipIfShort(t)
	// The paper's headline Pliant result: QoS preserved, inaccuracy within
	// the 5% budget (small overshoot allowed for nondeterministic elision,
	// as in canneal+memcached's 5.4%).
	for _, tc := range []struct {
		cls service.Class
		app string
	}{
		{service.NGINX, "canneal"},
		{service.Memcached, "Bayesian"},
		{service.MongoDB, "SNP"},
	} {
		cfg := fastCfg(tc.cls, tc.app)
		cfg.Runtime = Pliant
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Apps[0].Done {
			t.Errorf("%v+%s: app did not finish (progress stuck)", tc.cls, tc.app)
			continue
		}
		if r := res.TypicalOverQoS(); r > 1.1 {
			t.Errorf("%v+%s: pliant steady p99/QoS = %.2f, want ≈≤1", tc.cls, tc.app, r)
		}
		if res.ViolationFrac > 0.40 {
			t.Errorf("%v+%s: %d%% of intervals violating, want bounded bursts",
				tc.cls, tc.app, int(res.ViolationFrac*100))
		}
		if ia := res.Apps[0].Inaccuracy; ia > 6.0 {
			t.Errorf("%v+%s: inaccuracy %.2f%% far above the 5%% budget", tc.cls, tc.app, ia)
		}
	}
}

func TestPliantBeatsPrecise(t *testing.T) {
	skipIfShort(t)
	base := fastCfg(service.Memcached, "PLSA")
	base.Runtime = Precise
	precise, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	pl := fastCfg(service.Memcached, "PLSA")
	pl.Runtime = Pliant
	pliant, err := Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	if pliant.OverallP99 >= precise.OverallP99 {
		t.Fatalf("pliant p99 %v not better than precise %v", pliant.OverallP99, precise.OverallP99)
	}
	if pliant.ViolationFrac >= precise.ViolationFrac && precise.ViolationFrac > 0 {
		t.Fatalf("pliant violated more intervals (%.2f) than precise (%.2f)",
			pliant.ViolationFrac, precise.ViolationFrac)
	}
}

func TestDeterminism(t *testing.T) {
	skipIfShort(t)
	cfg := fastCfg(service.NGINX, "streamcluster")
	cfg.Runtime = Pliant
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallP99 != b.OverallP99 || a.Served != b.Served ||
		a.Apps[0].Inaccuracy != b.Apps[0].Inaccuracy ||
		a.Apps[0].ExecTime != b.Apps[0].ExecTime {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.OverallP99 == c.OverallP99 && a.Served == c.Served {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestMultiAppColocation(t *testing.T) {
	skipIfShort(t)
	// Paper Sec. 6.3 / Fig. 6: canneal + Bayesian sharing a node with an
	// interactive service; round-robin keeps penalties balanced.
	cfg := fastCfg(service.NGINX, "canneal", "Bayesian")
	cfg.Runtime = Pliant
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("%d app results", len(res.Apps))
	}
	for _, a := range res.Apps {
		if !a.Done {
			t.Errorf("%s did not finish", a.Name)
		}
		if a.Inaccuracy > 6 {
			t.Errorf("%s inaccuracy %.2f%%", a.Name, a.Inaccuracy)
		}
	}
	if r := res.TypicalOverQoS(); r > 1.1 {
		t.Errorf("2-app pliant steady p99/QoS = %.2f", r)
	}
}

func TestFixedVariantPinsApp(t *testing.T) {
	cfg := fastCfg(service.MongoDB, "canneal")
	cfg.FixedVariants = map[string]int{"canneal": 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != "fixed-variant" {
		t.Fatalf("runtime = %q", res.Runtime)
	}
	// The app ran pinned at variant 2: its inaccuracy must equal that
	// variant's quality loss (within nondeterministic noise).
	if res.Apps[0].Inaccuracy <= 0 {
		t.Fatal("pinned approximate variant accrued no inaccuracy")
	}
	// No cores may move in pinned mode.
	if res.Apps[0].MaxYielded != 0 {
		t.Fatal("fixed-variant mode moved cores")
	}
}

// TestFixedVariantsChecked requires a pin that names no colocated app, or a
// variant the app lacks, to fail the run with an error naming it, rather
// than run the app precise.
func TestFixedVariantsChecked(t *testing.T) {
	for _, c := range []struct {
		pins map[string]int
		want []string
	}{
		{map[string]int{"canneal": 1, "nosuchapp": 1}, []string{"nosuchapp", "not among the apps"}},
		{map[string]int{"canneal": 99}, []string{"fixed variant 99", "canneal", "outside [0, "}},
		{map[string]int{"canneal": -1}, []string{"fixed variant -1", "canneal"}},
	} {
		cfg := fastCfg(service.Memcached, "canneal")
		cfg.MaxDuration = sim.Second
		cfg.FixedVariants = c.pins
		_, err := Run(cfg)
		if err == nil {
			t.Errorf("pins %v: Run returned no error", c.pins)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("pins %v: error %q does not name %q", c.pins, err, w)
			}
		}
	}
}

func TestTraceSeriesRecorded(t *testing.T) {
	skipIfShort(t)
	cfg := fastCfg(service.NGINX, "canneal")
	cfg.Runtime = Pliant
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"p99", "svc.cores", "variant.canneal", "yielded.canneal"} {
		if !res.Trace.Has(name) {
			t.Fatalf("missing trace series %q", name)
		}
		if res.Trace.Series(name).Len() == 0 {
			t.Fatalf("empty trace series %q", name)
		}
	}
	if res.Intervals == 0 || res.Trace.Series("p99").Len() != res.Intervals {
		t.Fatalf("intervals=%d, p99 points=%d", res.Intervals, res.Trace.Series("p99").Len())
	}
}

func TestMaxDurationBoundsRun(t *testing.T) {
	cfg := fastCfg(service.NGINX, "PLSA")
	cfg.Runtime = Pliant
	cfg.MaxDuration = 5 * sim.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration > 5*sim.Second {
		t.Fatalf("duration %v exceeded max", res.Duration)
	}
	if res.Apps[0].Done {
		t.Fatal("55s app finished in 5s")
	}
}

func TestConservationOfCores(t *testing.T) {
	skipIfShort(t)
	cfg := fastCfg(service.Memcached, "canneal", "k-means")
	cfg.Runtime = Pliant
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At every decision interval, service cores + app cores + yielded
	// bookkeeping must be consistent: svc.cores - fairShare equals the sum
	// of currently yielded cores.
	usable := 16 // TablePlatform: 22 - 6 irq
	fair := usable / 3
	svcSeries := res.Trace.Series("svc.cores")
	y1 := res.Trace.Series("yielded.canneal")
	y2 := res.Trace.Series("yielded.k-means")
	for i, p := range svcSeries.Points {
		got := p.V - float64(fair+usable%3) // svc gets fair share + remainder
		want := y1.Points[i].V + y2.Points[i].V
		if got != want {
			t.Fatalf("interval %d: svc extra cores %.0f != yielded sum %.0f", i, got, want)
		}
	}
}

func TestRuntimeKindStrings(t *testing.T) {
	if Pliant.String() != "pliant" || Precise.String() != "precise" ||
		StaticApprox.String() != "static-approx" || ImpactAware.String() != "impact-aware" {
		t.Fatal("runtime names wrong")
	}
}

// skipIfShort gates full-scale scenario tests so `go test -short ./...`
// finishes in seconds while the full run still exercises everything.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-scale scenario; skipped in -short")
	}
}
