package sched

import (
	"reflect"
	"strings"
	"testing"

	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/workload"
)

func testCluster() []cluster.Node {
	return []cluster.Node{
		{Name: "cache-1", Service: service.Memcached, MaxApps: 3},
		{Name: "web-1", Service: service.NGINX, MaxApps: 3},
		{Name: "db-1", Service: service.MongoDB, MaxApps: 3},
	}
}

// fastConfig is a small, quick run for functional tests.
func fastConfig(pol Policy) Config {
	return Config{
		Seed:       7,
		Nodes:      testCluster(),
		Policy:     pol,
		Horizon:    60 * sim.Second,
		Epoch:      10 * sim.Second,
		JobsPerSec: 0.15,
		BaseLoad:   0.65,
		TimeScale:  32,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Nodes: testCluster()}); err == nil {
		t.Fatal("missing policy accepted")
	}
	bad := fastConfig(FirstFit{})
	bad.Epoch = 100 * sim.Millisecond
	if _, err := Run(bad); err == nil {
		t.Fatal("sub-second epoch accepted")
	}
	bad = fastConfig(FirstFit{})
	bad.Horizon = 5 * sim.Second
	if _, err := Run(bad); err == nil {
		t.Fatal("horizon below one epoch accepted")
	}
	bad = fastConfig(FirstFit{})
	bad.Nodes = []cluster.Node{{Name: "x", Service: service.NGINX}}
	if _, err := Run(bad); err == nil {
		t.Fatal("MaxApps=0 node accepted")
	}
	bad = fastConfig(FirstFit{})
	bad.JobNames = []string{"no-such-app"}
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown job name accepted")
	}
	bad = fastConfig(FirstFit{})
	bad.BaseLoad = 2
	if _, err := Run(bad); err == nil {
		t.Fatal("overload base accepted")
	}
}

func TestHorizonRoundsToWholeEpochs(t *testing.T) {
	cfg := fastConfig(FirstFit{})
	cfg.Horizon = 65 * sim.Second // not a multiple of the 10s epoch
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HorizonSec != 60 {
		t.Fatalf("horizon %v, want rounded to 60", res.HorizonSec)
	}
}

func TestJobLifecycle(t *testing.T) {
	res, err := Run(fastConfig(FirstFit{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 {
		t.Fatal("no jobs arrived")
	}
	if res.Placed == 0 {
		t.Fatal("no jobs placed")
	}
	if res.Arrived != res.Placed+res.Pending {
		t.Fatalf("arrived %d != placed %d + pending %d", res.Arrived, res.Placed, res.Pending)
	}
	epoch := res.EpochSec
	for _, j := range res.Jobs {
		if j.StartSec >= 0 {
			if j.StartSec < j.ArrivalSec {
				t.Fatalf("job %d started at %v before arriving at %v", j.ID, j.StartSec, j.ArrivalSec)
			}
			// Placement happens at window boundaries.
			if rem := j.StartSec / epoch; rem != float64(int(rem)) {
				t.Fatalf("job %d started off-boundary at %v", j.ID, j.StartSec)
			}
			if j.Node == "" {
				t.Fatalf("started job %d has no node", j.ID)
			}
			if j.WaitSec != j.StartSec-j.ArrivalSec {
				t.Fatalf("job %d wait %v, want %v", j.ID, j.WaitSec, j.StartSec-j.ArrivalSec)
			}
		}
		if j.Done {
			if j.FinishSec < j.StartSec {
				t.Fatalf("job %d finished at %v before starting at %v", j.ID, j.FinishSec, j.StartSec)
			}
			if j.Inaccuracy < 0 || j.Inaccuracy > 10 {
				t.Fatalf("job %d inaccuracy %v%%", j.ID, j.Inaccuracy)
			}
		}
	}
	// Trace series recorded.
	for _, name := range []string{"queue.depth", "running", "utilization", "qosmet"} {
		if !res.Trace.Has(name) {
			t.Fatalf("trace missing series %q", name)
		}
	}
	if res.Episodes == 0 {
		t.Fatal("no episodes simulated")
	}
}

// neverArrives is a job stream whose first arrival lies past any horizon.
type neverArrives struct{}

func (neverArrives) Next(*sim.RNG, sim.Time) sim.Duration { return 1 << 62 }
func (neverArrives) Rate() float64                        { return 0 }

// TestZeroArrivalRunKeepsJobsNil pins the empty fold: a run in which no job
// arrives reports Jobs as nil, not an empty slice.
func TestZeroArrivalRunKeepsJobsNil(t *testing.T) {
	cfg := fastConfig(FirstFit{})
	cfg.Arrivals = neverArrives{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 0 || res.Jobs != nil {
		t.Fatalf("arrived %d, Jobs %#v; want 0 and nil", res.Arrived, res.Jobs)
	}
}

// TestFinalizeAllocsIndependentOfJobs pins that Finalize sizes its per-job
// rows once: a run with about four times the arrivals makes the same number
// of allocations, where growing the rows by append would add some.
func TestFinalizeAllocsIndependentOfJobs(t *testing.T) {
	const runs = 2
	finalizeAllocs := func(jobsPerSec float64) (arrived int, allocs float64) {
		cfg := fastConfig(FirstFit{})
		cfg.JobsPerSec = jobsPerSec
		cfg.Shards = 1
		runners := make([]*Runner, runs+1) // AllocsPerRun calls once more to warm up
		for i := range runners {
			r, err := NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for more := true; more; {
				if more, err = r.StepWindow(); err != nil {
					t.Fatal(err)
				}
			}
			runners[i] = r
		}
		next := 0
		allocs = testing.AllocsPerRun(runs, func() {
			res, err := runners[next].Finalize()
			if err != nil {
				t.Fatal(err)
			}
			arrived = res.Arrived
			next++
		})
		return arrived, allocs
	}
	n, few := finalizeAllocs(0.15)
	n4, many := finalizeAllocs(0.6)
	t.Logf("Finalize: %d arrivals %.0f allocations, %d arrivals %.0f allocations", n, few, n4, many)
	if n == 0 || n4 < 3*n {
		t.Fatalf("arrivals %d and %d do not span the intended 4x", n, n4)
	}
	if many != few {
		t.Fatalf("Finalize allocates %.0f times for %d jobs and %.0f for %d; want equal", few, n, many, n4)
	}
}

// TestDeterminism is the reproducibility contract: equal configs give
// structurally identical results, including every job outcome and every
// trace point.
func TestDeterminism(t *testing.T) {
	a, err := Run(fastConfig(TelemetryAware{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig(TelemetryAware{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal configs produced different results")
	}
	c := fastConfig(TelemetryAware{})
	c.Seed++
	d, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Jobs, d.Jobs) {
		t.Fatal("different seeds produced identical job streams")
	}
}

func TestArrivalOverrideAndJobNames(t *testing.T) {
	cfg := fastConfig(FirstFit{})
	cfg.Arrivals = workload.Uniform{QPS: 0.2}
	cfg.JobNames = []string{"canneal", "raytrace"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform arrivals at 0.2/s over a 60s horizon give exactly 12 jobs
	// (t=5,10,…,60 — the horizon instant included).
	if res.Arrived != 12 {
		t.Fatalf("arrived %d, want 12 under uniform arrivals", res.Arrived)
	}
	for i, j := range res.Jobs {
		want := cfg.JobNames[i%2]
		if j.App != want {
			t.Fatalf("job %d is %s, want cycled %s", i, j.App, want)
		}
	}
}

// TestTimeVaryingJobArrivals checks the scheduler passes the current instant
// to time-varying job streams: a flash crowd of *job arrivals* must admit more jobs than the
// same base rate held steady.
func TestTimeVaryingJobArrivals(t *testing.T) {
	base := fastConfig(FirstFit{})
	steady, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	flashShape, err := workload.NewFlash(1, 6, 20, 30)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(FirstFit{})
	cfg.Arrivals, err = workload.NewShapedPoisson(cfg.JobsPerSec, flashShape)
	if err != nil {
		t.Fatal(err)
	}
	flash, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if flash.Arrived <= steady.Arrived {
		t.Fatalf("flash-crowd job stream arrived %d jobs vs steady %d; time-varying arrivals ignored",
			flash.Arrived, steady.Arrived)
	}
}

// telemetrySeeds are the seeds TestTelemetryBeatsFirstFit asserts over: 42
// and seven more, so its claims are properties of the model rather than of
// one random stream.
var telemetrySeeds = []uint64{42, 1, 2, 3, 4, 5, 6, 7}

// telemetryCompareRuns runs first-fit against telemetry-aware on a diurnal
// day at every telemetry seed.
func telemetryCompareRuns(t *testing.T) [][]Result {
	t.Helper()
	shape, err := workload.NewDiurnal(0.25, 120)
	if err != nil {
		t.Fatal(err)
	}
	var runs [][]Result // per seed: first-fit, telemetry-aware
	for _, seed := range telemetrySeeds {
		cfg := Config{
			Seed:       seed,
			Nodes:      testCluster(),
			Horizon:    120 * sim.Second,
			Epoch:      10 * sim.Second,
			JobsPerSec: 0.10,
			BaseLoad:   0.65,
			Shape:      shape,
			TimeScale:  16,
		}
		results, err := Compare(cfg, FirstFit{}, TelemetryAware{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runs = append(runs, results)
	}
	return runs
}

// TestTelemetryBeatsFirstFit is the headline claim of the subsystem (and the
// paper's Sec. 6.4 argument made online): under a diurnal day, consuming the
// runtime's telemetry must yield a higher QoS-met fraction than first-fit at
// every seed, at equal or better mean job wait at most seeds (on a congested
// day, deferring off violating nodes can cost a few seconds of wait).
func TestTelemetryBeatsFirstFit(t *testing.T) {
	if testing.Short() {
		t.Skip("policy comparison; skipped in -short")
	}
	runs := telemetryCompareRuns(t)
	waitOK := 0
	for i, results := range runs {
		ff, ta := results[0], results[1]
		if ta.QoSMetFrac <= ff.QoSMetFrac {
			t.Errorf("seed %d: telemetry-aware QoS-met %.2f not above first-fit %.2f",
				telemetrySeeds[i], ta.QoSMetFrac, ff.QoSMetFrac)
		}
		if ta.MeanWaitSec <= ff.MeanWaitSec {
			waitOK++
		}
	}
	if 2*waitOK <= len(runs) {
		t.Errorf("telemetry-aware wait no worse than first-fit at only %d/%d seeds", waitOK, len(runs))
	}
}

func TestCompareAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy run; skipped in -short")
	}
	cfg := fastConfig(nil)
	results, err := Compare(cfg, FirstFit{}, BestFit{}, TelemetryAware{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"first-fit", "best-fit", "telemetry-aware"}
	for i, w := range want {
		if results[i].Policy != w {
			t.Fatalf("result %d is %q, want %q", i, results[i].Policy, w)
		}
	}
	out := Render(results)
	for _, w := range append(want, "QoS met", "mean wait", "done/arrived") {
		if !strings.Contains(out, w) {
			t.Fatalf("render missing %q:\n%s", w, out)
		}
	}
}
