package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	pliant "github.com/approx-sched/pliant"
	"github.com/approx-sched/pliant/internal/sim"
)

// benchRecord is one benchmark's entry in the perf-trajectory file.
type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// trajectory is the BENCH_<label>.json document: the repo accumulates one
// per PR, so performance over time is a `jq` away.
type trajectory struct {
	Label      string        `json:"label"`
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	Benchmarks []benchRecord `json:"benchmarks"`
}

// record folds a testing.Benchmark result into a trajectory entry.
func record(name string, r testing.BenchmarkResult) benchRecord {
	out := benchRecord{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if len(r.Extra) > 0 {
		out.Metrics = make(map[string]float64, len(r.Extra))
		for k, v := range r.Extra {
			out.Metrics[k] = v
		}
	}
	return out
}

// scenarioBenchConfig mirrors BenchmarkScenarioPliant in bench_test.go.
func scenarioBenchConfig(seed uint64) pliant.ScenarioConfig {
	return pliant.ScenarioConfig{
		Seed:         seed,
		Service:      pliant.Memcached,
		AppNames:     []string{"canneal"},
		Runtime:      pliant.RuntimePliant,
		LoadFraction: 0.78,
		TimeScale:    16,
	}
}

// energySchedBenchConfig mirrors BenchmarkSchedEnergyDiurnal in
// bench_test.go: the five-node energy cluster under the approx-for-watts
// bundle.
func energySchedBenchConfig() pliant.SchedConfig {
	cfg := schedBenchConfig(pliant.TelemetryAwarePlacement{})
	cfg.Nodes = append(cfg.Nodes,
		pliant.ClusterNode{Name: "cache-2", Service: pliant.Memcached, MaxApps: 3},
		pliant.ClusterNode{Name: "web-2", Service: pliant.NGINX, MaxApps: 3},
	)
	model := pliant.EnergyModelFor(pliant.TablePlatform())
	cfg.Energy = &model
	cfg.Autoscaler = pliant.ApproxForWattsAutoscaler{
		Consolidate: pliant.ConsolidateAutoscaler{ReserveSlots: 6},
		LowWater:    0.6,
	}
	return cfg
}

// shardedBenchConfig mirrors BenchmarkSchedShardedDiurnal in bench_test.go:
// one compressed diurnal day on a 128-node cluster.
func shardedBenchConfig(shards int) pliant.SchedConfig {
	shape, _ := pliant.NewDiurnalLoad(0.25, 120)
	var nodes []pliant.ClusterNode
	for i := 0; i < 128; i++ {
		switch i % 3 {
		case 0:
			nodes = append(nodes, pliant.ClusterNode{Name: "cache", Service: pliant.Memcached, MaxApps: 3})
		case 1:
			nodes = append(nodes, pliant.ClusterNode{Name: "web", Service: pliant.NGINX, MaxApps: 3})
		default:
			nodes = append(nodes, pliant.ClusterNode{Name: "db", Service: pliant.MongoDB, MaxApps: 3})
		}
	}
	return pliant.SchedConfig{
		Seed:       42,
		Nodes:      nodes,
		Policy:     pliant.TelemetryAwarePlacement{},
		Horizon:    120 * pliant.Second,
		Epoch:      10 * pliant.Second,
		JobsPerSec: 2.0,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  16,
		Shards:     shards,
	}
}

// schedBenchConfig mirrors the diurnal-day scenario in bench_test.go.
func schedBenchConfig(policy pliant.SchedPolicy) pliant.SchedConfig {
	shape, _ := pliant.NewDiurnalLoad(0.25, 120)
	return pliant.SchedConfig{
		Seed: 42,
		Nodes: []pliant.ClusterNode{
			{Name: "cache-1", Service: pliant.Memcached, MaxApps: 3},
			{Name: "web-1", Service: pliant.NGINX, MaxApps: 3},
			{Name: "db-1", Service: pliant.MongoDB, MaxApps: 3},
		},
		Policy:     policy,
		Horizon:    120 * pliant.Second,
		Epoch:      10 * pliant.Second,
		JobsPerSec: 0.10,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  16,
	}
}

// faultStormBenchConfig mirrors examples/faultstorm: the eight-node cluster
// riding a compressed diurnal day through a correlated rack outage plus MTTF
// churn and telemetry dropouts, under the degrade-under-loss bundle. Also
// returns the plan so the record can carry its knobs as metadata.
func faultStormBenchConfig() (pliant.SchedConfig, *pliant.FaultPlan) {
	shape, _ := pliant.NewDiurnalLoad(0.25, 120)
	var nodes []pliant.ClusterNode
	for i := 0; i < 8; i++ {
		switch i % 3 {
		case 0:
			nodes = append(nodes, pliant.ClusterNode{Name: "cache", Service: pliant.Memcached, MaxApps: 3})
		case 1:
			nodes = append(nodes, pliant.ClusterNode{Name: "web", Service: pliant.NGINX, MaxApps: 3})
		default:
			nodes = append(nodes, pliant.ClusterNode{Name: "db", Service: pliant.MongoDB, MaxApps: 3})
		}
	}
	plan := &pliant.FaultPlan{
		MTTFSec:      300,
		MTTRSec:      10,
		DomainSize:   2,
		Outages:      []pliant.FaultOutage{{AtSec: 35, Domain: 1, DurationSec: 50}},
		StaleMTBFSec: 90,
		StaleDurSec:  15,
	}
	model := pliant.EnergyModelFor(pliant.TablePlatform())
	return pliant.SchedConfig{
		Seed:       42,
		Nodes:      nodes,
		Policy:     pliant.TelemetryAwarePlacement{},
		Horizon:    120 * pliant.Second,
		Epoch:      10 * pliant.Second,
		JobsPerSec: 0.25,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  16,
		Energy:     &model,
		Autoscaler: pliant.DegradeUnderLossController{Normal: pliant.ConsolidateAutoscaler{ReserveSlots: 9}},
		Faults:     plan,
	}, plan
}

// traceReplayBenchConfig mirrors BenchmarkSchedTraceReplay in bench_test.go:
// a synthesized Google-format trace compressed into the two-minute day and
// replayed over the five-node cluster with telemetry-aware placement. Also
// returns the raw row count and replayed job count for the record metadata.
func traceReplayBenchConfig() (cfg pliant.SchedConfig, rows, jobs int, err error) {
	raw := pliant.SynthesizeTrace(pliant.TraceSynthConfig{
		Format:  pliant.GoogleTraceFormat,
		Jobs:    240,
		SpanSec: 6 * 3600,
		Seed:    42,
	})
	parsed, err := pliant.ParseTrace(bytes.NewReader(raw), pliant.GoogleTraceFormat)
	if err != nil {
		return cfg, 0, 0, err
	}
	tr, err := parsed.Normalize(pliant.TraceOptions{TargetSpanSec: 108, MaxJobs: 24})
	if err != nil {
		return cfg, 0, 0, err
	}
	times, mult, err := tr.RateShape(8)
	if err != nil {
		return cfg, 0, 0, err
	}
	for i, m := range mult {
		mult[i] = math.Sqrt(m)
	}
	shape, err := pliant.NewReplayLoad(times, mult)
	if err != nil {
		return cfg, 0, 0, err
	}
	cfg = pliant.SchedConfig{
		Seed: 42,
		Nodes: []pliant.ClusterNode{
			{Name: "cache-1", Service: pliant.Memcached, MaxApps: 3},
			{Name: "web-1", Service: pliant.NGINX, MaxApps: 3},
			{Name: "db-1", Service: pliant.MongoDB, MaxApps: 3},
			{Name: "cache-2", Service: pliant.Memcached, MaxApps: 3},
			{Name: "web-2", Service: pliant.NGINX, MaxApps: 3},
		},
		Policy:    pliant.TelemetryAwarePlacement{},
		Horizon:   120 * pliant.Second,
		Epoch:     10 * pliant.Second,
		Trace:     tr,
		BaseLoad:  0.65,
		Shape:     shape,
		TimeScale: 16,
	}
	return cfg, tr.Rows, len(tr.Jobs), nil
}

// serveBenchSessions and serveBenchQueueCap shape the ServeSubmit record:
// how many concurrent daemon sessions the submissions fan across, and the
// bounded per-session ingest depth the 429 backpressure contract engages at.
const (
	serveBenchSessions = 2
	serveBenchQueueCap = 4096
)

// runTrajectory executes the perf-trajectory suite with testing.Benchmark
// and writes BENCH_<label>.json into the current directory.
func runTrajectory(label string) error {
	var t trajectory
	t.Label = label
	t.GoVersion = runtime.Version()
	t.GOOS, t.GOARCH = runtime.GOOS, runtime.GOARCH

	// Steady-state typed event dispatch: the cost floor of every simulation.
	t.Benchmarks = append(t.Benchmarks, record("EventDispatchTyped", testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		var h rearmHandler
		h.eng = eng
		eng.ScheduleTyped(1, &h, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Step()
		}
	})))

	// One managed colocation end to end, reporting simulated requests per
	// wall second.
	t.Benchmarks = append(t.Benchmarks, record("ScenarioPliant", testing.Benchmark(func(b *testing.B) {
		var served uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pliant.RunScenario(scenarioBenchConfig(uint64(i + 1)))
			if err != nil {
				b.Fatal(err)
			}
			served += res.Served
		}
		b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "requests/s")
	})))

	// One energy-managed day: the approx-for-watts bundle on the five-node
	// cluster, reporting the day's joules alongside wall time.
	t.Benchmarks = append(t.Benchmarks, record("SchedEnergyDiurnal", testing.Benchmark(func(b *testing.B) {
		var met, kj float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pliant.RunSched(energySchedBenchConfig())
			if err != nil {
				b.Fatal(err)
			}
			met += res.QoSMetFrac
			kj += res.Joules / 1000
		}
		b.ReportMetric(met/float64(b.N), "QoSMetFrac")
		b.ReportMetric(kj/float64(b.N), "kJ/day")
	})))

	// One compressed day of online scheduling per policy.
	for _, pol := range []pliant.SchedPolicy{
		pliant.FirstFitPlacement{},
		pliant.TelemetryAwarePlacement{},
	} {
		pol := pol
		t.Benchmarks = append(t.Benchmarks, record("SchedDiurnal/"+pol.Name(), testing.Benchmark(func(b *testing.B) {
			var met float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := pliant.RunSched(schedBenchConfig(pol))
				if err != nil {
					b.Fatal(err)
				}
				met += res.QoSMetFrac
			}
			b.ReportMetric(met/float64(b.N), "QoSMetFrac")
		})))
	}

	// One replayed production-shaped day: the trace-ingestion pipeline plus
	// the scheduler consuming its stream. The record carries the trace's
	// row/job scale, so every trajectory point states what it replayed —
	// the -verify gate rejects trace records without it.
	traceCfg, traceRows, traceJobs, err := traceReplayBenchConfig()
	if err != nil {
		return err
	}
	traceRec := record("SchedTraceReplay", testing.Benchmark(func(b *testing.B) {
		var met float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pliant.RunSched(traceCfg)
			if err != nil {
				b.Fatal(err)
			}
			met += res.QoSMetFrac
		}
		b.ReportMetric(met/float64(b.N), "QoSMetFrac")
	}))
	if traceRec.Metrics == nil {
		traceRec.Metrics = map[string]float64{}
	}
	traceRec.Metrics["rows"] = float64(traceRows)
	traceRec.Metrics["jobs"] = float64(traceJobs)
	t.Benchmarks = append(t.Benchmarks, traceRec)

	// One fault-injected day: the degrade-under-loss bundle riding out a
	// correlated rack outage plus MTTF churn. The record carries the fault
	// plan's knobs (MTTF, MTTR, retry budget), so every trajectory point
	// states the storm it survived — the -verify gate rejects fault records
	// without it.
	faultCfg, faultPlan := faultStormBenchConfig()
	faultRec := record("SchedFaultStorm", testing.Benchmark(func(b *testing.B) {
		var met, crashes, requeued float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := pliant.RunSched(faultCfg)
			if err != nil {
				b.Fatal(err)
			}
			met += res.QoSMetFrac
			crashes += float64(res.Crashes)
			requeued += float64(res.Requeued)
		}
		b.ReportMetric(met/float64(b.N), "QoSMetFrac")
		b.ReportMetric(crashes/float64(b.N), "crashes")
		b.ReportMetric(requeued/float64(b.N), "requeued")
	}))
	if faultRec.Metrics == nil {
		faultRec.Metrics = map[string]float64{}
	}
	faultRec.Metrics["mttf"] = faultPlan.MTTFSec
	faultRec.Metrics["mttr"] = faultPlan.MTTRSec
	faultRec.Metrics["retries"] = float64(faultPlan.Retries())
	t.Benchmarks = append(t.Benchmarks, faultRec)

	// The shard runtime on a 128-node diurnal day, one shard per core
	// against one serial shard on the same scenario. The sharded record
	// carries the speedup metadata (shards, cores, speedup) the -verify
	// gate requires, so every trajectory point states the parallelism it
	// was measured under — a speedup of ~1 on a one-core runner is expected
	// and readable as such.
	singleRec := record("SchedShardedDiurnal/single", testing.Benchmark(func(b *testing.B) {
		cfg := shardedBenchConfig(1)
		for i := 0; i < b.N; i++ {
			if _, err := pliant.RunSched(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}))
	t.Benchmarks = append(t.Benchmarks, singleRec)
	shards := runtime.GOMAXPROCS(0)
	if shards < 2 {
		shards = 2
	}
	shardedRec := record("SchedShardedDiurnal/sharded", testing.Benchmark(func(b *testing.B) {
		cfg := shardedBenchConfig(shards)
		for i := 0; i < b.N; i++ {
			if _, err := pliant.RunSched(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if shardedRec.Metrics == nil {
		shardedRec.Metrics = map[string]float64{}
	}
	shardedRec.Metrics["shards"] = float64(shards)
	shardedRec.Metrics["cores"] = float64(runtime.GOMAXPROCS(0))
	shardedRec.Metrics["speedup"] = singleRec.NsPerOp / shardedRec.NsPerOp
	if frac, ok := shardedBarrierWaitFrac(shards); ok {
		shardedRec.Metrics["barrier_wait_frac"] = frac
	}
	t.Benchmarks = append(t.Benchmarks, shardedRec)

	// Sustained submissions through the daemon's HTTP ingest path: two
	// concurrent paced submission-only sessions behind one serve.Server,
	// jobs POSTed round-robin, 429 backpressure retried. The record carries
	// the session count and the bounded queue depth (the inflight ceiling
	// backpressure engages at) — the -verify gate rejects serve records
	// without them — plus cores, because on one CPU the sessions' engine
	// windows and the HTTP handlers time-slice a single core.
	serveRec := record("ServeSubmit", testing.Benchmark(func(b *testing.B) {
		srv := pliant.NewServeServer(pliant.ServeOptions{})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		var sessions []*pliant.ServeSession
		var urls []string
		for i := 0; i < serveBenchSessions; i++ {
			sess, err := srv.CreateSession(pliant.ServeSpec{
				Name:       fmt.Sprintf("bench-%d", i),
				SubmitOnly: true,
				Policies:   []string{"first-fit"},
				HorizonSec: 1e7,
				EpochSec:   12,
				TimeScale:  16,
				QueueCap:   serveBenchQueueCap,
				PaceMS:     20,
			})
			if err != nil {
				b.Fatal(err)
			}
			sessions = append(sessions, sess)
			urls = append(urls, ts.URL+"/v1/sessions/"+sess.ID+"/jobs")
		}
		defer func() {
			b.StopTimer()
			for _, s := range sessions {
				s.Stop()
				s.Wait()
			}
		}()
		client := ts.Client()
		const body = `{"jobs":["canneal"]}`
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for {
				resp, err := client.Post(urls[i%len(urls)], "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				status := resp.StatusCode
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if status == http.StatusAccepted {
					break
				}
				if status != http.StatusTooManyRequests {
					b.Fatalf("submit %d: unexpected status %d", i, status)
				}
			}
		}
		b.StopTimer()
		var accepted int
		for _, s := range sessions {
			accepted += s.Status().Accepted
		}
		if accepted < b.N {
			b.Fatalf("sessions accepted %d < %d submitted", accepted, b.N)
		}
		b.ReportMetric(float64(accepted)/b.Elapsed().Seconds(), "submits/s")
	}))
	if serveRec.Metrics == nil {
		serveRec.Metrics = map[string]float64{}
	}
	serveRec.Metrics["sessions"] = serveBenchSessions
	serveRec.Metrics["inflight"] = serveBenchQueueCap
	serveRec.Metrics["cores"] = float64(runtime.GOMAXPROCS(0))
	t.Benchmarks = append(t.Benchmarks, serveRec)

	path := fmt.Sprintf("BENCH_%s.json", label)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return err
	}
	fmt.Printf("pliant-bench: wrote %s (%d benchmarks)\n", path, len(t.Benchmarks))
	for _, r := range t.Benchmarks {
		fmt.Printf("  %-28s %12.1f ns/op %8d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		for k, v := range r.Metrics {
			fmt.Printf("  %s=%.4g", k, v)
		}
		fmt.Println()
	}
	return nil
}

// shardedBarrierWaitFrac runs the sharded bench scenario once with a
// wall-clock observer attached and returns the cluster-wide barrier-wait
// fraction — idle-at-the-merge-barrier nanoseconds over total shard wall
// time. It rides outside the timed benchmark loop (the observer's profile
// channel is wall-clock, not part of the measured op), so the trajectory
// record can say not just how fast the sharded day was but where a missing
// speedup went.
func shardedBarrierWaitFrac(shards int) (float64, bool) {
	o := pliant.NewObserver(pliant.ObserverOptions{})
	cfg := shardedBenchConfig(shards)
	cfg.Obs = o
	res, err := pliant.RunSched(cfg)
	if err != nil {
		return 0, false
	}
	var epNs, waitNs int64
	for _, p := range res.ShardProfiles {
		epNs += p.EpisodeNs
		waitNs += p.BarrierWaitNs
	}
	total := epNs + waitNs
	if total <= 0 {
		return 0, false
	}
	return float64(waitNs) / float64(total), true
}

// verifyTrajectories parses every BENCH_*.json under dir and fails loudly on
// the first unreadable, unparsable, or structurally empty file — the CI
// guard that keeps the perf-trajectory format consumable across PRs.
// Non-fatal honesty findings (a speedup recorded on one core measures
// nothing) go to w as warnings: committed single-core records stay valid
// history, but nobody reads them as a parallelism result.
func verifyTrajectories(dir string, w io.Writer) error {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json files under %s", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var t trajectory
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if t.Label == "" {
			return fmt.Errorf("%s: missing label", p)
		}
		if len(t.Benchmarks) == 0 {
			return fmt.Errorf("%s: no benchmarks", p)
		}
		for _, b := range t.Benchmarks {
			if b.Name == "" || b.NsPerOp <= 0 || b.Iterations <= 0 {
				return fmt.Errorf("%s: malformed benchmark record %+v", p, b)
			}
			// Sharded-runtime records (BENCH_PR4.json onward) must state the
			// parallelism they were measured under: a speedup figure is
			// meaningless without the shard count and the cores it ran on.
			if strings.HasPrefix(b.Name, "SchedShardedDiurnal/sharded") {
				for _, key := range []string{"shards", "cores", "speedup"} {
					if b.Metrics[key] <= 0 {
						return fmt.Errorf("%s: %s missing %s metadata alongside ns/op", p, b.Name, key)
					}
				}
				if b.Metrics["cores"] == 1 {
					fmt.Fprintf(w, "pliant-bench: warning: %s: %s: speedup unmeasured (recorded on 1 core; shards time-slice one CPU)\n", p, b.Name)
				}
			}
			// Trace-replay records (BENCH_PR5.json onward) must state the
			// scale of the trace they replayed: a wall-clock figure is
			// meaningless without the row count parsed and the job count
			// scheduled.
			if strings.HasPrefix(b.Name, "SchedTraceReplay") {
				for _, key := range []string{"rows", "jobs"} {
					if b.Metrics[key] <= 0 {
						return fmt.Errorf("%s: %s missing %s metadata alongside ns/op", p, b.Name, key)
					}
				}
			}
			// Serving-layer records (BENCH_PR8.json onward) must state the
			// ingest surface they were measured against: a submissions/s
			// figure is meaningless without the concurrent session count and
			// the bounded queue depth the 429 backpressure engages at.
			if strings.HasPrefix(b.Name, "ServeSubmit") {
				for _, key := range []string{"sessions", "inflight"} {
					if b.Metrics[key] <= 0 {
						return fmt.Errorf("%s: %s missing %s metadata alongside ns/op", p, b.Name, key)
					}
				}
			}
			// Fault-storm records (BENCH_PR7.json onward) must state the storm
			// they were measured under: a QoS figure for a fault-injected run
			// is meaningless without the MTTF/MTTR regime and the retry budget
			// displaced jobs carried.
			if strings.HasPrefix(b.Name, "SchedFaultStorm") {
				for _, key := range []string{"mttf", "mttr", "retries"} {
					if b.Metrics[key] <= 0 {
						return fmt.Errorf("%s: %s missing %s metadata alongside ns/op", p, b.Name, key)
					}
				}
			}
		}
		fmt.Fprintf(w, "pliant-bench: %s ok (%d benchmarks, label %s)\n", p, len(t.Benchmarks), t.Label)
	}
	return nil
}

// rearmHandler schedules its successor on every fire, modeling the
// steady-state request path.
type rearmHandler struct {
	eng   *sim.Engine
	count uint64
}

func (h *rearmHandler) OnEvent(now sim.Time, _ uint64) {
	h.count++
	h.eng.ScheduleTyped(now+sim.Time(1+h.count%7), h, 0)
}
