package sched

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/approx-sched/pliant/internal/cluster"
	"github.com/approx-sched/pliant/internal/service"
	"github.com/approx-sched/pliant/internal/sim"
	"github.com/approx-sched/pliant/internal/trace"
)

// TestShardInvariance is the shard runtime's core contract: any shard
// count produces results deeply equal to the serial one-shard run — every
// job outcome, every trace point.
func TestShardInvariance(t *testing.T) {
	base := fastConfig(TelemetryAware{})
	base.Shards = 1
	single, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8 /* clamped to the 3 nodes */} {
		cfg := base
		cfg.Shards = shards
		sharded, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(single, sharded) {
			t.Fatalf("shards=%d diverged from the one-shard run", shards)
		}
	}
}

// TestShardInvarianceWithEnergy covers the merge barrier's full surface:
// lifecycle transitions, autoscaler verdicts, frequency states, and the
// per-node energy ledger must all be bit-identical across shard counts and
// across a rerun at the same count.
func TestShardInvarianceWithEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("four full energy runs; skipped in -short")
	}
	runs := energyShardRuns(t)
	for i, sharded := range runs[1:] {
		if !reflect.DeepEqual(runs[0], sharded) {
			t.Fatalf("shards=%d perturbed the energy-managed run", energyShardCounts[i+1])
		}
	}
}

// TestShardConfigEdges pins the defaulting rules: zero and negative counts
// select GOMAXPROCS, counts above the node count clamp, and a four-shard run
// on a one-node cluster degenerates cleanly.
func TestShardConfigEdges(t *testing.T) {
	cfg := fastConfig(FirstFit{})
	cfg.Horizon = 20 * sim.Second
	cfg.Shards = -3
	if _, err := Run(cfg); err != nil {
		t.Fatalf("negative shards: %v", err)
	}
	cfg = fastConfig(FirstFit{})
	cfg.Horizon = 20 * sim.Second
	cfg.Nodes = cfg.Nodes[:1]
	cfg.Shards = 4
	if _, err := Run(cfg); err != nil {
		t.Fatalf("shards above node count: %v", err)
	}
	if got := (Config{Shards: 9, Nodes: testCluster()}).withDefaults().Shards; got != 3 {
		t.Fatalf("shards clamped to %d, want 3", got)
	}
	want := runtime.GOMAXPROCS(0)
	if n := len(testCluster()); want > n {
		want = n
	}
	for _, shards := range []int{0, -3} {
		if got := (Config{Shards: shards, Nodes: testCluster()}).withDefaults().Shards; got != want {
			t.Fatalf("shards=%d defaulted to %d, want min(GOMAXPROCS, nodes) = %d", shards, got, want)
		}
	}
}

// TestShardErrorReporting keeps error behavior independent of the shard
// count: a policy that overfills a node fails the run identically whether
// episodes ran on one shard or several.
func TestShardErrorReporting(t *testing.T) {
	bad := fastConfig(overfillPolicy{})
	bad.Shards = 1
	_, errSingle := Run(bad)
	bad.Shards = 3
	_, errSharded := Run(bad)
	if errSingle == nil || errSharded == nil {
		t.Fatalf("overfilling policy accepted: single=%v sharded=%v", errSingle, errSharded)
	}
	if errSingle.Error() != errSharded.Error() {
		t.Fatalf("error diverged:\nsingle:  %v\nsharded: %v", errSingle, errSharded)
	}
}

// overfillPolicy always picks node 0, ignoring capacity.
type overfillPolicy struct{}

func (overfillPolicy) Name() string               { return "overfill" }
func (overfillPolicy) Place(Job, []NodeState) int { return 0 }

// TestShardGoroutinesReleased pins the shard runtime's lifecycle: a runner
// starts one goroutine per shard after the first, and every way out of a run
// — Finalize, Close on a half-stepped runner, an error return of NewRunner —
// leaves the goroutine count back at its baseline.
func TestShardGoroutinesReleased(t *testing.T) {
	cfg := fastConfig(FirstFit{})
	cfg.Horizon = 20 * sim.Second
	cfg.Nodes = append(testCluster(), cluster.Node{Name: "cache-2", Service: service.Memcached, MaxApps: 3})
	cfg.Shards = 4
	// Earlier tests' goroutines may still be unwinding; the baseline is
	// taken once none of them is a shard loop.
	settle(t, "baseline", math.MaxInt)
	base := runtime.NumGoroutine()

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := shardLoops(); got != 3 {
		t.Fatalf("4-shard runner runs %d shard goroutines, want 3", got)
	}
	for more := true; more; {
		if more, err = r.StepWindow(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Finalize(); err != nil {
		t.Fatal(err)
	}
	settle(t, "Finalize", base)

	r, err = NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.StepWindow(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	settle(t, "Close on a half-stepped runner", base)

	bad := cfg
	bad.JobsPerSec = 0
	bad.Trace = &trace.Trace{Jobs: []trace.Job{
		{ID: "late", ArrivalSec: 5, CPU: 0.2, Mem: 0.2},
		{ID: "early", ArrivalSec: 1, CPU: 0.2, Mem: 0.2},
	}}
	if _, err := NewRunner(bad); err == nil {
		t.Fatal("trace with decreasing arrival instants accepted")
	}
	settle(t, "NewRunner error", base)
}

// settle waits until no shard loop is running and the goroutine count is at
// most limit. An exiting goroutine leaves the count a moment after it
// returns, so the wait polls.
func settle(t *testing.T, what string, limit int) {
	t.Helper()
	for tries := 0; tries < 500; tries++ {
		if shardLoops() == 0 && runtime.NumGoroutine() <= limit {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: %d shard goroutines, %d goroutines, want 0 and at most %d",
		what, shardLoops(), runtime.NumGoroutine(), limit)
}

// shardLoops counts the live shard goroutines, started or not yet
// scheduled, by the spawn site every goroutine dump records.
func shardLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("created by github.com/approx-sched/pliant/internal/sched.newShardGroup"))
}
