package sched

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/trace"
	"github.com/approx-sched/pliant/internal/workload"
)

// testTrace synthesizes and normalizes a small Google-format trace fitting
// the fast test horizon.
func testTrace(t *testing.T, jobs int, spanSec float64) *trace.Trace {
	t.Helper()
	raw := trace.Synthesize(trace.SynthConfig{Format: trace.Google, Jobs: 4 * jobs, Seed: 23})
	tr, err := trace.Parse(bytes.NewReader(raw), trace.Google)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := tr.Normalize(trace.Options{TargetSpanSec: spanSec, MaxJobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

func TestJobsFromTrace(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{
		{ID: "light", CPU: 0.1, Mem: 0.1},
		{ID: "heavy", CPU: 0.9, Mem: 0.9},
		{ID: "mid", CPU: 0.5, Mem: 0.5},
	}}
	names, err := JobsFromTrace(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("mapped %d names", len(names))
	}
	// Demand order maps onto pressure order: the heaviest trace job gets an
	// app at least as heavy as the lightest's.
	pressure := func(name string) float64 {
		p, err := app.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return PressureOf(p)
	}
	if pressure(names[1]) < pressure(names[0]) || pressure(names[1]) < pressure(names[2]) {
		t.Errorf("heavy trace job mapped to %s (%.1f) below %s (%.1f)/%s (%.1f)",
			names[1], pressure(names[1]), names[0], pressure(names[0]), names[2], pressure(names[2]))
	}
	// The mapping is a pure function: same inputs, same names.
	again, _ := JobsFromTrace(tr, nil)
	if !reflect.DeepEqual(names, again) {
		t.Error("mapping not deterministic")
	}
	// Candidate narrowing: every mapped name stays inside the candidate set.
	narrow, err := JobsFromTrace(tr, []string{"canneal", "SNP"})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range narrow {
		if n != "canneal" && n != "SNP" {
			t.Errorf("mapped name %s outside candidates", n)
		}
	}
	if _, err := JobsFromTrace(&trace.Trace{}, nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := JobsFromTrace(tr, []string{"no-such-app"}); err == nil {
		t.Error("unknown candidate accepted")
	}
}

// TestSchedTraceReplay runs the scheduler on a replayed trace: every trace
// job whose instant falls inside the horizon arrives exactly once, the run
// is deterministic, and a two-shard run reproduces the one-shard bytes.
func TestSchedTraceReplay(t *testing.T) {
	tr := testTrace(t, 12, 50)
	cfg := fastConfig(TelemetryAware{})
	cfg.JobsPerSec = 0
	cfg.Trace = tr
	cfg.Shards = 1

	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	within := 0
	for _, j := range tr.Jobs {
		if j.ArrivalSec < cfg.Horizon.Seconds() {
			within++
		}
	}
	if res.Arrived != within {
		t.Errorf("arrived %d jobs, trace has %d inside the horizon", res.Arrived, within)
	}
	if res.Completed == 0 {
		t.Error("no trace job completed")
	}
	// Arrival instants match the trace (modulo nanosecond rounding and the
	// 1ns duplicate collapse).
	for i, j := range res.Jobs {
		if d := j.ArrivalSec - tr.Jobs[i].ArrivalSec; d < -1e-6 || d > 1e-6 {
			t.Fatalf("job %d arrived at %vs, trace says %vs", i, j.ArrivalSec, tr.Jobs[i].ArrivalSec)
		}
	}

	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Error("trace replay not deterministic across runs")
	}

	sharded := cfg
	sharded.Shards = 2
	sres, err := Run(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Jobs, sres.Jobs) || res.QoSMetFrac != sres.QoSMetFrac {
		t.Error("two-shard trace replay diverges from one shard")
	}
}

func TestTraceConfigValidation(t *testing.T) {
	tr := testTrace(t, 6, 50)
	cfg := fastConfig(FirstFit{})
	cfg.Trace = tr
	cfg.Arrivals = workload.Uniform{QPS: 1}
	if _, err := Run(cfg); err == nil {
		t.Error("Trace alongside Arrivals accepted")
	}
	cfg = fastConfig(FirstFit{})
	cfg.Trace = &trace.Trace{}
	if _, err := Run(cfg); err == nil {
		t.Error("empty trace accepted")
	}
	// A trace needs no JobsPerSec: the stream sizes itself.
	cfg = fastConfig(FirstFit{})
	cfg.JobsPerSec = 0
	cfg.Trace = tr
	if _, err := Run(cfg); err != nil {
		t.Errorf("trace-only config rejected: %v", err)
	}
}

// TestAzureTraceReplay runs the scheduler on an Azure-format trace: both
// supported schemas reach the pending queue through the same trace.Job path.
func TestAzureTraceReplay(t *testing.T) {
	raw := trace.Synthesize(trace.SynthConfig{Format: trace.Azure, Jobs: 40, Seed: 31})
	parsed, err := trace.Parse(bytes.NewReader(raw), trace.Azure)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := parsed.Normalize(trace.Options{TargetSpanSec: 50, MaxJobs: 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(FirstFit{})
	cfg.JobsPerSec = 0
	cfg.Trace = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 10 || res.Completed == 0 {
		t.Errorf("azure replay: arrived=%d completed=%d", res.Arrived, res.Completed)
	}
}

// TestTraceReplayWithEnergyAndAutoscaler exercises the full stack the issue
// names: trace arrivals driving a sharded, energy-modeled, autoscaled run.
func TestTraceReplayWithEnergyAndAutoscaler(t *testing.T) {
	tr := testTrace(t, 10, 100)
	cfg := energyConfig(11, TelemetryAware{}, approxForWatts())
	cfg.JobsPerSec = 0
	cfg.Trace = tr
	cfg.Shards = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 || res.Joules <= 0 {
		t.Errorf("arrived=%d joules=%v — energy-managed replay did not run", res.Arrived, res.Joules)
	}
}
