package sched

import (
	"reflect"
	"testing"

	"github.com/approx-sched/pliant/internal/autoscale"
	"github.com/approx-sched/pliant/internal/energy"
	"github.com/approx-sched/pliant/internal/obs"
	"github.com/approx-sched/pliant/internal/platform"
)

// TestAutoscaleConstantsPinned pins the numeric values of the lifecycle
// states and action kinds. internal/obs renders them by value (its Chrome
// exporter's name tables index by these numbers so obs never imports the
// scheduler stack); reordering the constants would silently mislabel every
// trace, so the mirror is enforced here.
func TestAutoscaleConstantsPinned(t *testing.T) {
	states := map[autoscale.State]int{
		autoscale.Active:   0, // obs renders "active"
		autoscale.Draining: 1, // "draining"
		autoscale.Parked:   2, // "parked"
		autoscale.Waking:   3, // "waking"
	}
	for s, want := range states {
		if int(s) != want {
			t.Errorf("autoscale.State %v = %d, obs name tables expect %d", s, int(s), want)
		}
	}
	actions := map[autoscale.ActionKind]int{
		autoscale.Park:    0, // "park"
		autoscale.Wake:    1, // "wake"
		autoscale.SetFreq: 2, // "setfreq"
	}
	for a, want := range actions {
		if int(a) != want {
			t.Errorf("autoscale.ActionKind %v = %d, obs name tables expect %d", a, int(a), want)
		}
	}
}

// obsConfig is a small energy-managed run exercising every emission point:
// placements, deferral-capable admission, autoscaler verdicts, lifecycle
// transitions, and energy metrics.
func obsConfig(shards int, o *obs.Observer) Config {
	cfg := fastConfig(TelemetryAware{})
	model := energy.ModelFor(platform.TablePlatform())
	cfg.Energy = &model
	cfg.Autoscaler = autoscale.Consolidate{}
	cfg.Shards = shards
	cfg.Obs = o
	return cfg
}

// TestObsEmissionConsistency cross-checks tracer record counts and metric
// totals against the run's own Result: every aggregate the observer reports
// must agree with what the scheduler counted.
func TestObsEmissionConsistency(t *testing.T) {
	o := obs.New(obs.Options{})
	cfg := obsConfig(1, o)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := o.Tracer
	wantWindows := uint64(cfg.Horizon / cfg.Epoch)
	if got := tr.CountOf(obs.KindWindow); got != wantWindows {
		t.Errorf("window records = %d, want %d", got, wantWindows)
	}
	if got := tr.CountOf(obs.KindEpisode); got != uint64(res.Episodes) {
		t.Errorf("episode records = %d, Result.Episodes %d", got, res.Episodes)
	}
	// One placement record per decision: every placed job decided once, plus
	// one record per deferral event.
	deferrals := 0
	for _, j := range res.Jobs {
		deferrals += jobDeferrals(t, tr, j.ID)
	}
	if got := int(tr.CountOf(obs.KindPlacement)); got < res.Placed {
		t.Errorf("placement records = %d, below placed jobs %d", got, res.Placed)
	}
	if tr.Total() == 0 || tr.Dropped() != 0 {
		t.Fatalf("total=%d dropped=%d", tr.Total(), tr.Dropped())
	}

	// Metrics must agree with the Result aggregates.
	pol := obs.Label{Key: "policy", Value: res.Policy}
	if got := o.Metrics.Counter("pliant_jobs_arrived_total", "").Value(); got != float64(res.Arrived) {
		t.Errorf("jobs_arrived_total = %v, Result.Arrived %d", got, res.Arrived)
	}
	if got := o.Metrics.Counter("pliant_jobs_placed_total", "", pol).Value(); got != float64(res.Placed) {
		t.Errorf("jobs_placed_total = %v, Result.Placed %d", got, res.Placed)
	}
	if got := o.Metrics.Counter("pliant_episodes_total", "").Value(); got != float64(res.Episodes) {
		t.Errorf("episodes_total = %v, Result.Episodes %d", got, res.Episodes)
	}
	if got := o.Metrics.Counter("pliant_joules_total", "").Value(); !closeTo(got, res.Joules, 1e-6) {
		t.Errorf("joules_total = %v, Result.Joules %v", got, res.Joules)
	}
	if got := o.Metrics.Snapshots(); got != int(wantWindows) {
		t.Errorf("snapshots = %d, want one per window (%d)", got, wantWindows)
	}

	// A one-shard run profiles the coordinator's inline shard as shard 0.
	if len(res.ShardProfiles) != 1 {
		t.Fatalf("profiles = %d, want 1", len(res.ShardProfiles))
	}
	if p := res.ShardProfiles[0]; p.Episodes != res.Episodes || p.EpisodeNs <= 0 {
		t.Errorf("profile = %+v, want %d episodes and positive wall time", p, res.Episodes)
	}
}

// jobDeferrals counts the deferral records of one job in the retained ring.
func jobDeferrals(t *testing.T, tr *obs.Tracer, id int) int {
	t.Helper()
	n := 0
	tr.Records(func(r obs.Record) {
		if r.Kind == obs.KindPlacement && r.A == int64(id) && r.Node < 0 {
			n++
		}
	})
	return n
}

func closeTo(a, b, eps float64) bool {
	d := a - b
	return d < eps && d > -eps
}

// TestObsDoesNotPerturbRun is the layer's core contract at the struct level
// (the repo goldens pin it at the byte level): a run with an observer
// attached produces a Result identical to the same run without, profiles
// aside.
func TestObsDoesNotPerturbRun(t *testing.T) {
	for _, shards := range []int{1, 2} {
		plain, err := Run(obsConfig(shards, nil))
		if err != nil {
			t.Fatal(err)
		}
		observed, err := Run(obsConfig(shards, obs.New(obs.Options{})))
		if err != nil {
			t.Fatal(err)
		}
		if len(observed.ShardProfiles) != shards {
			t.Errorf("shards=%d: %d profiles", shards, len(observed.ShardProfiles))
		}
		observed.ShardProfiles = nil
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("shards=%d: observed run's Result diverged from plain run", shards)
		}
	}
}

// TestObsShardProfileAccounting checks the sharded wall-clock channel: every
// shard accounts its windows, the episode totals add up, and barrier waits
// stay non-negative.
func TestObsShardProfileAccounting(t *testing.T) {
	o := obs.New(obs.Options{})
	res, err := Run(obsConfig(2, o))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShardProfiles) != 2 {
		t.Fatalf("profiles = %d", len(res.ShardProfiles))
	}
	episodes := 0
	for i, p := range res.ShardProfiles {
		if p.Shard != i {
			t.Errorf("profile %d has shard index %d", i, p.Shard)
		}
		if p.Windows == 0 || p.EpisodeNs < 0 || p.BarrierWaitNs < 0 {
			t.Errorf("profile %d implausible: %+v", i, p)
		}
		if f := p.BarrierWaitFrac(); f < 0 || f > 1 {
			t.Errorf("profile %d barrier frac %v outside [0,1]", i, f)
		}
		episodes += p.Episodes
	}
	if episodes != res.Episodes {
		t.Errorf("profiled episodes %d != Result.Episodes %d", episodes, res.Episodes)
	}
}

// TestObsTraceReplayRecord checks replayed runs announce their ingestion
// losses: the first record is the replay-drop summary.
func TestObsTraceReplayRecord(t *testing.T) {
	tr := testTrace(t, 24, 50)
	o := obs.New(obs.Options{})
	cfg := fastConfig(FirstFit{})
	cfg.JobsPerSec = 0
	cfg.Trace = tr
	cfg.Obs = o
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := o.Tracer.CountOf(obs.KindReplayDrop); got != 1 {
		t.Fatalf("replay-drop records = %d, want 1", got)
	}
	first := obs.Record{}
	seen := false
	o.Tracer.Records(func(r obs.Record) {
		if !seen {
			first, seen = r, true
		}
	})
	if first.Kind != obs.KindReplayDrop {
		t.Errorf("first record kind = %v, want replay-drop", first.Kind)
	}
	if first.C != int64(len(tr.Jobs)) {
		t.Errorf("replay-drop jobs = %d, trace has %d", first.C, len(tr.Jobs))
	}
}
