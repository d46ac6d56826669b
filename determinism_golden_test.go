// Golden determinism tests for the simulation core. The constants below were
// recorded from the closure-based container/heap engine before the
// allocation-free rewrite (PR 2); the rewritten engine, service, client,
// histogram, and episode-scratch paths must reproduce them byte for byte.
// They complement TestSchedExportDeterminism (same-binary determinism) by
// pinning outputs across refactors of the hot path.
//
// To re-record after an intentional semantic change, run:
//
//	PLIANT_GOLDEN=print go test -run TestGolden -v .
//
// and update the constants from the log output.
package pliant_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	pliant "github.com/approx-sched/pliant"
)

// goldenScenario is the recorded outcome of one managed colocation episode:
// the BenchmarkScenarioPliant configuration at seed 7.
//
// Every golden below was re-recorded when sim.RNG's normal and exponential
// samplers became ziggurats: each stream that draws a service demand, an
// arrival gap or a fault time changed, so every pinned value moved.
const (
	goldenScenarioServed  = 556722
	goldenScenarioDropped = 0
	goldenScenarioP99     = 8050970
	goldenScenarioJSON    = "4de721a4142bb13a6a64724d843e0ffdac4e3bea08aae7e22d53d1aa571383ee"
	goldenScenarioCSV     = "c6d285c6424e95867e825043b824288c9ecfd3a1430258470fb89fdf1c592d10"

	// The sched and energy goldens were re-recorded in PR 4 when the
	// per-episode seed derivation moved from an XOR of multiplied counters
	// (collision-prone across (node, window) pairs) to a splitmix64 mix —
	// an intentional, documented output change: every node-window episode
	// draws from a different (now decorrelated) random stream, so all
	// sched-level figures shifted. The scenario goldens predate the episode
	// seeder and are unchanged.
	goldenSchedQoSMetFrac = "1"
	goldenSchedJSON       = "094718180f0f53f38a40699d8cf472639ca5db7bd1fd7c2b78a0bc9b3fbd625d"
	goldenSchedCSV        = "cca9a352273ba500a0a0473f397a7b99293cc7916ea42660831446d6858807ee"

	// goldenEnergy pins the energy subsystem (PR 3): the approx-for-watts
	// bundle over a compressed diurnal day with the Table 1 power model.
	// Joules is an exact float print — energy accumulation must stay
	// bit-deterministic across refactors, worker counts included.
	goldenEnergyQoSMetFrac = "0.875"
	goldenEnergyJoules     = "17063.462090203364"
	goldenEnergyJSON       = "e730ea78bc6a84f10720521c567e74e43e2780636cdcabefa7b40e6ad37c99bf"
	goldenEnergyCSV        = "874d2c006bf5ba67027599c537cd133135a7c3ecf9a42940300a0f58c184205b"

	// goldenShard pins the sharded multi-engine runtime (PR 4): a six-node
	// energy-managed day must export byte-identical JSON/CSV at every shard
	// count. The constants are recorded from the one-shard path; the
	// test replays the run at shards=2 and shards=4 against the same pins.
	goldenShardJSON = "908cc234febac5c2b228712d0a3920a08435a1fe5cbae5cc38a9a83dbbccb424"
	goldenShardCSV  = "91ccf717c6dd0f980c59a7907989a53efb8a5d8e63cf640fc56442cb16225c58"

	// goldenTrace pins the trace-ingestion pipeline end to end (PR 5): a
	// schema-exact Google-format trace synthesized in memory, parsed through
	// the streaming ingester, normalized (rebase, compress, down-sample),
	// and replayed through the six-node energy-managed scheduler. The
	// constants are recorded from the one-shard path; the test replays
	// the identical run at shards=2 and shards=4 against the same pins.
	goldenTraceJSON = "30a6fd1cd9ca8e7c67b14d619a12d49b396de280053b97261bb1237a0cbbc153"
	goldenTraceCSV  = "3655caa0b51a78ca18949e2eb38d51d0f6a525d89ceb31bdd1bb4a2d838610cc"

	// goldenObs pins the observability layer (PR 6): the shard golden's
	// six-node energy-managed day, run with an Observer attached, must export
	// byte-identical Chrome-trace JSON, Prometheus text, and metrics CSV at
	// every shard count — all tracer records and metric increments are
	// emitted from the coordinator's serial sections, which shard counts
	// don't reorder. The same test asserts the obs-on run's result JSON still
	// hashes to goldenShardJSON: attaching an observer never perturbs the
	// simulation.
	goldenObsChrome = "ae22b3fae3654f58cff00d53c027d7bb132edee77efb115e3d784c36395d1a46"
	goldenObsProm   = "64c38fe49f6af04893f44262bbe1788b9edc86565cd2e3df4b507701252ec1ef"
	goldenObsCSV    = "a07d215247326fbcd72093004e97cdfbe60e82a7f10dfd99c8201699f72cc53b"

	// goldenFault pins fault injection (PR 7): the shard golden's six-node
	// energy-managed day with every fault process armed — MTTF/MTTR crash
	// churn, a scripted two-node rack outage through the first peak, telemetry
	// dropouts, and straggler windows. Fault events are consumed and applied
	// only on the coordinator's serial sections, so the run must export
	// byte-identical JSON/CSV at shards 1, 2, and 4, with an observer attached
	// or not.
	goldenFaultJSON = "5a5880a846a56807cee391b6d2f56395d85e3c1703c96fdeded0cf7ae297e46d"
	goldenFaultCSV  = "81fc8fa63d35979cec266fc265631eeb6afb4ae14f46cc3cdc214edef041ff99"
)

func goldenScenarioConfig() pliant.ScenarioConfig {
	return pliant.ScenarioConfig{
		Seed:         7,
		Service:      pliant.Memcached,
		AppNames:     []string{"canneal"},
		Runtime:      pliant.RuntimePliant,
		LoadFraction: 0.78,
		TimeScale:    16,
	}
}

func goldenSchedConfig() pliant.SchedConfig {
	shape, _ := pliant.NewDiurnalLoad(0.25, 60)
	return pliant.SchedConfig{
		Seed: 42,
		Nodes: []pliant.ClusterNode{
			{Name: "cache-1", Service: pliant.Memcached, MaxApps: 2},
			{Name: "web-1", Service: pliant.NGINX, MaxApps: 2},
		},
		Policy:     pliant.FirstFitPlacement{},
		Horizon:    60 * pliant.Second,
		Epoch:      10 * pliant.Second,
		JobsPerSec: 0.15,
		BaseLoad:   0.65,
		Shape:      shape,
		TimeScale:  16,
	}
}

func goldenEnergyConfig() pliant.SchedConfig {
	cfg := goldenSchedConfig()
	cfg.Nodes = append(cfg.Nodes, pliant.ClusterNode{Name: "db-1", Service: pliant.MongoDB, MaxApps: 2})
	model := pliant.EnergyModelFor(pliant.TablePlatform())
	cfg.Energy = &model
	cfg.Policy = pliant.TelemetryAwarePlacement{}
	cfg.Autoscaler = pliant.ApproxForWattsAutoscaler{
		Consolidate: pliant.ConsolidateAutoscaler{ReserveSlots: 2},
		LowWater:    0.6,
	}
	return cfg
}

// goldenShardConfig is the sharded-runtime golden scenario: six nodes (so a
// four-way shard split is non-degenerate), the Table 1 power model, and the
// approx-for-watts bundle, exercising every merge-barrier surface (episode
// folds, telemetry roll-ups, lifecycle, verdicts, energy ledger).
func goldenShardConfig(shards int) pliant.SchedConfig {
	cfg := goldenEnergyConfig()
	cfg.Nodes = append(cfg.Nodes,
		pliant.ClusterNode{Name: "cache-2", Service: pliant.Memcached, MaxApps: 2},
		pliant.ClusterNode{Name: "web-2", Service: pliant.NGINX, MaxApps: 2},
		pliant.ClusterNode{Name: "db-2", Service: pliant.MongoDB, MaxApps: 2},
	)
	cfg.JobsPerSec = 0.25
	cfg.Shards = shards
	return cfg
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func TestGoldenScenario(t *testing.T) {
	res, err := pliant.RunScenario(goldenScenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	var js, csv bytes.Buffer
	if err := pliant.WriteResultJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	if err := pliant.WriteTraceCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("PLIANT_GOLDEN") == "print" {
		t.Logf("goldenScenarioServed  = %d", res.Served)
		t.Logf("goldenScenarioDropped = %d", res.Dropped)
		t.Logf("goldenScenarioP99     = %d", int64(res.OverallP99))
		t.Logf("goldenScenarioJSON    = %q", sha(js.Bytes()))
		t.Logf("goldenScenarioCSV     = %q", sha(csv.Bytes()))
		return
	}
	if res.Served != goldenScenarioServed {
		t.Errorf("Served = %d, golden %d", res.Served, goldenScenarioServed)
	}
	if res.Dropped != goldenScenarioDropped {
		t.Errorf("Dropped = %d, golden %d", res.Dropped, goldenScenarioDropped)
	}
	if int64(res.OverallP99) != goldenScenarioP99 {
		t.Errorf("OverallP99 = %d, golden %d", int64(res.OverallP99), goldenScenarioP99)
	}
	if got := sha(js.Bytes()); got != goldenScenarioJSON {
		t.Errorf("result JSON hash = %s, golden %s", got, goldenScenarioJSON)
	}
	if got := sha(csv.Bytes()); got != goldenScenarioCSV {
		t.Errorf("trace CSV hash = %s, golden %s", got, goldenScenarioCSV)
	}
}

func TestGoldenSched(t *testing.T) {
	res, err := pliant.RunSched(goldenSchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var js, csv bytes.Buffer
	if err := pliant.WriteSchedResultJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	if err := pliant.WriteSchedTraceCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	qos := fmt.Sprintf("%.17g", res.QoSMetFrac)
	if os.Getenv("PLIANT_GOLDEN") == "print" {
		t.Logf("goldenSchedQoSMetFrac = %q", qos)
		t.Logf("goldenSchedJSON       = %q", sha(js.Bytes()))
		t.Logf("goldenSchedCSV        = %q", sha(csv.Bytes()))
		return
	}
	if qos != goldenSchedQoSMetFrac {
		t.Errorf("QoSMetFrac = %s, golden %s", qos, goldenSchedQoSMetFrac)
	}
	if got := sha(js.Bytes()); got != goldenSchedJSON {
		t.Errorf("sched JSON hash = %s, golden %s", got, goldenSchedJSON)
	}
	if got := sha(csv.Bytes()); got != goldenSchedCSV {
		t.Errorf("sched trace CSV hash = %s, golden %s", got, goldenSchedCSV)
	}
}

// TestGoldenShardInvariance is the sharded runtime's acceptance golden:
// sched.Run at shards=2 and shards=4 must produce byte-identical JSON and
// CSV exports to the one-shard path (shards=1), pinned by hash so a
// divergence in any shard-merge order fails loudly. It runs in -short (and
// so under the CI race job, where the shard goroutines' handoff is the
// interesting surface).
func TestGoldenShardInvariance(t *testing.T) {
	export := func(shards int) (js, csv []byte) {
		t.Helper()
		res, err := pliant.RunSched(goldenShardConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := pliant.WriteSchedResultJSON(&j, res); err != nil {
			t.Fatal(err)
		}
		if err := pliant.WriteSchedTraceCSV(&c, res); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	js1, csv1 := export(1)
	if os.Getenv("PLIANT_GOLDEN") == "print" {
		t.Logf("goldenShardJSON = %q", sha(js1))
		t.Logf("goldenShardCSV  = %q", sha(csv1))
		return
	}
	if got := sha(js1); got != goldenShardJSON {
		t.Errorf("one-shard JSON hash = %s, golden %s", got, goldenShardJSON)
	}
	if got := sha(csv1); got != goldenShardCSV {
		t.Errorf("one-shard CSV hash = %s, golden %s", got, goldenShardCSV)
	}
	for _, shards := range []int{2, 4} {
		js, csv := export(shards)
		if !bytes.Equal(js, js1) {
			t.Errorf("shards=%d JSON differs from one-shard bytes", shards)
		}
		if !bytes.Equal(csv, csv1) {
			t.Errorf("shards=%d CSV differs from one-shard bytes", shards)
		}
	}
}

// goldenTraceConfig is the trace-replay golden scenario: the shard golden's
// six-node energy-managed cluster, with the job stream replaced by a
// replayed synthetic Google-format trace (heavy-tailed gaps, flash burst)
// compressed to fit the 60-second horizon.
func goldenTraceConfig(t *testing.T, shards int) pliant.SchedConfig {
	t.Helper()
	raw := pliant.SynthesizeTrace(pliant.TraceSynthConfig{
		Format:  pliant.GoogleTraceFormat,
		Jobs:    120,
		SpanSec: 3600,
		Seed:    9,
	})
	parsed, err := pliant.ParseTrace(bytes.NewReader(raw), pliant.GoogleTraceFormat)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := parsed.Normalize(pliant.TraceOptions{TargetSpanSec: 50, MaxJobs: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenShardConfig(shards)
	cfg.JobsPerSec = 0
	cfg.Trace = tr
	return cfg
}

// TestGoldenTraceReplay is the trace pipeline's determinism contract:
// synthesize → parse → normalize → replay must export byte-identical JSON
// and CSV across shard counts 1, 2, and 4, pinned by hash so a divergence
// anywhere in the chain — fixture bytes, parser, normalization arithmetic,
// stream replay, shard merge — fails loudly. Runs in -short (and under the
// CI race job via an explicit step).
func TestGoldenTraceReplay(t *testing.T) {
	export := func(shards int) (js, csv []byte) {
		t.Helper()
		res, err := pliant.RunSched(goldenTraceConfig(t, shards))
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := pliant.WriteSchedResultJSON(&j, res); err != nil {
			t.Fatal(err)
		}
		if err := pliant.WriteSchedTraceCSV(&c, res); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	js1, csv1 := export(1)
	if os.Getenv("PLIANT_GOLDEN") == "print" {
		t.Logf("goldenTraceJSON = %q", sha(js1))
		t.Logf("goldenTraceCSV  = %q", sha(csv1))
		return
	}
	if got := sha(js1); got != goldenTraceJSON {
		t.Errorf("trace-replay JSON hash = %s, golden %s", got, goldenTraceJSON)
	}
	if got := sha(csv1); got != goldenTraceCSV {
		t.Errorf("trace-replay CSV hash = %s, golden %s", got, goldenTraceCSV)
	}
	for _, shards := range []int{2, 4} {
		js, csv := export(shards)
		if !bytes.Equal(js, js1) {
			t.Errorf("shards=%d trace-replay JSON differs from one-shard bytes", shards)
		}
		if !bytes.Equal(csv, csv1) {
			t.Errorf("shards=%d trace-replay CSV differs from one-shard bytes", shards)
		}
	}
}

// TestGoldenObs is the observability layer's acceptance golden: the obs
// exports (Chrome trace, Prometheus text, metrics CSV) of the shard golden
// day are pinned by hash and must be byte-identical at shards 1, 2, and 4,
// while the run's result JSON stays byte-identical to the obs-off golden
// (goldenShardJSON) — observation never perturbs the simulation. Runs in
// -short (and under the CI race job via an explicit step, where the shard
// goroutines' profiler writes are the interesting surface).
func TestGoldenObs(t *testing.T) {
	export := func(shards int) (js, chrome, prom, mcsv []byte) {
		t.Helper()
		cfg := goldenShardConfig(shards)
		cfg.Obs = pliant.NewObserver(pliant.ObserverOptions{})
		res, err := pliant.RunSched(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ShardProfiles) != shards {
			t.Errorf("shards=%d: %d shard profiles", shards, len(res.ShardProfiles))
		}
		var j bytes.Buffer
		if err := pliant.WriteSchedResultJSON(&j, res); err != nil {
			t.Fatal(err)
		}
		meta := pliant.ObsTraceMeta{Policy: res.Policy}
		for _, n := range cfg.Nodes {
			meta.NodeNames = append(meta.NodeNames, n.Name)
		}
		var ch, pr, mc bytes.Buffer
		if err := pliant.WriteChromeTrace(&ch, cfg.Obs.Tracer, meta); err != nil {
			t.Fatal(err)
		}
		if err := pliant.WriteMetricsProm(&pr, cfg.Obs.Metrics); err != nil {
			t.Fatal(err)
		}
		if err := pliant.WriteMetricsCSV(&mc, cfg.Obs.Metrics); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), ch.Bytes(), pr.Bytes(), mc.Bytes()
	}
	js1, ch1, pr1, mc1 := export(1)
	if os.Getenv("PLIANT_GOLDEN") == "print" {
		t.Logf("goldenObsChrome = %q", sha(ch1))
		t.Logf("goldenObsProm   = %q", sha(pr1))
		t.Logf("goldenObsCSV    = %q", sha(mc1))
		return
	}
	if got := sha(js1); got != goldenShardJSON {
		t.Errorf("obs-on result JSON hash = %s, obs-off golden %s (observation perturbed the run)", got, goldenShardJSON)
	}
	if got := sha(ch1); got != goldenObsChrome {
		t.Errorf("chrome trace hash = %s, golden %s", got, goldenObsChrome)
	}
	if got := sha(pr1); got != goldenObsProm {
		t.Errorf("prometheus text hash = %s, golden %s", got, goldenObsProm)
	}
	if got := sha(mc1); got != goldenObsCSV {
		t.Errorf("metrics CSV hash = %s, golden %s", got, goldenObsCSV)
	}
	for _, shards := range []int{2, 4} {
		js, ch, pr, mc := export(shards)
		if !bytes.Equal(js, js1) {
			t.Errorf("shards=%d obs-on result JSON differs from one-shard bytes", shards)
		}
		if !bytes.Equal(ch, ch1) {
			t.Errorf("shards=%d chrome trace differs from one-shard bytes", shards)
		}
		if !bytes.Equal(pr, pr1) {
			t.Errorf("shards=%d prometheus text differs from one-shard bytes", shards)
		}
		if !bytes.Equal(mc, mc1) {
			t.Errorf("shards=%d metrics CSV differs from one-shard bytes", shards)
		}
	}
}

// goldenFaultConfig is the fault-injection golden scenario: the shard
// golden's six-node energy-managed day with all four fault processes armed
// over the 60-second horizon. The knobs are sized so every event kind
// actually fires: the outage takes domain 1 (web-1, db-1) down through the
// first peak, the renewal crash process adds uncorrelated churn, and the
// dropout/straggler windows are short enough to open and close in-horizon.
func goldenFaultConfig(shards int) pliant.SchedConfig {
	cfg := goldenShardConfig(shards)
	cfg.Faults = &pliant.FaultPlan{
		MTTFSec:          90,
		MTTRSec:          8,
		DomainSize:       2,
		Outages:          []pliant.FaultOutage{{AtSec: 22, Domain: 1, DurationSec: 15}},
		StaleMTBFSec:     40,
		StaleDurSec:      12,
		StragglerMTBFSec: 45,
		StragglerDurSec:  10,
		RetryBackoffSec:  2,
	}
	return cfg
}

// TestGoldenFaultStorm is the fault subsystem's acceptance golden: the
// fault-injected day must export byte-identical JSON and CSV at shards 1, 2,
// and 4, and an obs-on run must reproduce the obs-off result bytes — crash
// requeues, retry backoff, recovery, stale-telemetry fallback, and straggler
// slowdowns all land on coordinator serial sections that shard counts and
// observers don't reorder. Runs in -short (and under the CI race job via an
// explicit step).
func TestGoldenFaultStorm(t *testing.T) {
	export := func(shards int, observe bool) (js, csv []byte) {
		t.Helper()
		cfg := goldenFaultConfig(shards)
		if observe {
			cfg.Obs = pliant.NewObserver(pliant.ObserverOptions{})
		}
		res, err := pliant.RunSched(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes == 0 || res.Requeued == 0 {
			t.Errorf("shards=%d: fault plan injected nothing (crashes=%d requeued=%d)",
				shards, res.Crashes, res.Requeued)
		}
		var j, c bytes.Buffer
		if err := pliant.WriteSchedResultJSON(&j, res); err != nil {
			t.Fatal(err)
		}
		if err := pliant.WriteSchedTraceCSV(&c, res); err != nil {
			t.Fatal(err)
		}
		return j.Bytes(), c.Bytes()
	}
	js1, csv1 := export(1, false)
	if os.Getenv("PLIANT_GOLDEN") == "print" {
		t.Logf("goldenFaultJSON = %q", sha(js1))
		t.Logf("goldenFaultCSV  = %q", sha(csv1))
		return
	}
	if got := sha(js1); got != goldenFaultJSON {
		t.Errorf("fault-storm JSON hash = %s, golden %s", got, goldenFaultJSON)
	}
	if got := sha(csv1); got != goldenFaultCSV {
		t.Errorf("fault-storm CSV hash = %s, golden %s", got, goldenFaultCSV)
	}
	for _, shards := range []int{2, 4} {
		js, csv := export(shards, false)
		if !bytes.Equal(js, js1) {
			t.Errorf("shards=%d fault-storm JSON differs from one-shard bytes", shards)
		}
		if !bytes.Equal(csv, csv1) {
			t.Errorf("shards=%d fault-storm CSV differs from one-shard bytes", shards)
		}
	}
	jsObs, csvObs := export(1, true)
	if !bytes.Equal(jsObs, js1) {
		t.Error("obs-on fault-storm JSON differs from obs-off bytes (observation perturbed the run)")
	}
	if !bytes.Equal(csvObs, csv1) {
		t.Error("obs-on fault-storm CSV differs from obs-off bytes")
	}
}

// TestFaultRetryLedgerBalances is the recovery path's conservation property:
// across crash storms far harsher than the golden plan — MTTF a fraction of
// the horizon, repeated rack outages, a tight retry budget — no job may be
// lost untracked or double-run. Every arrival is accounted exactly once
// (placed, still pending, or lost after exhausting its budget), requeues
// equal the jobs' summed retry counts, no job is both done and lost, and a
// lost job never reports a node or completion.
func TestFaultRetryLedgerBalances(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1001} {
		cfg := goldenFaultConfig(1)
		cfg.Seed = seed
		cfg.Faults = &pliant.FaultPlan{
			MTTFSec:    15,
			MTTRSec:    5,
			DomainSize: 2,
			Outages: []pliant.FaultOutage{
				{AtSec: 12, Domain: 0, DurationSec: 10},
				{AtSec: 30, Domain: 2, DurationSec: 12},
			},
			RetryBudget:     2,
			RetryBackoffSec: 1,
		}
		res, err := pliant.RunSched(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes == 0 || res.Requeued == 0 {
			t.Fatalf("seed %d: storm injected nothing (crashes=%d requeued=%d)",
				seed, res.Crashes, res.Requeued)
		}
		if got := res.Placed + res.Pending + res.JobsLost; got != res.Arrived {
			t.Errorf("seed %d: ledger leak: placed %d + pending %d + lost %d = %d, arrived %d",
				seed, res.Placed, res.Pending, res.JobsLost, got, res.Arrived)
		}
		if len(res.Jobs) != res.Arrived {
			t.Errorf("seed %d: %d job outcomes for %d arrivals", seed, len(res.Jobs), res.Arrived)
		}
		retrySum, lost, seen := 0, 0, make(map[int]bool)
		for _, j := range res.Jobs {
			if seen[j.ID] {
				t.Errorf("seed %d: job %d appears twice", seed, j.ID)
			}
			seen[j.ID] = true
			retrySum += j.Retries
			if j.Retries > cfg.Faults.RetryBudget {
				t.Errorf("seed %d: job %d retried %d times, budget %d",
					seed, j.ID, j.Retries, cfg.Faults.RetryBudget)
			}
			if j.Lost {
				lost++
				if j.Done || j.Node != "" {
					t.Errorf("seed %d: lost job %d still reports done=%v node=%q",
						seed, j.ID, j.Done, j.Node)
				}
			}
		}
		if retrySum != res.Requeued {
			t.Errorf("seed %d: Σretries %d != requeued %d", seed, retrySum, res.Requeued)
		}
		if lost != res.JobsLost {
			t.Errorf("seed %d: %d lost outcomes, result says %d", seed, lost, res.JobsLost)
		}
	}
}

// TestGoldenEnergy pins the energy subsystem end to end: node lifecycle,
// frequency scaling, joules accumulation, and the energy columns of both
// export writers, byte for byte.
func TestGoldenEnergy(t *testing.T) {
	res, err := pliant.RunSched(goldenEnergyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var js, csv bytes.Buffer
	if err := pliant.WriteSchedResultJSON(&js, res); err != nil {
		t.Fatal(err)
	}
	if err := pliant.WriteSchedTraceCSV(&csv, res); err != nil {
		t.Fatal(err)
	}
	qos := fmt.Sprintf("%.17g", res.QoSMetFrac)
	joules := fmt.Sprintf("%.17g", res.Joules)
	if os.Getenv("PLIANT_GOLDEN") == "print" {
		t.Logf("goldenEnergyQoSMetFrac = %q", qos)
		t.Logf("goldenEnergyJoules     = %q", joules)
		t.Logf("goldenEnergyJSON       = %q", sha(js.Bytes()))
		t.Logf("goldenEnergyCSV        = %q", sha(csv.Bytes()))
		return
	}
	if qos != goldenEnergyQoSMetFrac {
		t.Errorf("QoSMetFrac = %s, golden %s", qos, goldenEnergyQoSMetFrac)
	}
	if joules != goldenEnergyJoules {
		t.Errorf("Joules = %s, golden %s", joules, goldenEnergyJoules)
	}
	if got := sha(js.Bytes()); got != goldenEnergyJSON {
		t.Errorf("energy JSON hash = %s, golden %s", got, goldenEnergyJSON)
	}
	if got := sha(csv.Bytes()); got != goldenEnergyCSV {
		t.Errorf("energy trace CSV hash = %s, golden %s", got, goldenEnergyCSV)
	}
}

// goldenRuntime pins one run of goldenRuntimeConfig: Served, Dropped,
// OverallP99 and the JSON/CSV export hashes.
type goldenRuntime struct {
	runtime         pliant.RuntimeKind
	served, dropped uint64
	p99             int64
	json, csv       string
}

// goldenRuntimes pins every built-in runtime with Bayesian listed first.
var goldenRuntimes = []goldenRuntime{
	{pliant.RuntimePliant, 1919083, 1345, 12966009, "cddf781c4cf67f678e25d21ae928c8cfb69099802d3d1e92ad7feea4d5429d86", "20a418158a94a12a141798923da73459158480ed06c90a45edec19e191195730"},
	{pliant.RuntimePrecise, 1417342, 156903, 19148541, "44a8b36ec91059edb17a4f232a42add9f24c86115a0169b397212bcaf22615fc", "8ce9df0b875a2d313bd7fcb879316f346f6b35f71d3e95db6cf63fe3e2ac5485"},
	{pliant.RuntimeStaticApprox, 780246, 103293, 18738227, "fcb673ed7796929883ec1e8e03ebbed357ecb1727596748952c285ccb7a40d25", "77368742d3ef480080819f12ed5f34a484aaf2d2e08baf4add47a43c699e149a"},
	{pliant.RuntimeImpactAware, 1628154, 8891, 16454526, "58ca00b30a27205b16664798be9477b5cf76afc66bb8b9f0576515e52e05e0d8", "aba0160ddd0386e1f6c4a5856c181574994e2f906fecdc4cd7439a1ae76e3427"},
	{pliant.RuntimeLearner, 1628154, 8891, 16454526, "90d6d04e3743da0d4248aa1fd1cd15cbc0c88c3c4edfc759cd8e76865c7ddb63", "aba0160ddd0386e1f6c4a5856c181574994e2f906fecdc4cd7439a1ae76e3427"},
}

// goldenRuntimesCannealFirst pins the impact-aware and learner arbiters with
// canneal listed first. Bayesian's quality cost per step is the lower, so
// impact-aware approximates it first whatever the order, while the learner
// breaks its tie between unvisited apps toward index 0. With Bayesian first
// the two serve the same requests; with canneal first they do not. (Core
// reclaim breaks ties between equal apps toward index 0 too, so
// impact-aware's own run also changes with the order.)
var goldenRuntimesCannealFirst = []goldenRuntime{
	{pliant.RuntimeImpactAware, 1699779, 9766, 16454526, "39dbacf1149df4d7a94c629e28f91c7c2c3c6eba3b1261e6ac028ce9836a5d11", "5cbee0ac020e72f90f343dc12f0a8085baa809952776117ec6077b8b7dea0747"},
	{pliant.RuntimeLearner, 1545635, 9651, 16814833, "000024b7ca9dea5856439a43b52ec010aea31bbbc8853e95a2d7287a9ecd913e", "df504289e61bf020f280592fce6991cac612b7938a0e8effcdc69ff88931b9e9"},
}

// goldenRuntimeConfig is the all-runtimes golden scenario: memcached with
// Bayesian and canneal (in the given order), so arbitration between two apps
// matters, under a flash crowd that drives the controller both ways.
func goldenRuntimeConfig(rt pliant.RuntimeKind, apps ...string) pliant.ScenarioConfig {
	flash, _ := pliant.NewReplayLoad([]float64{0, 20, 50}, []float64{1, 1.25, 0.8})
	return pliant.ScenarioConfig{
		Seed:         7,
		Service:      pliant.Memcached,
		AppNames:     apps,
		Runtime:      rt,
		LoadFraction: 0.78,
		LoadShape:    flash,
		TimeScale:    16,
	}
}

// runtimeMoves counts, across every app's variant and yielded-core series,
// the interval-to-interval increases and decreases.
type runtimeMoves struct{ up, down, reclaim, ret int }

func countMoves(res pliant.ScenarioResult, apps []string) runtimeMoves {
	var m runtimeMoves
	for _, name := range apps {
		v := res.Trace.Series("variant." + name).Points
		for i := 1; i < len(v); i++ {
			switch {
			case v[i].V > v[i-1].V:
				m.up++
			case v[i].V < v[i-1].V:
				m.down++
			}
		}
		y := res.Trace.Series("yielded." + name).Points
		for i := 1; i < len(y); i++ {
			switch {
			case y[i].V > y[i-1].V:
				m.reclaim++
			case y[i].V < y[i-1].V:
				m.ret++
			}
		}
	}
	return m
}

// TestGoldenRuntimes pins every built-in runtime on one two-app colocation,
// where the arbiter's choice of app matters, and the impact-aware and
// learner arbiters again with the apps swapped. With Bayesian first, each
// feedback runtime's trace must also show at least one variant increase and
// decrease and one core reclaim and return, so the scenario exercises every
// step the controller and its arbiters can take.
func TestGoldenRuntimes(t *testing.T) {
	type run struct {
		goldenRuntime
		apps      []string
		everyMove bool
	}
	var runs []run
	for _, g := range goldenRuntimes {
		runs = append(runs, run{g, []string{"Bayesian", "canneal"}, true})
	}
	for _, g := range goldenRuntimesCannealFirst {
		runs = append(runs, run{g, []string{"canneal", "Bayesian"}, false})
	}
	for _, r := range runs {
		g := r.goldenRuntime
		cfg := goldenRuntimeConfig(g.runtime, r.apps...)
		label := fmt.Sprintf("%v %v", g.runtime, r.apps)
		res, err := pliant.RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var js, csv bytes.Buffer
		if err := pliant.WriteResultJSON(&js, res); err != nil {
			t.Fatal(err)
		}
		if err := pliant.WriteTraceCSV(&csv, res); err != nil {
			t.Fatal(err)
		}
		if os.Getenv("PLIANT_GOLDEN") == "print" {
			t.Logf("%s: {served, dropped, p99, json, csv} = %d, %d, %d, %q, %q", label, res.Served, res.Dropped,
				int64(res.OverallP99), sha(js.Bytes()), sha(csv.Bytes()))
			continue
		}
		if res.Served != g.served {
			t.Errorf("%s: Served = %d, golden %d", label, res.Served, g.served)
		}
		if res.Dropped != g.dropped {
			t.Errorf("%s: Dropped = %d, golden %d", label, res.Dropped, g.dropped)
		}
		if int64(res.OverallP99) != g.p99 {
			t.Errorf("%s: OverallP99 = %d, golden %d", label, int64(res.OverallP99), g.p99)
		}
		if got := sha(js.Bytes()); got != g.json {
			t.Errorf("%s: result JSON hash = %s, golden %s", label, got, g.json)
		}
		if got := sha(csv.Bytes()); got != g.csv {
			t.Errorf("%s: trace CSV hash = %s, golden %s", label, got, g.csv)
		}
		if !r.everyMove {
			continue
		}
		switch g.runtime {
		case pliant.RuntimePliant, pliant.RuntimeImpactAware, pliant.RuntimeLearner:
			if m := countMoves(res, cfg.AppNames); m.up == 0 || m.down == 0 || m.reclaim == 0 || m.ret == 0 {
				t.Errorf("%s: moves %+v, want every kind at least once", label, m)
			}
		}
	}
}
