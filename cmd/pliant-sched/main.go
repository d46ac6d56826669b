// Command pliant-sched runs the online cluster scheduler: approximate jobs
// stream into a cluster of interactive-service nodes, an online policy
// places (or defers) them at every scheduling window, and each node runs its
// colocation under the Pliant runtime with time-varying service load.
//
// The flags lower onto the same session-spec surface the pliant-served
// daemon resolves (pliant.ServeSpec), so a batch run and a daemon session
// with equal parameters cannot drift semantically.
//
// Usage:
//
//	pliant-sched -policy telemetry -shape diurnal -timescale 16
//	pliant-sched -policy all -nodes memcached,nginx,mongodb,mongodb -rate 0.12
//	pliant-sched -shape flash -peak 1.6 -timescale 16 -csv trace.csv
//	pliant-sched -energy -autoscale approx-for-watts -policy telemetry
//	pliant-sched -shards 8 -policy telemetry   # eight shards, whatever the core count
//	pliant-sched -trace tasks.csv -trace-format google -trace-scale 180
//	pliant-sched -trace vms.csv -trace-format azure -trace-jobs 48 -shape trace
//	pliant-sched -policy telemetry -obs -trace-out trace.json -metrics-csv metrics.csv
//	pliant-sched -policy telemetry -mttf 120 -mttr 15 -retries 2   # seeded crash churn
//	pliant-sched -outage 80:1:40 -fault-domain 2 -autoscale degrade-under-loss
//	pliant-sched -trace tasks.csv -trace-faults   # replay the trace's failure rate
//	pliant-sched -policy telemetry -cpuprofile cpu.prof -memprofile mem.prof
//
// SIGINT/SIGTERM stops the run at the next window boundary: the partial
// result still renders and still flushes to -json/-csv, marked truncated.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	pliant "github.com/approx-sched/pliant"
)

func main() {
	var (
		nodesFlag = flag.String("nodes", "memcached,nginx,mongodb",
			"comma-separated node services; one node per entry")
		maxApps = flag.Int("maxapps", 3, "job slots per node")
		policy  = flag.String("policy", "all", "placement policy: first-fit, best-fit, spread, telemetry, all")
		horizon = flag.Float64("horizon", 240, "cluster-time horizon in seconds")
		epoch   = flag.Float64("epoch", 12, "scheduling window in seconds")
		rate    = flag.Float64("rate", 0, "job arrivals per second (0 = sized to capacity)")
		load    = flag.Float64("load", 0.65, "base offered load on every node's service")
		shape   = flag.String("shape", "diurnal", "load shape: steady, diurnal, flash, trace (ride the -trace rate curve)")
		amp     = flag.Float64("amp", 0.25, "diurnal amplitude around 1")
		period  = flag.Float64("period", 0, "diurnal period in seconds (0 = one day across the horizon)")
		peak    = flag.Float64("peak", 1.6, "flash-crowd peak multiplier")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		scale   = flag.Float64("timescale", 1, "request-timescale multiplier (16 = fast profile)")
		shards  = flag.Int("shards", 0,
			"node shards running each window's episodes in parallel (0 = GOMAXPROCS; results are byte-identical for any value)")
		traceFile = flag.String("trace", "",
			"replay a production cluster trace as the job stream (see -trace-format)")
		traceFormat = flag.String("trace-format", "google", "trace schema: google (ClusterData task events), azure (VM rows)")
		traceScale  = flag.Float64("trace-scale", 0,
			"compress the trace's time axis this many times (0 = rescale so the last arrival lands at 90% of the horizon)")
		traceJobs = flag.Int("trace-jobs", 0,
			"deterministically down-sample the trace to at most this many jobs (0 = twice the cluster's slots)")
		jobsFlag   = flag.String("jobs", "", "comma-separated catalog apps to cycle jobs through (default: shuffled catalog; with -trace, the candidate set)")
		jsonOut    = flag.String("json", "", "write the result as JSON to a file ('-' for stdout)")
		csvOut     = flag.String("csv", "", "write the cluster-horizon trace as CSV to a file ('-' for stdout)")
		obsOn      = flag.Bool("obs", false, "attach the observability layer and print a shard wall-clock profile (implied by the -trace-out/-metrics-* flags; needs a single -policy)")
		traceOut   = flag.String("trace-out", "", "write the decision trace as Chrome trace-event JSON, loadable in Perfetto ('-' for stdout; implies -obs)")
		metricsOut = flag.String("metrics-out", "", "write final metrics in Prometheus text format ('-' for stdout; implies -obs)")
		metricsCSV = flag.String("metrics-csv", "", "write per-window metric snapshots as CSV ('-' for stdout; implies -obs)")
		useEnergy  = flag.Bool("energy", false, "attach the Table 1 power model: joules accounting + energy columns")
		autoscaler = flag.String("autoscale", "none",
			"node lifecycle controller (implies -energy): none, consolidate, approx-for-watts, degrade-under-loss")
		mttf = flag.Float64("mttf", 0,
			"per-node mean time to failure in virtual seconds: seeded crash/recover churn (0 = no random crashes)")
		mttr        = flag.Float64("mttr", 0, "mean repair time of random crashes in virtual seconds (0 = the 30s default)")
		faultDomain = flag.Int("fault-domain", 0,
			"group consecutive nodes into correlated failure domains (racks) of this size")
		outageFlag = flag.String("outage", "",
			"scripted rack outages as at:domain:duration triples in seconds, comma-separated (e.g. 80:1:40)")
		retries = flag.Int("retries", 0,
			"per-job retry budget after a crash (0 = the default 3, negative = drop on first crash)")
		traceFaults = flag.Bool("trace-faults", false,
			"derive the crash rate from the -trace's failure-shaped terminal causes (EVICT/FAIL/KILL/LOST)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file on exit")
		showVer = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *showVer {
		fmt.Println(pliant.Version())
		return
	}
	if err := startProfiles(*cpuProf, *memProf); err != nil {
		fail(err)
	}

	outages, err := parseOutages(*outageFlag)
	if err != nil {
		fail(err)
	}
	sp := pliant.ServeSpec{
		Seed:        *seed,
		Nodes:       strings.Split(*nodesFlag, ","),
		MaxApps:     *maxApps,
		Policies:    []string{*policy},
		HorizonSec:  *horizon,
		EpochSec:    *epoch,
		Rate:        *rate,
		Load:        *load,
		Shape:       *shape,
		Amp:         *amp,
		PeriodSec:   *period,
		Peak:        *peak,
		TimeScale:   *scale,
		Shards:      *shards,
		Energy:      *useEnergy,
		Autoscale:   *autoscaler,
		MTTFSec:     *mttf,
		MTTRSec:     *mttr,
		FaultDomain: *faultDomain,
		Outages:     outages,
		Retries:     *retries,
		TraceFaults: *traceFaults,
	}
	if *jobsFlag != "" {
		sp.Jobs = strings.Split(*jobsFlag, ",")
	}
	if *traceFile != "" {
		text, err := os.ReadFile(*traceFile)
		if err != nil {
			fail(err)
		}
		sp.Trace = &pliant.ServeTraceSpec{
			Format:    *traceFormat,
			CSV:       string(text),
			RateScale: *traceScale,
			MaxJobs:   *traceJobs,
		}
	}

	resolved, err := pliant.ResolveServeSpec(sp)
	if err != nil {
		fail(err)
	}
	cfg := resolved.Cfg

	if tr := resolved.Trace; tr != nil {
		fmt.Printf("trace: %d %s jobs over %.0fs (from %d rows, %d dropped, %d duration-defaulted)\n\n",
			len(tr.Jobs), tr.Source, tr.SpanSec(), tr.Rows, tr.Dropped, tr.Defaulted)
	}
	if plan := cfg.Faults; plan != nil {
		fmt.Printf("faults: MTTF %.0fs, MTTR %.0fs, domains of %d, %d scripted outage(s), retry budget %d\n\n",
			plan.MTTFSec, plan.MTTRSec, plan.DomainSize, len(plan.Outages), plan.Retries())
	}

	wantObs := *obsOn || *traceOut != "" || *metricsOut != "" || *metricsCSV != ""
	if wantObs {
		if len(resolved.Policies) != 1 {
			fail(fmt.Errorf("observability outputs cover one run: pick a single -policy (not %q)", *policy))
		}
		cfg.Obs = pliant.NewObserver(pliant.ObserverOptions{})
	}

	// Stop at the next window boundary on SIGINT/SIGTERM: the partial result
	// still renders and still flushes to -json/-csv, marked truncated.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	interrupted := false

	var results []pliant.SchedResult
	for _, pol := range resolved.Policies {
		if interrupted {
			break
		}
		c := cfg
		c.Policy = pol
		res, err := runInterruptible(c, sigCh, &interrupted)
		if err != nil {
			fail(fmt.Errorf("policy %s: %w", pol.Name(), err))
		}
		results = append(results, res)
	}
	if len(results) == 0 {
		fail(fmt.Errorf("interrupted before the first window"))
	}
	fmt.Print(pliant.RenderSchedComparison(results))

	last := results[len(results)-1]
	fmt.Printf("\n%s detail: %d episodes, %d jobs pending at horizon, max wait %.1fs\n",
		last.Policy, last.Episodes, last.Pending, last.MaxWaitSec)
	if cfg.Faults != nil {
		fmt.Printf("%s faults: %d crashes, %d recoveries, %d jobs requeued, %d lost, %d down node-windows\n",
			last.Policy, last.Crashes, last.Recoveries, last.Requeued, last.JobsLost, last.DownNodeWindows)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "pliant-sched: interrupted — %s stopped short of its %.0fs horizon (result marked truncated)\n",
			last.Policy, last.HorizonSec)
	}

	if *jsonOut != "" {
		if err := writeTo(*jsonOut, func(w *os.File) error { return pliant.WriteSchedResultJSON(w, last) }); err != nil {
			fail(err)
		}
	}
	if *csvOut != "" {
		if err := writeTo(*csvOut, func(w *os.File) error { return pliant.WriteSchedTraceCSV(w, last) }); err != nil {
			fail(err)
		}
	}
	if wantObs {
		printProfiles(last.ShardProfiles)
		meta := pliant.ObsTraceMeta{Policy: last.Policy}
		for _, n := range cfg.Nodes {
			meta.NodeNames = append(meta.NodeNames, n.Name)
		}
		if *traceOut != "" {
			if err := writeTo(*traceOut, func(w *os.File) error {
				return pliant.WriteChromeTrace(w, cfg.Obs.Tracer, meta)
			}); err != nil {
				fail(err)
			}
		}
		if *metricsOut != "" {
			if err := writeTo(*metricsOut, func(w *os.File) error {
				return pliant.WriteMetricsProm(w, cfg.Obs.Metrics)
			}); err != nil {
				fail(err)
			}
		}
		if *metricsCSV != "" {
			if err := writeTo(*metricsCSV, func(w *os.File) error {
				return pliant.WriteMetricsCSV(w, cfg.Obs.Metrics)
			}); err != nil {
				fail(err)
			}
		}
	}
	if err := stopProfiles(); err != nil {
		fail(err)
	}
}

// prof holds the -cpuprofile file while the CPU profile runs and the
// -memprofile path until exit.
var prof struct {
	cpu     *os.File
	memPath string
}

// startProfiles starts the CPU profile and remembers where the heap profile
// goes; stopProfiles writes both.
func startProfiles(cpuPath, memPath string) error {
	prof.memPath = memPath
	if cpuPath == "" {
		return nil
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	prof.cpu = f
	return nil
}

// stopProfiles flushes the CPU profile and writes the heap profile. It runs
// once, on every way out of main, so a failed run still leaves its profiles.
func stopProfiles() error {
	var err error
	if f := prof.cpu; f != nil {
		prof.cpu = nil
		pprof.StopCPUProfile()
		err = f.Close()
	}
	if path := prof.memPath; path != "" {
		prof.memPath = ""
		runtime.GC() // the heap profile shows the live heap as of the last GC
		if werr := writeTo(path, func(w *os.File) error { return pprof.WriteHeapProfile(w) }); err == nil {
			err = werr
		}
	}
	return err
}

// runInterruptible drives one policy's run a window at a time, checking for
// a delivered signal between windows. A run cut short finalizes normally
// (its Result carries Truncated); *interrupted tells the caller to skip any
// remaining policies.
func runInterruptible(cfg pliant.SchedConfig, sigCh <-chan os.Signal, interrupted *bool) (pliant.SchedResult, error) {
	r, err := pliant.NewSchedRunner(cfg)
	if err != nil {
		return pliant.SchedResult{}, err
	}
	defer r.Close()
	for {
		select {
		case <-sigCh:
			*interrupted = true
		default:
		}
		if *interrupted {
			break
		}
		more, err := r.StepWindow()
		if err != nil {
			return pliant.SchedResult{}, err
		}
		if !more {
			break
		}
	}
	return r.Finalize()
}

// printProfiles renders the wall-clock shard profile (non-deterministic;
// kept out of every golden-pinned artifact).
func printProfiles(profiles []pliant.ShardProfile) {
	if len(profiles) == 0 {
		return
	}
	fmt.Printf("\nshard wall-clock profile\n  %5s %8s %9s %12s %13s\n",
		"shard", "windows", "episodes", "episode ms", "barrier wait")
	for _, p := range profiles {
		fmt.Printf("  %5d %8d %9d %12.1f %12.0f%%\n",
			p.Shard, p.Windows, p.Episodes, float64(p.EpisodeNs)/1e6, p.BarrierWaitFrac()*100)
	}
}

// parseOutages reads the -outage spec: comma-separated at:domain:duration
// triples in seconds.
func parseOutages(spec string) ([]pliant.ServeOutageSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var outages []pliant.ServeOutageSpec
	for _, part := range strings.Split(spec, ",") {
		var o pliant.ServeOutageSpec
		if _, err := fmt.Sscanf(part, "%f:%d:%f", &o.AtSec, &o.Domain, &o.DurationSec); err != nil {
			return nil, fmt.Errorf("outage %q: want at:domain:duration (e.g. 80:1:40)", part)
		}
		outages = append(outages, o)
	}
	return outages, nil
}

// writeTo writes through fn to a path, "-" meaning stdout.
func writeTo(path string, fn func(*os.File) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "pliant-sched: %v\n", err)
	if perr := stopProfiles(); perr != nil {
		fmt.Fprintf(os.Stderr, "pliant-sched: %v\n", perr)
	}
	os.Exit(1)
}
