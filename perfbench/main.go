// Command perfbench is the repository benchmark: one program that runs a
// named workload for a fixed wall-clock budget, checks that the outputs are
// correct, and prints every metric with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// also records spans around the calls into each layer and prints the
// per-layer metrics instead. BENCHMARK.json at the repository root lists both
// sets; ladder.json next to this file maps each layer metric onto the
// end-to-end metric and workload it should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload day-episodes --seed 42 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload storm-coordinator --report a.json
//	bash perfbench/run.sh compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the final line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload prints with tracing
// off, in BENCHMARK.json order. Times are process CPU time: on a shared
// two-vCPU virtual machine, other guests swung the wall time of identical
// work by up to 40% between runs, and CPU time by less. The wall-clock
// figures and the peak resident set (which moved by up to 40% with garbage
// collection timing) are ungated layer metrics, printed on every run.
var endToEnd = []struct{ name, unit string }{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run prints. A metric of
// a layer the workload does not exercise reads 0; ladder.json names the
// workloads each one is measured on.
var perLayer = []struct{ name, unit string }{
	{"wall.run_s", "s"},
	{"wall.setup_s", "s"},
	{"wall.latency_p50_ms", "ms"},
	{"wall.latency_p99_ms", "ms"},
	{"mem.max_rss_mb", "MB"},
	{"sched.step_ms.p50", "ms"},
	{"sched.step_ms.max", "ms"},
	{"sched.windows", "count"},
	{"sched.coordinator_s", "s"},
	{"sched.coordinator_frac", "frac"},
	{"sched.newrunner_ms", "ms"},
	{"sched.finalize_ms", "ms"},
	{"sched.pending_end", "count"},
	{"shard.barrier_wait_frac", "frac"},
	{"shard.parallel_eff", "frac"},
	{"shard.speedup", "x"},
	{"colocate.episodes", "count"},
	{"colocate.episode_us.mean", "us"},
	{"colocate.fixed_us", "us"},
	{"colocate.alloc_kb_per_episode", "KB"},
	{"colocate.requests_per_s", "1/s"},
	{"sim.dispatch_ns", "ns"},
	{"service.request_ns", "ns"},
	{"trace.parse_s", "s"},
	{"trace.rows_per_s", "1/s"},
	{"trace.normalize_ms", "ms"},
	{"obs.overhead_frac", "frac"},
	{"fault.crashes", "count"},
	{"fault.requeued", "count"},
	{"autoscale.wakes", "count"},
	{"autoscale.parked_node_windows", "count"},
	{"serve.submit_handler_us.p50", "us"},
	{"serve.submit_handler_us.p99", "us"},
	{"serve.submit_wait_ms.p50", "ms"},
	{"serve.windows_per_s", "1/s"},
	{"serve.lockstep_step_s", "s"},
	{"serve.overhead_s", "s"},
	{"serve.create_ms", "ms"},
	{"serve.sse_frames", "count"},
	{"serve.submits", "count"},
	{"serve.submit_refused_frac", "frac"},
	{"loadgen.late_ms.p99", "ms"},
	{"ladder.addup_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
}

// workloads maps each workload name onto its runner.
var workloads = map[string]func(*bench) error{
	"day-episodes":      runDay,
	"storm-coordinator": runStorm,
	"serve-shadow":      runServe,
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	spans    string
	report   string
}

// bench is the state of one benchmark run: the metrics gathered so far, the
// output checks, and (traced runs only) the span log.
type bench struct {
	opts  options
	out   io.Writer // human-readable progress lines
	e2e   map[string]float64
	layer map[string]float64
	spans *spanLog // nil with tracing off

	attempted, failed int
	problems          []string
}

// op counts one measured operation; a non-nil err counts it as failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problems = append(b.problems, err.Error())
	}
}

// wall records the wall-clock end-to-end figures: printed on every run,
// reported as layer metrics, and not gated (see endToEnd).
func (b *bench) wall(runS, setupS, p50ms, p99ms float64) {
	b.layer["wall.run_s"] = runS
	b.layer["wall.setup_s"] = setupS
	b.layer["wall.latency_p50_ms"] = p50ms
	b.layer["wall.latency_p99_ms"] = p99ms
}

// check counts one output check as an operation that fails when ok is false.
func (b *bench) check(ok bool, format string, args ...interface{}) {
	if ok {
		b.op(nil)
		return
	}
	b.op(fmt.Errorf("check failed: "+format, args...))
}

func (b *bench) logf(format string, args ...interface{}) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// deadline is when the measured phase of the run ends.
func (b *bench) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(b.opts.seconds * float64(time.Second)))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareReports(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run parses args, runs one workload and returns the final outcome. Progress
// lines go to out.
func run(args []string, out io.Writer) (outcome, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var traceFlag int
	var scale string
	fs.StringVar(&o.workload, "workload", "", "workload: day-episodes, storm-coordinator or serve-shadow")
	fs.Uint64Var(&o.seed, "seed", 42, "seed the workload inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock seconds the measured phase runs for")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&scale, "scale", "full", "full, or tiny for the self-test (a few windows or submits)")
	fs.StringVar(&o.spans, "spans", "", "where a traced run writes its spans (default under .bench_build)")
	fs.StringVar(&o.report, "report", "", "also write the outcome with the host fingerprint to this file, for compare")
	if err := fs.Parse(args); err != nil {
		return outcome{}, err
	}
	runner, ok := workloads[o.workload]
	if !ok {
		return outcome{}, fmt.Errorf("unknown workload %q (day-episodes, storm-coordinator, serve-shadow)", o.workload)
	}
	if o.seconds <= 0 {
		return outcome{}, fmt.Errorf("--seconds must be positive")
	}
	switch traceFlag {
	case 0:
	case 1:
		o.trace = true
	default:
		return outcome{}, fmt.Errorf("--trace must be 0 or 1")
	}
	switch scale {
	case "full":
	case "tiny":
		o.tiny = true
	default:
		return outcome{}, fmt.Errorf("--scale must be full or tiny")
	}
	root, err := checkoutRoot()
	if err != nil {
		return outcome{}, err
	}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(root, ".bench_build", "perfbench",
			fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	}

	fp := fingerprint(root, o)
	hostLine, _ := json.Marshal(fp)
	fmt.Fprintf(out, "host %s\n", hostLine)

	b := &bench{
		opts:  o,
		out:   out,
		e2e:   map[string]float64{},
		layer: map[string]float64{},
	}
	if o.trace {
		b.spans = newSpanLog()
	}
	if err := runner(b); err != nil {
		return outcome{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.layer["mem.max_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	for _, p := range b.problems {
		fmt.Fprintln(out, "problem:", p)
	}

	res := outcome{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "e2e   %-32s %14.6g %s\n", m.name, b.e2e[m.name], m.unit)
		if !o.trace {
			res.Metrics[m.name] = metricValue{Value: b.e2e[m.name], Unit: m.unit}
		}
	}
	for _, m := range perLayer {
		switch {
		case o.trace:
			fmt.Fprintf(out, "layer %-32s %14.6g %s\n", m.name, b.layer[m.name], m.unit)
			res.Metrics[m.name] = metricValue{Value: b.layer[m.name], Unit: m.unit}
		case strings.HasPrefix(m.name, "wall.") || strings.HasPrefix(m.name, "mem."):
			// The ungated end-to-end figures, shown on every run.
			fmt.Fprintf(out, "wall  %-32s %14.6g %s\n", m.name, b.layer[m.name], m.unit)
		}
	}
	if o.trace {
		if err := b.spans.write(o.spans, fp); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", b.spans.len(), o.spans)
	}
	if o.report != "" {
		if err := writeReport(o.report, report{Host: fp, Outcome: res}); err != nil {
			return outcome{}, err
		}
	}
	return res, nil
}

// checkoutRoot finds the checkout the benchmark measures: the working
// directory when it holds perfbench/, else its parent when run from inside
// perfbench/ (as go test does).
func checkoutRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "perfbench", "go.mod")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run from the root of the checkout (no perfbench/go.mod here)")
}

// report is what --report writes and compare reads.
type report struct {
	Host    host    `json:"host"`
	Outcome outcome `json:"outcome"`
}

func writeReport(path string, r report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareReports prints two reports side by side. It refuses reports from
// different hosts or workloads: a difference across machines is not evidence
// about the code.
func compareReports(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return errors.New("usage: perfbench compare A.json B.json")
	}
	var rs [2]report
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := rs[0].Host, rs[1].Host
	if a.machine() != b.machine() {
		return fmt.Errorf("reports come from different hosts (%s vs %s); compare runs from one machine", a.machine(), b.machine())
	}
	if a.Workload != b.Workload {
		return fmt.Errorf("reports measure different workloads (%s vs %s)", a.Workload, b.Workload)
	}
	fmt.Fprintf(w, "workload %s: A %s (seed %d) vs B %s (seed %d)\n", a.Workload, a.label(), a.Seed, b.label(), b.Seed)
	var names []string
	for name := range rs[0].Outcome.Metrics {
		if _, ok := rs[1].Outcome.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		ma, mb := rs[0].Outcome.Metrics[name], rs[1].Outcome.Metrics[name]
		delta := "n/a"
		if ma.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (mb.Value/ma.Value-1)*100)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %14.6g %8s %s\n", name, ma.Value, mb.Value, delta, ma.Unit)
	}
	return nil
}

// label names the code a report measured.
func (h host) label() string {
	if h.GitHead != "none" {
		return h.GitHead[:min(12, len(h.GitHead))]
	}
	return "src:" + h.SourceSHA[:min(12, len(h.SourceSHA))]
}

// machine is the part of the fingerprint two comparable reports share.
func (h host) machine() string {
	return strings.Join([]string{h.CPU, fmt.Sprint(h.NProc), fmt.Sprint(h.GOMAXPROCS), h.GoVersion}, " | ")
}
