// Package trace ingests production cluster traces — the arrival processes
// Pliant's headline claims should be judged on. Synthetic Poisson and diurnal
// streams (internal/workload) are smooth by construction; real colocation
// traces are bursty, heavy-tailed, and correlated across jobs, which is
// exactly the regime where telemetry-fed placement and approximation-for-watts
// earn (or lose) their keep.
//
// Two dominant public schemas parse into one canonical Job stream:
//
//   - Google ClusterData-style task events: one CSV row per task event
//     (timestamp, job ID, task index, event type, CPU/memory request), with a
//     task's duration recovered by pairing its SUBMIT with its terminal event.
//   - Azure VM-trace-style rows: one CSV row per VM (created/deleted
//     timestamps, core and memory buckets).
//
// Parsing is streaming (memory grows with the number of jobs, not with the
// file), every row is validated, and Normalize rebases, rescales, and deterministically
// down-samples the stream so a multi-day production trace compresses into a
// simulated day. Synthesize emits schema-exact fixtures for both formats, so
// tests and benchmarks exercise the real parse path without shipping
// gigabytes of trace data.
package trace

import (
	"fmt"
	"math"
	"slices"
)

// Format selects one of the supported trace schemas.
type Format int

const (
	// Google is the ClusterData-style task-event schema.
	Google Format = iota
	// Azure is the VM-trace-style per-VM schema.
	Azure
)

// String names the format as the CLI spells it.
func (f Format) String() string {
	switch f {
	case Google:
		return "google"
	case Azure:
		return "azure"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// FormatByName resolves a CLI spelling to a Format.
func FormatByName(name string) (Format, error) {
	switch name {
	case "google":
		return Google, nil
	case "azure":
		return Azure, nil
	}
	return 0, fmt.Errorf("trace: unknown format %q (google, azure)", name)
}

// Cause is a job's terminal cause — why the trace says it stopped running.
// The values mirror the Google ClusterData terminal event types; Azure rows
// carry only a deletion timestamp, so deleted VMs report CauseFinish.
type Cause uint8

// The terminal causes. The zero value is CauseUnknown so jobs whose terminal
// event never appears in the window (orphans) need no special-casing.
const (
	// CauseUnknown marks a job with no terminal event inside the trace
	// window (its duration was defaulted; see Trace.Defaulted).
	CauseUnknown Cause = iota
	// CauseFinish is a normal completion.
	CauseFinish
	// CauseEvict, CauseFail, CauseKill, and CauseLost are the failure-shaped
	// terminals: descheduled for a higher-priority tenant or a machine loss,
	// task error, user/driver kill, and record loss respectively.
	CauseEvict
	CauseFail
	CauseKill
	CauseLost
)

// String names the cause as the source schemas spell it.
func (c Cause) String() string {
	switch c {
	case CauseUnknown:
		return "unknown"
	case CauseFinish:
		return "finish"
	case CauseEvict:
		return "evict"
	case CauseFail:
		return "fail"
	case CauseKill:
		return "kill"
	case CauseLost:
		return "lost"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// CauseCounts is the per-cause census of a trace's jobs.
type CauseCounts struct {
	Finish  int
	Evict   int
	Fail    int
	Kill    int
	Lost    int
	Unknown int
}

// Terminated counts jobs whose terminal event appeared in the window.
func (c CauseCounts) Terminated() int {
	return c.Finish + c.Evict + c.Fail + c.Kill + c.Lost
}

// Failures counts the failure-shaped terminals.
func (c CauseCounts) Failures() int {
	return c.Evict + c.Fail + c.Kill + c.Lost
}

// countCauses censuses a job list.
func countCauses(jobs []Job) CauseCounts {
	var c CauseCounts
	for _, j := range jobs {
		switch j.Cause {
		case CauseFinish:
			c.Finish++
		case CauseEvict:
			c.Evict++
		case CauseFail:
			c.Fail++
		case CauseKill:
			c.Kill++
		case CauseLost:
			c.Lost++
		default:
			c.Unknown++
		}
	}
	return c
}

// Job is one normalized trace row: a unit of batch work arriving at a
// cluster, whatever the source schema called it (task, VM).
type Job struct {
	// ID is the source identifier (job/task pair, VM id), kept for
	// provenance; the scheduler keys jobs by arrival order.
	ID string
	// ArrivalSec is the arrival instant, rebased so the first arrival of the
	// trace is 0.
	ArrivalSec float64
	// DurationSec is the observed (or requested) runtime. Rows whose end
	// never appears in the trace carry the mean duration of the rows that do
	// (see Trace.Defaulted).
	DurationSec float64
	// CPU and Mem are the normalized resource requests in [0, 1] — fractions
	// of a machine, as both source schemas express them.
	CPU float64
	Mem float64
	// Cause is the job's terminal cause (CauseUnknown when the terminal
	// event never appeared in the trace window).
	Cause Cause
}

// Trace is a parsed, validated, arrival-ordered job stream.
type Trace struct {
	// Source names the schema the trace was parsed from ("google", "azure",
	// "synthetic").
	Source string
	// Rows counts the raw data rows consumed (events for Google, VMs for
	// Azure), before pairing and validation.
	Rows int
	// Dropped counts rows rejected by validation (non-finite fields,
	// negative instants, malformed columns).
	Dropped int
	// Defaulted counts jobs whose duration never appeared in the trace and
	// was filled with the mean observed duration.
	Defaulted int
	// Causes censuses the jobs' terminal causes — the raw material of
	// trace-derived fault injection (internal/fault.FromTrace).
	Causes CauseCounts
	// Jobs is the normalized stream, ascending in ArrivalSec.
	Jobs []Job
}

// FailureFrac is the fraction of terminated jobs whose terminal cause was
// failure-shaped (EVICT/FAIL/KILL/LOST); 0 when no job terminated inside the
// window.
func (t *Trace) FailureFrac() float64 {
	if term := t.Causes.Terminated(); term > 0 {
		return float64(t.Causes.Failures()) / float64(term)
	}
	return 0
}

// SpanSec is the time between the first and last arrival.
func (t *Trace) SpanSec() float64 {
	if len(t.Jobs) == 0 {
		return 0
	}
	return t.Jobs[len(t.Jobs)-1].ArrivalSec - t.Jobs[0].ArrivalSec
}

// MeanRate is the mean arrival rate in jobs/second over the span (the job
// count if the span is degenerate).
func (t *Trace) MeanRate() float64 {
	span := t.SpanSec()
	if span <= 0 {
		return float64(len(t.Jobs))
	}
	return float64(len(t.Jobs)) / span
}

// ArrivalTimes returns the arrival instants in order — the input to
// workload.NewTraceStream.
func (t *Trace) ArrivalTimes() []float64 {
	out := make([]float64, len(t.Jobs))
	for i, j := range t.Jobs {
		out[i] = j.ArrivalSec
	}
	return out
}

// RateShape bins the arrival process into a step function of load multipliers
// normalized around 1 — the trace's burstiness as a workload.Replay shape, so
// node services can ride the same demand curve the job stream follows. Empty
// bins floor at a small positive multiplier (replay shapes must stay
// positive). At least one bin and two jobs are required.
func (t *Trace) RateShape(bins int) (timesSec, mult []float64, err error) {
	if bins < 1 {
		return nil, nil, fmt.Errorf("trace: rate shape needs at least one bin, got %d", bins)
	}
	span := t.SpanSec()
	if len(t.Jobs) < 2 || span <= 0 {
		return nil, nil, fmt.Errorf("trace: rate shape needs a trace with a positive span (%d jobs over %.0fs)",
			len(t.Jobs), span)
	}
	t0 := t.Jobs[0].ArrivalSec
	counts := make([]float64, bins)
	for _, j := range t.Jobs {
		k := int((j.ArrivalSec - t0) / span * float64(bins))
		if k >= bins {
			k = bins - 1 // the last arrival lands exactly on the span edge
		}
		counts[k]++
	}
	mean := float64(len(t.Jobs)) / float64(bins)
	timesSec = make([]float64, bins)
	mult = make([]float64, bins)
	for k := range counts {
		timesSec[k] = float64(k) * span / float64(bins)
		m := counts[k] / mean
		if m < 0.01 {
			m = 0.01
		}
		mult[k] = m
	}
	return timesSec, mult, nil
}

// Options tunes Normalize. The zero value keeps the trace as parsed.
type Options struct {
	// RateScale compresses the time axis by this factor: arrivals land
	// RateScale times faster (and the span shrinks accordingly). 0 or 1
	// keeps the original axis.
	RateScale float64
	// TargetSpanSec rescales the time axis so the last arrival lands at this
	// span — the "compress a multi-day trace into a simulated day" knob,
	// applied after RateScale. 0 keeps the (possibly rate-scaled) span.
	TargetSpanSec float64
	// DurationScale multiplies every job duration. 0 means 1.
	DurationScale float64
	// MaxJobs down-samples the stream to at most this many jobs by
	// deterministic systematic (stride) sampling over the arrival order,
	// preserving the temporal shape — bursts stay bursts. 0 keeps all jobs.
	MaxJobs int
}

// Normalize returns a new trace with the options applied: down-sample,
// rebase to t=0, scale the time axis, scale durations. The receiver is not
// mutated, so one parsed trace can normalize into several studies.
func (t *Trace) Normalize(o Options) (*Trace, error) {
	if len(t.Jobs) == 0 {
		return nil, fmt.Errorf("trace: cannot normalize an empty trace")
	}
	switch {
	case o.RateScale < 0 || math.IsNaN(o.RateScale):
		return nil, fmt.Errorf("trace: rate scale %v must be non-negative", o.RateScale)
	case o.TargetSpanSec < 0 || math.IsNaN(o.TargetSpanSec):
		return nil, fmt.Errorf("trace: target span %v must be non-negative", o.TargetSpanSec)
	case o.DurationScale < 0 || math.IsNaN(o.DurationScale):
		return nil, fmt.Errorf("trace: duration scale %v must be non-negative", o.DurationScale)
	case o.MaxJobs < 0:
		return nil, fmt.Errorf("trace: max jobs %d must be non-negative", o.MaxJobs)
	}

	jobs := t.Jobs
	if o.MaxJobs > 0 && o.MaxJobs < len(jobs) {
		// Systematic sampling: the k-th kept job is the floor(k·n/keep)-th of
		// the stream. Deterministic, order-preserving, and uniform in time
		// density, so the sampled stream keeps the original's shape.
		n := len(jobs)
		kept := make([]Job, o.MaxJobs)
		for k := range kept {
			kept[k] = jobs[k*n/o.MaxJobs]
		}
		jobs = kept
	} else {
		jobs = append([]Job(nil), jobs...)
	}

	timeScale := 1.0
	if o.RateScale > 0 {
		timeScale /= o.RateScale
	}
	if o.TargetSpanSec > 0 {
		span := (jobs[len(jobs)-1].ArrivalSec - jobs[0].ArrivalSec) * timeScale
		if span > 0 {
			timeScale *= o.TargetSpanSec / span
		}
	}
	durScale := o.DurationScale
	if durScale == 0 {
		durScale = 1
	}
	t0 := jobs[0].ArrivalSec
	for i := range jobs {
		jobs[i].ArrivalSec = (jobs[i].ArrivalSec - t0) * timeScale
		jobs[i].DurationSec *= durScale
	}
	return &Trace{
		Source:    t.Source,
		Rows:      t.Rows,
		Dropped:   t.Dropped,
		Defaulted: t.Defaulted,
		Causes:    countCauses(jobs), // recensus: sampling changes the mix
		Jobs:      jobs,
	}, nil
}

// finishTrace sorts, rebases, and duration-defaults a parsed job list — the
// shared tail of both parsers.
func finishTrace(source string, rows, dropped int, jobs []Job) (*Trace, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("trace: %s trace contained no usable jobs (%d rows, %d dropped)",
			source, rows, dropped)
	}
	sortByArrival(jobs)

	// Fill unknown durations (terminal event never appeared — the trace was
	// cut, or the task outlived it) with the mean observed duration, so the
	// stream stays usable without inventing a distribution.
	sum, known := 0.0, 0
	for _, j := range jobs {
		if j.DurationSec >= 0 {
			sum += j.DurationSec
			known++
		}
	}
	mean := 1.0
	if known > 0 {
		mean = sum / float64(known)
		if math.IsInf(mean, 0) {
			// Finite durations near the float64 ceiling overflowed the sum;
			// an incremental mean stays within their range.
			mean = 0
			n := 0.0
			for _, j := range jobs {
				if j.DurationSec >= 0 {
					n++
					mean += (j.DurationSec - mean) / n
				}
			}
		}
	}
	defaulted := 0
	for i := range jobs {
		if jobs[i].DurationSec < 0 {
			jobs[i].DurationSec = mean
			defaulted++
		}
	}
	t0 := jobs[0].ArrivalSec
	for i := range jobs {
		jobs[i].ArrivalSec -= t0
	}
	return &Trace{
		Source:    source,
		Rows:      rows,
		Dropped:   dropped,
		Defaulted: defaulted,
		Causes:    countCauses(jobs),
		Jobs:      jobs,
	}, nil
}

// sortByArrival orders jobs by arrival, stably: pairing SUBMIT/FINISH events
// can emit jobs out of order, and equal instants must keep their file order
// for determinism.
//
// The sort runs over 16-byte (arrival, file position) keys rather than the
// jobs themselves — the position breaks ties, so an unstable sort of the keys
// is the stable sort of the jobs — and the jobs move once, along the
// permutation's cycles. The comparisons are built from "<": the parsers drop
// non-finite timestamps, so "<" is a strict weak order.
func sortByArrival(jobs []Job) {
	type key struct {
		at  float64
		pos int
	}
	keys := make([]key, len(jobs))
	for i, j := range jobs {
		keys[i] = key{j.ArrivalSec, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.at < b.at:
			return -1
		case b.at < a.at:
			return 1
		}
		return a.pos - b.pos
	})
	// Position k takes the job at keys[k].pos. Walk each cycle once: hold
	// its first job, shift the rest along, and mark every placed position
	// by pointing its key at itself.
	for i := range keys {
		if keys[i].pos == i {
			continue
		}
		held := jobs[i]
		k := i
		for {
			src := keys[k].pos
			keys[k].pos = k
			if src == i {
				jobs[k] = held
				break
			}
			jobs[k] = jobs[src]
			k = src
		}
	}
}

// clamp01 clamps a normalized resource request into [0, 1]; callers have
// already rejected non-finite values.
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
