package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Google ClusterData-style task-event columns (the subset the ingester
// needs; real exports carry thirteen, and extra columns are ignored).
const (
	gTimestamp = 0 // microseconds since trace start
	gJobID     = 2
	gTaskIndex = 3
	gEventType = 5
	gCPUReq    = 9 // normalized fraction of a machine
	gMemReq    = 10
	gMinCols   = 11
)

// ClusterData task-event types. SUBMIT opens a task; FINISH (and the other
// terminal events — the task stopped running either way) closes it; the
// SCHEDULE and UPDATE events carry no arrival information.
const (
	gSubmit        = 0
	gSchedule      = 1
	gEvict         = 2
	gFail          = 3
	gFinish        = 4
	gKill          = 5
	gLost          = 6
	gUpdatePending = 7
	gUpdateRunning = 8
)

// Parse reads a trace in the given format. The reader is consumed
// streaming: memory stays proportional to the number of concurrently open
// tasks (Google) or emitted jobs, never to the file size.
func Parse(r io.Reader, f Format) (*Trace, error) {
	switch f {
	case Google:
		return ParseGoogle(r)
	case Azure:
		return ParseAzure(r)
	}
	return nil, fmt.Errorf("trace: unknown format %v", f)
}

// ParseGoogle reads ClusterData-style task events: SUBMIT rows open a task
// with its arrival instant and resource request; the task's first terminal
// event (FINISH, EVICT, FAIL, KILL, LOST) closes it and fixes its duration.
// Tasks with no terminal event by EOF get the mean observed duration
// (Trace.Defaulted counts them). A header row, if present, is skipped.
func ParseGoogle(r io.Reader) (*Trace, error) {
	rows, dropped, jobs, err := readGoogle(r)
	if err != nil {
		return nil, err
	}
	return finishTrace("google", rows, dropped, jobs)
}

// readGoogle parses task events into jobs in emission order: each task at
// its terminal event, then the still-open tasks in SUBMIT order.
func readGoogle(r io.Reader) (rows, dropped int, jobs []Job, err error) {
	type open struct {
		arrivalSec float64
		cpu, mem   float64
	}
	cr := newCSVReader(r)
	pending := map[string]open{}
	// order records SUBMIT file order: tasks still open at EOF must emit in
	// a deterministic order (map iteration would scramble equal-instant
	// orphans run to run), and file order is what finishTrace's stable sort
	// promises to preserve among equal arrivals.
	var order []string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("trace: google row %d: %w", rows+1, err)
		}
		rows++
		if rows == 1 && looksLikeHeader(rec[gTimestamp]) {
			rows--
			continue
		}
		if len(rec) < gMinCols {
			dropped++
			continue
		}
		ts, err1 := strconv.ParseFloat(rec[gTimestamp], 64)
		event, err2 := strconv.Atoi(rec[gEventType])
		if err1 != nil || err2 != nil || ts < 0 || !isFinite(ts) {
			dropped++
			continue
		}
		key := rec[gJobID] + "/" + rec[gTaskIndex]
		sec := ts / 1e6
		switch event {
		case gSubmit:
			cpu := parseFraction(rec[gCPUReq])
			mem := parseFraction(rec[gMemReq])
			if math.IsNaN(cpu) || math.IsNaN(mem) {
				dropped++
				continue
			}
			if _, ok := pending[key]; !ok {
				order = append(order, key)
			}
			pending[key] = open{arrivalSec: sec, cpu: cpu, mem: mem}
		case gFinish, gEvict, gFail, gKill, gLost:
			o, ok := pending[key]
			if !ok {
				// Terminal event for a task whose SUBMIT predates the trace
				// window — nothing to anchor an arrival to.
				dropped++
				continue
			}
			delete(pending, key)
			dur := sec - o.arrivalSec
			if dur < 0 {
				dropped++
				continue
			}
			jobs = append(jobs, Job{
				ID:          key,
				ArrivalSec:  o.arrivalSec,
				DurationSec: dur,
				CPU:         clamp01(o.cpu),
				Mem:         clamp01(o.mem),
				Cause:       causeOfEvent(event),
			})
		case gSchedule, gUpdatePending, gUpdateRunning:
			// Placement and update events carry no new information for
			// arrival replay — well-formed rows, not validation rejects.
		default:
			dropped++
		}
	}
	// Tasks still open at EOF arrived but never terminated inside the
	// window: keep them with an unknown duration for finishTrace to
	// default, in SUBMIT file order.
	for _, key := range order {
		o, ok := pending[key]
		if !ok {
			continue // closed (possibly resubmitted and closed again)
		}
		delete(pending, key)
		jobs = append(jobs, Job{
			ID:          key,
			ArrivalSec:  o.arrivalSec,
			DurationSec: -1,
			CPU:         clamp01(o.cpu),
			Mem:         clamp01(o.mem),
		})
	}
	return rows, dropped, jobs, nil
}

// causeOfEvent maps a ClusterData terminal event type to its Cause. The
// per-cause identity used to be collapsed here (every terminal meant "the
// task stopped"); preserving it lets fault injection replay a trace's real
// failure mix (fault.FromTrace, pliant-sched -trace-faults).
func causeOfEvent(event int) Cause {
	switch event {
	case gFinish:
		return CauseFinish
	case gEvict:
		return CauseEvict
	case gFail:
		return CauseFail
	case gKill:
		return CauseKill
	case gLost:
		return CauseLost
	}
	return CauseUnknown
}

// newCSVReader configures the shared reader: variable-width rows (real
// exports differ in trailing columns) and no quote pedantry.
func newCSVReader(r io.Reader) *csv.Reader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	cr.LazyQuotes = true
	return cr
}

// looksLikeHeader reports whether a first-column value is non-numeric — both
// schemas are numeric in column 0 (timestamp, or the Azure vmid hash which
// some exports emit as a header label).
func looksLikeHeader(field string) bool {
	_, err := strconv.ParseFloat(field, 64)
	return err != nil
}

// parseFraction reads a normalized resource column: empty cells (redacted in
// real exports) mean zero, anything unparsable or non-finite is NaN so the
// caller drops the row.
func parseFraction(field string) float64 {
	if field == "" {
		return 0
	}
	v, err := strconv.ParseFloat(field, 64)
	if err != nil || !isFinite(v) {
		return math.NaN()
	}
	return v
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
