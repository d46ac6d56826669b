package trace

import (
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
// streaming, never held whole: memory grows with the number of jobs (the job
// list, and for Google the SUBMIT-order list and open-task map, take an entry
// per task), not with the file's other rows or bytes, plus a 64 KiB read
// buffer (on the encoding/csv fallback, a buffer of the longest row).
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
		id         string // the pending key, reused as Job.ID
		arrivalSec float64
		cpu, mem   float64
	}
	rr := newRowReader(r, gMinCols)
	// pending is looked up by the row's job/task bytes (pending[string(key)]
	// does not allocate); a task's key string is made once, at the SUBMIT
	// that opens it.
	pending := map[string]open{}
	var key []byte
	// order records SUBMIT file order: tasks still open at EOF must emit in
	// a deterministic order (map iteration would scramble equal-instant
	// orphans run to run), and file order is what finishTrace's stable sort
	// promises to preserve among equal arrivals.
	var order []string
	for {
		rec, err := rr.next()
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
		ts, err1 := parseFloat(rec[gTimestamp])
		event, err2 := strconv.Atoi(string(rec[gEventType]))
		if err1 != nil || err2 != nil || ts < 0 || !isFinite(ts) {
			dropped++
			continue
		}
		key = append(append(append(key[:0], rec[gJobID]...), '/'), rec[gTaskIndex]...)
		sec := ts / 1e6
		switch event {
		case gSubmit:
			cpu := parseFraction(rec[gCPUReq])
			mem := parseFraction(rec[gMemReq])
			if math.IsNaN(cpu) || math.IsNaN(mem) {
				dropped++
				continue
			}
			// A SUBMIT for a task still open overwrites its arrival and
			// request in place, keeping its first SUBMIT position.
			o, ok := pending[string(key)]
			if !ok {
				o.id = string(key)
				order = append(order, o.id)
			}
			o.arrivalSec, o.cpu, o.mem = sec, cpu, mem
			pending[o.id] = o
		case gFinish, gEvict, gFail, gKill, gLost:
			o, ok := pending[string(key)]
			if !ok {
				// Terminal event for a task whose SUBMIT predates the trace
				// window — nothing to anchor an arrival to.
				dropped++
				continue
			}
			delete(pending, o.id)
			dur := sec - o.arrivalSec
			if dur < 0 {
				dropped++
				continue
			}
			jobs = append(jobs, Job{
				ID:          o.id,
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
	// default, in SUBMIT file order. A task closed and submitted again
	// emits at its key's first SUBMIT position.
	for _, id := range order {
		o, ok := pending[id]
		if !ok {
			continue // closed (possibly resubmitted and closed again)
		}
		delete(pending, id)
		jobs = append(jobs, Job{
			ID:          o.id,
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

// looksLikeHeader reports whether a first-column value is non-numeric — both
// schemas are numeric in column 0 (timestamp, or the Azure vmid hash which
// some exports emit as a header label).
func looksLikeHeader(field []byte) bool {
	_, err := parseFloat(field)
	return err != nil
}

// parseFraction reads a normalized resource column: empty cells (redacted in
// real exports) mean zero, anything unparsable or non-finite is NaN so the
// caller drops the row.
func parseFraction(field []byte) float64 {
	if len(field) == 0 {
		return 0
	}
	v, err := parseFloat(field)
	if err != nil || !isFinite(v) {
		return math.NaN()
	}
	return v
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
