package obs

// Kind discriminates tracer records.
type Kind uint8

// The traced decision kinds. Payload fields A/B/C are kind-specific; see
// each constant's comment. All quantities are virtual-time or count-valued —
// never wall-clock — so traces are byte-deterministic.
const (
	// KindWindow marks a scheduling-window boundary. Node is unused (-1).
	// A = pending-queue depth, B = running jobs, C = busy nodes this window.
	KindWindow Kind = iota + 1

	// KindEpisode is one node-window colocation episode. At is the window
	// start; Node the node. A = episode span in virtual ns, B = 1 if the
	// episode's telemetry met QoS, C = episode joules in microjoules
	// (truncated; 0 without an energy model).
	KindEpisode

	// KindPlacement is one policy decision over one pending job. Node is the
	// chosen node, or -1 for a deferral. A = job ID, B = candidate nodes the
	// policy saw with free slots (so B-1 is the rejected-candidate count on
	// a placement), C = the job's deferral count at decision time.
	KindPlacement

	// KindAutoscale is one applied autoscaler verdict. Node is the target.
	// A = the action kind (autoscale.ActionKind numeric value), B = the
	// target frequency state for SetFreq actions (else 0).
	KindAutoscale

	// KindLifecycle is one node lifecycle transition. Node is the node.
	// A = the state left, B = the state entered (autoscale.State values).
	KindLifecycle

	// KindReplayDrop summarizes trace-ingestion losses for a replayed run,
	// emitted once at run start. Node is unused (-1). A = rows dropped at
	// parse time, B = rows whose duration was defaulted, C = jobs replayed.
	KindReplayDrop

	// KindFault is one applied fault-injection event. Node is the subject.
	// A = the event kind (fault.EventKind numeric value), B = kind-specific:
	// jobs requeued for a crash, condition length in virtual ms for a
	// telemetry dropout or straggler window, 0 for a recovery.
	KindFault
)

// String names the kind for renderers.
func (k Kind) String() string {
	switch k {
	case KindWindow:
		return "window"
	case KindEpisode:
		return "episode"
	case KindPlacement:
		return "placement"
	case KindAutoscale:
		return "autoscale"
	case KindLifecycle:
		return "lifecycle"
	case KindReplayDrop:
		return "replay-drop"
	case KindFault:
		return "fault"
	default:
		return "unknown"
	}
}

// kindCount sizes per-kind counters (largest kind value + 1).
const kindCount = int(KindFault) + 1

// Record is one fixed-size tracer entry. The struct stays flat (no pointers,
// no strings) so a ring of them never allocates on the record path and the
// whole buffer stays cache-friendly.
type Record struct {
	// At is the record's virtual-time instant in nanoseconds. For span
	// records (KindEpisode) it is the span's start.
	At int64

	Kind Kind

	// Node is the subject node index, or -1 when the record is not
	// node-scoped.
	Node int32

	// Window is the scheduling-window index the record belongs to.
	Window int32

	// A, B, C are the kind-specific payload; see the Kind constants.
	A, B, C int64
}

// Tracer is a bounded ring of Records. Emit is alloc-free and O(1); on
// overflow the oldest records are overwritten (the newest tail of a run is
// the interesting part of a truncated trace) and Dropped counts the loss —
// deterministically, because emission order is deterministic.
type Tracer struct {
	ring   []Record
	n      uint64 // total records ever emitted
	byKind [kindCount]uint64
}

// NewTracer returns a tracer keeping at most capacity records.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]Record, 0, capacity)}
}

// Emit appends one record, overwriting the oldest if the ring is full.
func (t *Tracer) Emit(r Record) {
	if int(r.Kind) < kindCount {
		t.byKind[r.Kind]++
	}
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.n%uint64(cap(t.ring))] = r
	}
	t.n++
}

// Len returns how many records the ring currently holds.
func (t *Tracer) Len() int { return len(t.ring) }

// Total returns how many records were ever emitted.
func (t *Tracer) Total() uint64 { return t.n }

// Dropped returns how many records the ring overwrote.
func (t *Tracer) Dropped() uint64 { return t.n - uint64(len(t.ring)) }

// CountOf returns how many records of the given kind were emitted (including
// any later overwritten).
func (t *Tracer) CountOf(k Kind) uint64 {
	if int(k) >= kindCount {
		return 0
	}
	return t.byKind[k]
}

// RecordsSince calls fn over the still-retained records emitted at or after
// the cursor (a prior Total value), in emission order, and returns the new
// cursor. Incremental consumers — the serving layer's SSE drain — call it
// once per window boundary: records overwritten between drains are simply
// gone (Dropped counts them), so a lagging consumer loses the oldest
// records, never the ordering of the ones it gets.
func (t *Tracer) RecordsSince(cursor uint64, fn func(Record)) uint64 {
	if cursor >= t.n {
		return t.n
	}
	oldest := t.n - uint64(len(t.ring))
	if cursor < oldest {
		cursor = oldest
	}
	if len(t.ring) > 0 {
		base := t.n % uint64(cap(t.ring)) // write cursor == slot of the oldest retained record when wrapped
		for i := cursor; i < t.n; i++ {
			if t.n <= uint64(len(t.ring)) {
				fn(t.ring[i])
			} else {
				fn(t.ring[(base+(i-oldest))%uint64(len(t.ring))])
			}
		}
	}
	return t.n
}

// Records calls fn over the retained records in emission order.
func (t *Tracer) Records(fn func(Record)) {
	if t.n <= uint64(len(t.ring)) {
		for _, r := range t.ring {
			fn(r)
		}
		return
	}
	// Wrapped: the oldest retained record sits at the write cursor.
	start := int(t.n % uint64(cap(t.ring)))
	for i := 0; i < len(t.ring); i++ {
		fn(t.ring[(start+i)%len(t.ring)])
	}
}
