package sim

import (
	"container/heap"
	"testing"
)

// refEvent is one event of the reference queue: its timestamp and its
// schedule sequence, which is both the FIFO tiebreak and the payload word
// the event fires with.
type refEvent struct {
	at  Time
	seq uint64
}

// refQueue is the reference the engine is checked against: a container/heap
// ordered by (at, schedule seq), with cancelled events skipped when they
// surface. It has no lane and removes nothing in place.
type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// recorder is the handler of every fuzzed event: it logs the payload words
// in firing order.
type recorder struct{ fired []uint64 }

func (r *recorder) OnEvent(_ Time, arg uint64) { r.fired = append(r.fired, arg) }

// FuzzEngineOrder decodes the input into a program of engine operations and
// runs it against the engine and the reference queue side by side. Each op
// is a byte pair: the first selects ScheduleTyped, ScheduleMonotoneTyped,
// CancelID, Step, a closure Schedule or Reset, the second gives a delay (in
// ns past Now, 0-15 so equal timestamps are common and monotone pushes often
// fall below the lane's newest entry) or picks an issued ID to cancel, live
// or not. A closure logs its sequence into the same record as the typed
// handler, so all three schedule forms share one FIFO order. Reset empties
// the reference and rewinds its clock, so every ID issued before it is dead.
// After every op the fired payloads, Now() and Pending() must match, and
// CancelID must report a cancel exactly when the reference event was still
// live.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 3, 1, 3, 0, 3, 1, 3, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 9, 1, 2, 0, 0, 2, 0, 3, 0, 2, 1, 3, 0, 3, 0})
	f.Add([]byte{1, 5, 1, 5, 0, 5, 1, 1, 3, 0, 1, 0, 2, 3, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{4, 2, 0, 2, 1, 2, 4, 2, 2, 0, 3, 0, 4, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{1, 4, 0, 6, 3, 0, 5, 0, 2, 1, 1, 2, 0, 1, 2, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		e := NewEngine()
		rec := &recorder{}
		var (
			ref      refQueue
			refNow   Time
			refFired []uint64
			ids      []EventID
			live     = map[uint64]bool{} // schedule seq -> pending in the reference
		)
		for pc := 0; pc+1 < len(prog); pc += 2 {
			op, x := prog[pc]%6, prog[pc+1]
			switch op {
			case 0, 1, 4:
				at := refNow + Time(x%16)
				seq := uint64(len(ids))
				switch op {
				case 0:
					ids = append(ids, e.ScheduleTyped(at, rec, seq))
				case 1:
					ids = append(ids, e.ScheduleMonotoneTyped(at, rec, seq))
				default:
					ids = append(ids, e.Schedule(at, func() { rec.OnEvent(at, seq) }))
				}
				heap.Push(&ref, refEvent{at: at, seq: seq})
				live[seq] = true
			case 2:
				if len(ids) == 0 {
					continue
				}
				seq := uint64(int(x) % len(ids))
				want := live[seq]
				if got := e.CancelID(ids[seq]); got != want {
					t.Fatalf("op %d: CancelID(event %d) = %v, reference %v", pc/2, seq, got, want)
				}
				delete(live, seq)
			case 3:
				for ref.Len() > 0 && !live[ref[0].seq] {
					heap.Pop(&ref)
				}
				wantFire := ref.Len() > 0
				if wantFire {
					ev := heap.Pop(&ref).(refEvent)
					delete(live, ev.seq)
					refNow = ev.at
					refFired = append(refFired, ev.seq)
				}
				if got := e.Step(); got != wantFire {
					t.Fatalf("op %d: Step() = %v, reference %v", pc/2, got, wantFire)
				}
			case 5:
				e.Reset()
				ref = ref[:0]
				clear(live)
				refNow = 0
			}
			if len(rec.fired) != len(refFired) {
				t.Fatalf("op %d: engine fired %d events, reference %d", pc/2, len(rec.fired), len(refFired))
			}
			if n := len(refFired); n > 0 && rec.fired[n-1] != refFired[n-1] {
				t.Fatalf("op %d: fired event %d, reference %d (history %v vs %v)", pc/2, rec.fired[n-1], refFired[n-1], rec.fired, refFired)
			}
			if e.Now() != refNow {
				t.Fatalf("op %d: Now() = %v, reference %v", pc/2, e.Now(), refNow)
			}
			if e.Pending() != len(live) {
				t.Fatalf("op %d: Pending() = %d, reference %d", pc/2, e.Pending(), len(live))
			}
		}
	})
}
