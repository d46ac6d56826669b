package sim

import "fmt"

// EventID is the value handle of a scheduled event, which CancelID takes.
// The zero EventID is valid to cancel (a no-op), so callers can track "no
// pending event" without a pointer. Events with equal timestamps fire in
// scheduling order (FIFO), which keeps the simulation deterministic.
type EventID struct {
	idx int32 // slot index + 1; 0 = none
	seq uint64
}

// Valid reports whether the ID refers to an event that was scheduled (it may
// have fired or been cancelled since).
func (id EventID) Valid() bool { return id.idx != 0 }

// EventHandler is what every event fires: the allocation-free alternative to
// scheduling closures. A single handler instance is typically registered for
// many events, with the payload word disambiguating them (a request's
// arrival instant, an index into caller-owned state, ...).
type EventHandler interface {
	// OnEvent fires at the event's timestamp with the payload word passed to
	// ScheduleTyped.
	OnEvent(now Time, arg uint64)
}

// freeSeq marks a slot with no current occupant; live events always carry
// their unique schedule sequence number instead.
const freeSeq = ^uint64(0)

// eventSlot is the arena record of one scheduled event. Slots are recycled
// through a free list once the event fires or is cancelled; the occupant's
// unique seq distinguishes it from stale handles and stale queue entries.
type eventSlot struct {
	seq uint64 // freeSeq when unoccupied
	h   EventHandler
	arg uint64
}

// idxBits is the width of the slot index inside a queue key: up to 16M events
// pending at once, leaving 40 bits of schedule sequence (a trillion events
// per engine lifetime — Reset starts a fresh sequence).
const idxBits = 24

// queueEntry is one pending event: the timestamp plus (seq<<idxBits | idx).
// Packing keeps entries at 16 bytes, and since seq occupies the high bits,
// comparing keys compares seq — the FIFO tiebreak for equal timestamps.
type queueEntry struct {
	at  Time
	key uint64
}

// Engine is the discrete-event simulation core. It is not safe for concurrent
// use: the simulated world is single-threaded by design (determinism), and
// parallelism belongs outside the engine (e.g., running independent scenarios
// on separate goroutines, each with its own Engine).
//
// The event queue is one slice of value entries kept sorted in descending
// (at, seq) order, so the earliest event is last: a pop is a reslice, and an
// insert moves up one place each entry that fires before the new one. An
// episode holds at most about 15 entries beside the monotone lane, so an
// insert moves a few (3.7 on average on a day-shaped run); a deep queue pays
// O(n) per insert, which BenchmarkHeapChurn states. Fired and cancelled
// slots return to a free list, so the steady state of the typed-event API
// allocates nothing. Cancellation is lazy: the slot is released in O(1) and
// its queue entry is dropped when it surfaces.
type Engine struct {
	now     Time
	seq     uint64
	fired   uint64
	live    int
	stopped bool

	queue []queueEntry
	slots []eventSlot
	free  []int32

	// lane is a ring-buffer FIFO holding events from monotone sources (open-
	// loop arrival generators): pushes arrive in nondecreasing time order, so
	// an append keeps them sorted — the run loop merges the lane head with the
	// queue's earliest entry by (at, seq). Purely an optimization:
	// ScheduleMonotoneTyped falls back to the queue whenever monotonicity
	// would not hold. Its capacity is a power of two, so indices wrap by mask.
	lane       []queueEntry
	laneHead   int
	laneLen    int
	laneLastAt Time
}

// NewEngine returns an engine positioned at t=0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of scheduled, uncancelled events.
func (e *Engine) Pending() int { return e.live }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Reset returns the engine to t=0 with an empty queue, keeping the queue and
// slot arenas for reuse. Outstanding EventID handles are invalidated —
// the schedule sequence continues across Reset, so a stale pre-Reset handle
// can never alias a post-Reset event and cancelling one is a guaranteed
// no-op. Event order depends only on relative seq, so a reset engine behaves
// identically to a fresh one and episode runners can recycle engines across
// runs without perturbing determinism.
func (e *Engine) Reset() {
	e.now, e.fired, e.live, e.stopped = 0, 0, 0, false
	e.queue = e.queue[:0]
	e.laneHead, e.laneLen, e.laneLastAt = 0, 0, 0
	e.free = e.free[:0]
	for i := range e.slots {
		s := &e.slots[i]
		s.seq = freeSeq
		s.h, s.arg = nil, 0
		e.free = append(e.free, int32(i))
	}
}

// allocSlot reserves a slot for a new event and returns its queue/lane entry.
func (e *Engine) allocSlot(at Time, h EventHandler, arg uint64) (queueEntry, EventID) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.slots) >= 1<<idxBits {
			panic("sim: too many pending events")
		}
		e.slots = append(e.slots, eventSlot{})
		idx = int32(len(e.slots) - 1)
	}
	seq := e.seq
	if seq >= 1<<(64-idxBits) {
		panic("sim: schedule sequence exhausted; Reset the engine")
	}
	e.seq++
	s := &e.slots[idx]
	s.seq, s.h, s.arg = seq, h, arg
	e.live++
	return queueEntry{at: at, key: seq<<idxBits | uint64(idx)}, EventID{idx: idx + 1, seq: seq}
}

// alloc reserves a slot and inserts its queue entry.
func (e *Engine) alloc(at Time, h EventHandler, arg uint64) EventID {
	ent, id := e.allocSlot(at, h, arg)
	e.insert(ent)
	return id
}

// release recycles a slot after its event fired or was cancelled.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.seq = freeSeq
	s.h, s.arg = nil, 0
	e.free = append(e.free, idx)
}

// funcEvent adapts a closure to EventHandler, so Schedule and After ride the
// typed path. A func value is one pointer, so the conversion boxes nothing.
type funcEvent func()

// OnEvent implements EventHandler.
func (f funcEvent) OnEvent(Time, uint64) { f() }

// Schedule runs fn at the given instant. Scheduling in the past panics: it
// would silently corrupt causality. The returned EventID may be cancelled.
//
// The captured closure usually allocates; the per-request hot path should
// use ScheduleTyped instead.
func (e *Engine) Schedule(at Time, fn func()) EventID {
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	return e.alloc(at, funcEvent(fn), 0)
}

// After runs fn after delay d from the current time.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// ScheduleTyped runs handler.OnEvent(at, arg) at the given instant. It is the
// allocation-free form of Schedule: the handler is a long-lived object and
// arg a payload word, so no closure is captured and the returned EventID is a
// value. Scheduling in the past panics.
func (e *Engine) ScheduleTyped(at Time, h EventHandler, arg uint64) EventID {
	if h == nil {
		panic("sim: scheduling nil event handler")
	}
	return e.alloc(at, h, arg)
}

// AfterTyped runs handler.OnEvent after delay d from the current time.
func (e *Engine) AfterTyped(d Duration, h EventHandler, arg uint64) EventID {
	if d < 0 {
		d = 0
	}
	return e.ScheduleTyped(e.now.Add(d), h, arg)
}

// ScheduleMonotoneTyped is ScheduleTyped for event sources whose timestamps
// never decrease (an open-loop arrival generator rescheduling itself). Such
// events take an O(1) FIFO lane instead of the queue; execution order
// is identical — the run loop merges lane and queue by the same (at, seq)
// total order. If at is below the lane's newest timestamp the event simply
// goes to the queue, so the lane is always safe to use.
func (e *Engine) ScheduleMonotoneTyped(at Time, h EventHandler, arg uint64) EventID {
	if h == nil {
		panic("sim: scheduling nil event handler")
	}
	if at < e.laneLastAt {
		return e.alloc(at, h, arg)
	}
	ent, id := e.allocSlot(at, h, arg)
	e.laneLastAt = at
	e.lanePush(ent)
	return id
}

// AfterMonotoneTyped runs handler.OnEvent after delay d via the monotone
// lane.
func (e *Engine) AfterMonotoneTyped(d Duration, h EventHandler, arg uint64) EventID {
	if d < 0 {
		d = 0
	}
	return e.ScheduleMonotoneTyped(e.now.Add(d), h, arg)
}

// lanePush appends an entry to the monotone FIFO, doubling the ring (from
// 16) when full.
func (e *Engine) lanePush(ent queueEntry) {
	if e.laneLen == len(e.lane) {
		grown := make([]queueEntry, 2*len(e.lane))
		if len(grown) == 0 {
			grown = make([]queueEntry, 16)
		}
		for i := 0; i < e.laneLen; i++ {
			grown[i] = e.lane[(e.laneHead+i)&(len(e.lane)-1)]
		}
		e.lane = grown
		e.laneHead = 0
	}
	e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)] = ent
	e.laneLen++
}

// lanePop removes the lane head.
func (e *Engine) lanePop() {
	e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
	e.laneLen--
}

// CancelID removes a scheduled event in O(1), reporting whether a live event
// was cancelled: the slot is recycled immediately and the queue entry
// tombstoned (dropped lazily when it becomes the earliest). Zero, fired, and
// already-cancelled IDs are no-ops.
func (e *Engine) CancelID(id EventID) bool {
	if id.idx == 0 {
		return false
	}
	idx := id.idx - 1
	if int(idx) >= len(e.slots) || e.slots[idx].seq != id.seq {
		return false
	}
	e.release(idx)
	e.live--
	return true
}

// less orders queue entries by (at, seq): a strict total order, since seq is
// unique per engine and forms the key's high bits.
func less(a, b queueEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// insert places ent in the descending queue. It walks from the earliest
// end, moving each entry that fires before ent up one place, so it costs
// one comparison and one move per entry that fires before ent.
func (e *Engine) insert(ent queueEntry) {
	q := append(e.queue, ent)
	i := len(q) - 1
	for i > 0 && less(q[i-1], ent) {
		q[i] = q[i-1]
		i--
	}
	q[i] = ent
	e.queue = q
}

// fire executes the event in slot idx, which must be top's live occupant.
func (e *Engine) fire(top queueEntry, idx int32, s *eventSlot) {
	h, arg := s.h, s.arg
	e.release(idx)
	e.now = top.at
	e.fired++
	e.live--
	h.OnEvent(top.at, arg)
}

// next locates the earliest live event across the queue and the monotone
// lane, dropping tombstones of cancelled events on the way. It reports the
// entry and whether it came from the lane; ok is false when nothing is
// pending.
func (e *Engine) next() (top queueEntry, fromLane, ok bool) {
	n := len(e.queue)
	for ; n > 0; n-- {
		t := e.queue[n-1]
		if e.slots[t.key&(1<<idxBits-1)].seq == t.key>>idxBits {
			break
		}
	}
	e.queue = e.queue[:n]
	for e.laneLen > 0 {
		t := e.lane[e.laneHead]
		if e.slots[t.key&(1<<idxBits-1)].seq == t.key>>idxBits {
			break
		}
		e.lanePop()
	}
	switch {
	case n == 0 && e.laneLen == 0:
		return queueEntry{}, false, false
	case n == 0:
		return e.lane[e.laneHead], true, true
	case e.laneLen == 0:
		return e.queue[n-1], false, true
	case less(e.lane[e.laneHead], e.queue[n-1]):
		return e.lane[e.laneHead], true, true
	default:
		return e.queue[n-1], false, true
	}
}

// pop removes the entry next() returned from its source structure.
func (e *Engine) pop(fromLane bool) {
	if fromLane {
		e.lanePop()
	} else {
		e.queue = e.queue[:len(e.queue)-1]
	}
}

// Run executes events in timestamp order until the queue empties, the horizon
// passes, or Stop is called. The clock finishes at min(horizon, last event)
// when the queue drains, or exactly at the horizon otherwise.
func (e *Engine) Run(horizon Time) {
	e.stopped = false
	for !e.stopped {
		top, fromLane, ok := e.next()
		if !ok {
			break
		}
		if top.at > horizon {
			e.now = horizon
			return
		}
		e.pop(fromLane)
		idx := int32(top.key & (1<<idxBits - 1))
		e.fire(top, idx, &e.slots[idx])
	}
	if !e.stopped && e.now < horizon && horizon < Forever {
		e.now = horizon
	}
}

// Step executes exactly one event if any is pending, and reports whether one
// fired. Useful for fine-grained tests.
func (e *Engine) Step() bool {
	top, fromLane, ok := e.next()
	if !ok {
		return false
	}
	e.pop(fromLane)
	idx := int32(top.key & (1<<idxBits - 1))
	e.fire(top, idx, &e.slots[idx])
	return true
}

// Stop halts Run after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Ticker invokes a callback every period through the typed-event path, so a
// long-running ticker schedules allocation-free. The zero value is idle;
// Start arms it in place, so an owner can embed one and restart it on a
// reset engine without allocating.
type Ticker struct {
	e       *Engine
	period  Duration
	fn      func(Time)
	stopped bool
	pending EventID
}

// Start arms t to invoke fn every period on e, starting one period from now.
// fn receives the tick time. Starting a ticker replaces whatever it was
// armed with before, cancelling its pending tick, so an owner restarting it
// needs no Stop.
func (t *Ticker) Start(e *Engine, period Duration, fn func(Time)) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	if t.e != nil {
		t.e.CancelID(t.pending)
	}
	*t = Ticker{e: e, period: period, fn: fn}
	t.pending = e.AfterTyped(period, t, 0)
}

// Stop halts the ticker; a zero Ticker stops as a no-op.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.e != nil {
		t.e.CancelID(t.pending)
	}
}

// OnEvent implements EventHandler.
func (t *Ticker) OnEvent(now Time, _ uint64) {
	if t.stopped {
		return
	}
	e, armed := t.e, t.pending
	t.fn(now)
	// fn may have stopped the ticker or restarted it with a fresh tick.
	if !t.stopped && t.e == e && t.pending == armed {
		t.pending = t.e.AfterTyped(t.period, t, 0)
	}
}

// Ticker invokes fn every period, starting one period from now, until the
// returned stop function is called. fn receives the tick time.
func (e *Engine) Ticker(period Duration, fn func(Time)) (stop func()) {
	t := &Ticker{}
	t.Start(e, period, fn)
	return t.Stop
}
