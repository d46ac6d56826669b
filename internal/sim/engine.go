package sim

import "fmt"

// EventID is the value handle of a scheduled event, which CancelID takes: the
// event's schedule sequence number. The zero EventID is valid to cancel (a
// no-op), so callers can track "no pending event" without a pointer. Events
// with equal timestamps fire in scheduling order (FIFO), which keeps the
// simulation deterministic.
type EventID struct {
	seq uint64 // 0 = none; scheduled events number from 1
}

// EventHandler is what every event fires: the allocation-free alternative to
// scheduling closures. A single handler instance is typically registered for
// many events, with the payload word disambiguating them (a request's
// arrival instant, an index into caller-owned state, ...).
type EventHandler interface {
	// OnEvent fires at the event's timestamp with the payload word passed to
	// ScheduleTyped.
	OnEvent(now Time, arg uint64)
}

// event is one pending event, stored by value in the queue or the lane. Its
// seq is unique per engine and is both the FIFO tiebreak for equal
// timestamps and the EventID that cancels it.
type event struct {
	at  Time
	seq uint64
	h   EventHandler
	arg uint64
}

// less orders events by (at, seq): a strict total order, since seq is unique.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is the discrete-event simulation core. It is not safe for concurrent
// use: the simulated world is single-threaded by design (determinism), and
// parallelism belongs outside the engine (e.g., running independent scenarios
// on separate goroutines, each with its own Engine).
//
// The event queue is one slice of events kept sorted in descending (at, seq)
// order, so the earliest event is last: a pop is a reslice, and an insert
// moves up one place each entry that fires before the new one. An episode
// holds at most about 15 entries beside the monotone lane, so an insert
// moves a few (3.7 on average on a day-shaped run) and CancelID finds its
// event by a short scan; a deep queue pays O(n) per insert, which
// BenchmarkHeapChurn states. Both arrays are reused, so the steady state of
// the typed-event API allocates nothing.
type Engine struct {
	now     Time
	seq     uint64 // the last issued sequence number
	fired   uint64
	stopped bool

	queue []event

	// lane is a ring-buffer FIFO holding events from monotone sources (open-
	// loop arrival generators): pushes arrive in nondecreasing time order, so
	// an append keeps them sorted — the run loop merges the lane head with the
	// queue's earliest entry by (at, seq). Purely an optimization:
	// ScheduleMonotoneTyped falls back to the queue whenever monotonicity
	// would not hold. Its capacity is a power of two, so indices wrap by mask.
	lane       []event
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
func (e *Engine) Pending() int { return len(e.queue) + e.laneLen }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Reset returns the engine to t=0 with an empty queue, keeping the queue and
// lane arrays for reuse and dropping every handler they held. Outstanding
// EventID handles are invalidated — the schedule sequence continues across
// Reset, so a stale pre-Reset handle can never alias a post-Reset event and
// cancelling one is a guaranteed no-op. Event order depends only on relative
// seq, so a reset engine behaves identically to a fresh one and episode
// runners can recycle engines across runs without perturbing determinism.
func (e *Engine) Reset() {
	e.now, e.fired, e.stopped = 0, 0, false
	clear(e.queue[:cap(e.queue)])
	e.queue = e.queue[:0]
	clear(e.lane)
	e.laneHead, e.laneLen, e.laneLastAt = 0, 0, 0
}

// stamp checks that at is not in the past and issues the next sequence
// number.
func (e *Engine) stamp(at Time) uint64 {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	return e.seq
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
	return e.ScheduleTyped(at, funcEvent(fn), 0)
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
	seq := e.stamp(at)
	e.insert(at, seq, h, arg)
	return EventID{seq}
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
		return e.ScheduleTyped(at, h, arg)
	}
	seq := e.stamp(at)
	e.laneLastAt = at
	e.lanePush(at, seq, h, arg)
	return EventID{seq}
}

// AfterMonotoneTyped runs handler.OnEvent after delay d via the monotone
// lane.
func (e *Engine) AfterMonotoneTyped(d Duration, h EventHandler, arg uint64) EventID {
	if d < 0 {
		d = 0
	}
	return e.ScheduleMonotoneTyped(e.now.Add(d), h, arg)
}

// lanePush appends an event to the monotone FIFO, doubling the ring when
// full. It starts at 4 records: an episode's one arrival source keeps a
// single event on the lane.
func (e *Engine) lanePush(at Time, seq uint64, h EventHandler, arg uint64) {
	if e.laneLen == len(e.lane) {
		grown := make([]event, max(2*len(e.lane), 4))
		for i := 0; i < e.laneLen; i++ {
			grown[i] = e.lane[(e.laneHead+i)&(len(e.lane)-1)]
		}
		e.lane = grown
		e.laneHead = 0
	}
	ev := &e.lane[(e.laneHead+e.laneLen)&(len(e.lane)-1)]
	ev.at, ev.seq, ev.h, ev.arg = at, seq, h, arg
	e.laneLen++
}

// CancelID removes a pending event, reporting whether one was cancelled.
// It scans the few pending events for the ID's sequence number and closes
// the gap: a copy in the queue, a shift toward the tail in the lane. Zero,
// fired, already-cancelled and pre-Reset IDs are no-ops.
func (e *Engine) CancelID(id EventID) bool {
	if id.seq == 0 {
		return false
	}
	for i := range e.queue {
		if e.queue[i].seq == id.seq {
			copy(e.queue[i:], e.queue[i+1:])
			e.queue = e.queue[:len(e.queue)-1]
			return true
		}
	}
	mask := len(e.lane) - 1
	for i := 0; i < e.laneLen; i++ {
		if e.lane[(e.laneHead+i)&mask].seq != id.seq {
			continue
		}
		for ; i < e.laneLen-1; i++ {
			e.lane[(e.laneHead+i)&mask] = e.lane[(e.laneHead+i+1)&mask]
		}
		e.laneLen--
		return true
	}
	return false
}

// insert places an event, scheduled after every pending one, in the
// descending queue. Its seq is the largest, so each entry at or before at
// fires first: the walk from the earliest end moves those up one place and
// stops at the first later one. insert and lanePush fill the record field
// by field: assigning a whole event has the compiler build it on the stack
// and copy it in 16-byte halves across its 8-byte stores, a store-forwarding
// stall that made BenchmarkScheduleFireTyped 1.6× slower.
func (e *Engine) insert(at Time, seq uint64, h EventHandler, arg uint64) {
	q := append(e.queue, event{})
	i := len(q) - 1
	for i > 0 && q[i-1].at <= at {
		q[i] = q[i-1]
		i--
	}
	ev := &q[i]
	ev.at, ev.seq, ev.h, ev.arg = at, seq, h, arg
	e.queue = q
}

// next returns the earliest pending event, in place, and whether it is the
// lane head rather than the queue's last entry; nil when nothing is pending.
func (e *Engine) next() (ev *event, fromLane bool) {
	n := len(e.queue)
	switch {
	case e.laneLen == 0:
		if n == 0 {
			return nil, false
		}
		return &e.queue[n-1], false
	case n == 0 || less(&e.lane[e.laneHead], &e.queue[n-1]):
		return &e.lane[e.laneHead], true
	default:
		return &e.queue[n-1], false
	}
}

// fire removes ev, which next returned, from its source and executes it.
// It copies the fields out first and leaves the popped record as it is:
// zeroing it would add a 40-byte store to every event, and Reset drops the
// handlers left behind.
func (e *Engine) fire(ev *event, fromLane bool) {
	at, h, arg := ev.at, ev.h, ev.arg
	if fromLane {
		e.laneHead = (e.laneHead + 1) & (len(e.lane) - 1)
		e.laneLen--
	} else {
		e.queue = e.queue[:len(e.queue)-1]
	}
	e.now = at
	e.fired++
	h.OnEvent(at, arg)
}

// Run executes events in timestamp order until the queue empties, the horizon
// passes, or Stop is called. The clock finishes at min(horizon, last event)
// when the queue drains, or exactly at the horizon otherwise.
func (e *Engine) Run(horizon Time) {
	e.stopped = false
	for !e.stopped {
		ev, fromLane := e.next()
		if ev == nil {
			break
		}
		if ev.at > horizon {
			e.now = horizon
			return
		}
		e.fire(ev, fromLane)
	}
	if !e.stopped && e.now < horizon && horizon < Forever {
		e.now = horizon
	}
}

// Step executes exactly one event if any is pending, and reports whether one
// fired. Useful for fine-grained tests.
func (e *Engine) Step() bool {
	ev, fromLane := e.next()
	if ev == nil {
		return false
	}
	e.fire(ev, fromLane)
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
