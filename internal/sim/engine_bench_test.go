package sim

import "testing"

// countingHandler is a minimal typed-event consumer that re-arms itself,
// modeling the steady state of the request path: every fired event schedules
// a successor.
type countingHandler struct {
	e     *Engine
	fired uint64
	args  uint64
	limit uint64
}

func (h *countingHandler) OnEvent(now Time, arg uint64) {
	h.fired++
	h.args += arg
	if h.fired < h.limit {
		h.e.AfterTyped(Duration(1+arg%7), h, arg+1)
	}
}

func TestTypedEventDelivery(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{e: e, limit: 100}
	e.ScheduleTyped(5, h, 3)
	e.Run(Forever)
	if h.fired != 100 {
		t.Fatalf("fired %d typed events, want 100", h.fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", e.Pending())
	}
}

func TestTypedAndClosureEventsInterleaveFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	rec := recordHandler{order: &order}
	e.Schedule(10, func() { order = append(order, 0) })
	e.ScheduleTyped(10, rec, 1)
	e.Schedule(10, func() { order = append(order, 2) })
	e.ScheduleTyped(10, rec, 3)
	e.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time typed/closure events not FIFO: %v", order)
		}
	}
}

type recordHandler struct{ order *[]int }

func (r recordHandler) OnEvent(_ Time, arg uint64) { *r.order = append(*r.order, int(arg)) }

func TestCancelID(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{e: e, limit: 1}
	id := e.ScheduleTyped(10, h, 0)
	if !e.CancelID(id) {
		t.Fatal("CancelID on a live event reported false")
	}
	if e.CancelID(id) {
		t.Fatal("second CancelID reported true")
	}
	if e.CancelID(EventID{}) {
		t.Fatal("CancelID on zero ID reported true")
	}
	e.Run(Forever)
	if h.fired != 0 {
		t.Fatal("cancelled typed event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestCancelledSlotReuseDoesNotMisfire(t *testing.T) {
	// A cancelled event leaves the queue at once; neither it nor the events
	// scheduled after it may fire out of place.
	e := NewEngine()
	var order []int
	rec := recordHandler{order: &order}
	id := e.ScheduleTyped(5, rec, 99)
	e.CancelID(id)
	e.ScheduleTyped(20, rec, 0) // reuses the freed queue place
	e.ScheduleTyped(30, rec, 1)
	e.Run(Forever)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("got %v, want [0 1]", order)
	}
}

func TestEngineReset(t *testing.T) {
	run := func(e *Engine) (uint64, Time) {
		h := &countingHandler{e: e, limit: 50}
		e.ScheduleTyped(1, h, 0)
		var tk Ticker
		tk.Start(e, 10, func(Time) {})
		e.Run(200)
		tk.Stop()
		return h.fired, e.Now()
	}
	fresh := NewEngine()
	f1, t1 := run(fresh)

	reused := NewEngine()
	run(reused)
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Fired() != 0 {
		t.Fatalf("Reset left now=%v pending=%d fired=%d", reused.Now(), reused.Pending(), reused.Fired())
	}
	f2, t2 := run(reused)
	if f1 != f2 || t1 != t2 {
		t.Fatalf("reset engine diverged: fired %d/%d, now %v/%v", f1, f2, t1, t2)
	}
}

func TestResetInvalidatesHandles(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	id := e.ScheduleTyped(10, nopHandler{}, 0)
	e.Reset()
	// Both must be no-ops, not a panic or a live-count underflow.
	if e.CancelID(ev) || e.CancelID(id) {
		t.Fatal("stale EventID cancelled after Reset")
	}
	e.Schedule(5, func() {})
	e.Run(Forever)
	if fired {
		t.Fatal("pre-reset event fired after Reset")
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", e.Fired())
	}
}

type nopHandler struct{}

func (nopHandler) OnEvent(Time, uint64) {}

// monotoneSource re-arms itself through the monotone lane, like an open-loop
// arrival generator.
type monotoneSource struct {
	e     *Engine
	gap   Duration
	fired []Time
}

func (m *monotoneSource) OnEvent(now Time, _ uint64) {
	m.fired = append(m.fired, now)
	m.e.AfterMonotoneTyped(m.gap, m, 0)
}

func TestMonotoneLaneMergesWithHeap(t *testing.T) {
	e := NewEngine()
	src := &monotoneSource{e: e, gap: 10}
	e.ScheduleMonotoneTyped(10, src, 0)
	var heapFires []Time
	for i := 1; i <= 6; i++ {
		at := Time(i*10 - 5) // interleaved between lane events
		e.Schedule(at, func() { heapFires = append(heapFires, e.Now()) })
	}
	e.Run(60)
	if len(src.fired) != 6 || len(heapFires) != 6 {
		t.Fatalf("lane fired %d, heap fired %d, want 6/6", len(src.fired), len(heapFires))
	}
	for i, at := range src.fired {
		if at != Time((i+1)*10) {
			t.Fatalf("lane event %d fired at %v, want %v", i, at, (i+1)*10)
		}
	}
}

func TestMonotoneLaneSameTimeFIFO(t *testing.T) {
	// Lane and queue events at the same timestamp must fire in scheduling
	// order, exactly as two queue events would.
	e := NewEngine()
	var order []int
	rec := recordHandler{order: &order}
	e.ScheduleMonotoneTyped(10, rec, 0)
	e.Schedule(10, func() { order = append(order, 1) })
	e.ScheduleMonotoneTyped(10, rec, 2)
	e.Schedule(10, func() { order = append(order, 3) })
	e.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time lane/heap events not FIFO: %v", order)
		}
	}
}

func TestMonotoneFallbackToHeap(t *testing.T) {
	// A non-monotone timestamp must not corrupt ordering: it silently takes
	// the queue.
	e := NewEngine()
	var order []int
	rec := recordHandler{order: &order}
	e.ScheduleMonotoneTyped(50, rec, 1)
	e.ScheduleMonotoneTyped(20, rec, 0) // violates lane order → queue
	e.ScheduleMonotoneTyped(60, rec, 2)
	e.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("fallback events fired out of order: %v", order)
		}
	}
}

// TestMonotoneCancelWrappedRing cancels from the middle of a lane ring that
// has grown to 32 records and wrapped, so the shift that closes the gap crosses
// the end of the array; the rest must fire in order.
func TestMonotoneCancelWrappedRing(t *testing.T) {
	e := NewEngine()
	var order []int
	rec := recordHandler{order: &order}
	var ids [41]EventID
	for at := 1; at <= 20; at++ {
		ids[at] = e.ScheduleMonotoneTyped(Time(at), rec, uint64(at))
	}
	for i := 0; i < 12; i++ {
		e.Step()
	}
	for at := 21; at <= 40; at++ {
		ids[at] = e.ScheduleMonotoneTyped(Time(at), rec, uint64(at))
	}
	if len(e.lane) != 32 || e.laneHead+e.laneLen <= len(e.lane) || len(e.queue) != 0 {
		t.Fatalf("lane ring %d long, head %d, %d queued, %d in queue; want a wrapped 32-ring and an empty queue",
			len(e.lane), e.laneHead, e.laneLen, len(e.queue))
	}
	if !e.CancelID(ids[30]) || !e.CancelID(ids[40]) {
		t.Fatal("CancelID on a live lane event reported false")
	}
	if e.CancelID(ids[30]) || e.CancelID(ids[5]) {
		t.Fatal("CancelID of a cancelled or fired lane event reported true")
	}
	if e.Pending() != 26 {
		t.Fatalf("Pending() = %d after two cancels, want 26", e.Pending())
	}
	e.Run(Forever)
	var want []int
	for at := 1; at < 40; at++ {
		if at != 30 {
			want = append(want, at)
		}
	}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", e.Pending())
	}
}

func TestMonotoneCancel(t *testing.T) {
	e := NewEngine()
	var order []int
	rec := recordHandler{order: &order}
	id := e.ScheduleMonotoneTyped(10, rec, 99)
	e.ScheduleMonotoneTyped(20, rec, 0)
	if !e.CancelID(id) {
		t.Fatal("CancelID on a live lane event reported false")
	}
	e.Run(Forever)
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("got %v, want [0]", order)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

// TestTypedSteadyStateAllocFree pins the invariant that once the queue is
// warm, the typed schedule→fire→reschedule cycle performs zero heap
// allocations.
func TestTypedSteadyStateAllocFree(t *testing.T) {
	e := NewEngine()
	h := &countingHandler{e: e, limit: 1 << 62}
	// Warm up the queue backing array.
	for i := 0; i < 64; i++ {
		e.ScheduleTyped(e.Now()+1, nopHandler{}, 0)
	}
	e.ScheduleTyped(e.Now()+1, h, 0)
	e.Run(e.Now() + 1000)

	avg := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + 1000)
	})
	if avg != 0 {
		t.Fatalf("typed event steady state allocates %v allocs/op, want 0", avg)
	}
}

// TestTickerAllocFree verifies a running ticker's re-arm path allocates
// nothing after setup.
func TestTickerAllocFree(t *testing.T) {
	e := NewEngine()
	ticks := 0
	var tk Ticker
	tk.Start(e, 5, func(Time) { ticks++ })
	defer tk.Stop()
	e.Run(100)
	avg := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + 100)
	})
	if avg != 0 {
		t.Fatalf("ticker steady state allocates %v allocs/op, want 0", avg)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}

// BenchmarkScheduleFireTyped measures the steady-state typed event cycle —
// the per-request cost floor of every simulation in the repo.
func BenchmarkScheduleFireTyped(b *testing.B) {
	e := NewEngine()
	h := &countingHandler{e: e, limit: 1 << 62}
	e.ScheduleTyped(1, h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkScheduleFireClosure is the closure path, which rides the typed
// path through the funcEvent adapter, for comparison.
func BenchmarkScheduleFireClosure(b *testing.B) {
	e := NewEngine()
	var next func()
	next = func() { e.After(3, next) }
	e.Schedule(1, next)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkRequestShape runs the pending set an episode holds: one monotone
// arrival source on the lane, each arrival scheduling its completion on the
// queue, with no cancels. Arrival gaps of 1-20 ns and service times of
// 1-200 ns keep about 10 completions pending (Little's law), inside the
// 8 to 15 entries measured on the benchmark's workloads; the mean pending
// count is reported as pending/op.
func BenchmarkRequestShape(b *testing.B) {
	e := NewEngine()
	src := &requestSource{e: e, x: 88172645463325252}
	e.ScheduleMonotoneTyped(1, src, 0)
	const warm = 1 << 16
	pending := 0
	for i := 0; i < warm; i++ {
		e.Step()
		pending += len(e.queue)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(pending)/warm, "pending/op")
}

// requestSource is BenchmarkRequestShape's open-loop client and server: an
// event with arg 0 is an arrival, which schedules its completion (arg 1)
// and the next arrival.
type requestSource struct {
	e *Engine
	x uint64 // xorshift state
}

func (s *requestSource) OnEvent(_ Time, arg uint64) {
	if arg != 0 {
		return
	}
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	s.e.AfterTyped(Duration(1+s.x%200), s, 1)
	s.e.AfterMonotoneTyped(Duration(1+(s.x>>32)%20), s, 0)
}

// BenchmarkHeapChurn states the sorted queue's cost on a pending set far
// deeper than an episode's: 1,024 events resident, each firing schedules a
// successor at a pseudo-random offset, so an insert moves hundreds of
// entries.
func BenchmarkHeapChurn(b *testing.B) {
	const depth = 1024
	e := NewEngine()
	h := &countingHandler{e: e, limit: 1 << 62}
	for i := 0; i < depth; i++ {
		e.ScheduleTyped(Time(i), h, uint64(i*2654435761))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkCancel schedules one event and cancels it out of a pending set
// shaped like an episode's: ten events on the queue and one arrival on the
// lane. The cancelled event lands at a pseudo-random place among them, so
// each iteration pays an insert, the CancelID scan and the copy that closes
// the gap.
func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	for i := 1; i <= 10; i++ {
		e.ScheduleTyped(Time(i*100), nopHandler{}, 0)
	}
	e.ScheduleMonotoneTyped(500, nopHandler{}, 0)
	x := uint64(88172645463325252)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if !e.CancelID(e.ScheduleTyped(Time(1+x%1100), nopHandler{}, 0)) {
			b.Fatal("CancelID of a pending event reported no cancel")
		}
	}
	b.ReportMetric(float64(e.Pending()), "pending/op")
}
