package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run(Forever)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %v after drain, want 30", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run(Forever)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.Run(Forever)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestScheduleNilFnPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling nil fn did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestHorizonStopsClock(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(1000, func() { fired = true })
	e.Run(500)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Now() != 500 {
		t.Fatalf("Now() = %v, want horizon 500", e.Now())
	}
	e.Run(2000)
	if !fired {
		t.Fatal("event within extended horizon did not fire")
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run(Forever)
	if at != 150 {
		t.Fatalf("After(50) fired at %v, want 150", at)
	}
}

func TestAfterNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(10, func() {
		e.After(-5, func() { fired = true })
	})
	e.Run(Forever)
	if !fired {
		t.Fatal("After with negative delay never fired")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(10, func() { fired = true })
	if !e.CancelID(id) {
		t.Fatal("CancelID of a pending closure event reported no cancel")
	}
	e.Run(Forever)
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Cancelling again, or cancelling the zero ID, is a no-op.
	if e.CancelID(id) || e.CancelID(EventID{}) {
		t.Fatal("repeat or zero CancelID reported a cancel")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var got []int
	events := make([]EventID, 5)
	for i := 0; i < 5; i++ {
		i := i
		events[i] = e.Schedule(Time(i*10), func() { got = append(got, i) })
	}
	e.CancelID(events[2])
	e.Run(Forever)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(Forever)
	if count != 3 {
		t.Fatalf("Stop did not halt run: %d events fired", count)
	}
	// Run resumes after Stop.
	e.Run(Forever)
	if count != 10 {
		t.Fatalf("resumed run fired %d total, want 10", count)
	}
}

func TestStep(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(5, func() { count++ })
	e.Schedule(7, func() { count++ })
	if !e.Step() || count != 1 || e.Now() != 5 {
		t.Fatalf("first Step: count=%d now=%v", count, e.Now())
	}
	if !e.Step() || count != 2 || e.Now() != 7 {
		t.Fatalf("second Step: count=%d now=%v", count, e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	stop := e.Ticker(100, func(now Time) { ticks = append(ticks, now) })
	e.Schedule(350, func() { stop() })
	e.Run(Forever)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks %v, want 3", len(ticks), ticks)
	}
	for i, at := range ticks {
		if at != Time((i+1)*100) {
			t.Fatalf("tick %d at %v, want %v", i, at, (i+1)*100)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var stop func()
	stop = e.Ticker(10, func(Time) {
		count++
		if count == 2 {
			stop()
		}
	})
	e.Run(Forever)
	if count != 2 {
		t.Fatalf("ticker fired %d times after in-callback stop, want 2", count)
	}
}

// TestTickerRestartReplacesPendingTick restarts an armed ticker, from outside
// and from inside its own callback: either way one tick stream must remain,
// following the latest Start.
func TestTickerRestartReplacesPendingTick(t *testing.T) {
	e := NewEngine()
	var tk Ticker
	var ticks []Time
	record := func(now Time) { ticks = append(ticks, now) }
	tk.Start(e, 100, record)
	tk.Start(e, 100, record)
	e.Run(300)
	if len(ticks) != 3 || e.Pending() != 1 {
		t.Fatalf("after two Starts: ticks %v, %d pending; want 3 ticks, 1 pending", ticks, e.Pending())
	}

	e = NewEngine()
	ticks = ticks[:0]
	var restart func(Time)
	restart = func(now Time) {
		ticks = append(ticks, now)
		if len(ticks) == 1 {
			tk.Start(e, 50, restart)
		}
	}
	tk.Start(e, 100, restart)
	e.Run(250)
	want := []Time{100, 150, 200, 250}
	if len(ticks) != len(want) || e.Pending() != 1 {
		t.Fatalf("after an in-callback Start: ticks %v, %d pending; want %v, 1 pending", ticks, e.Pending(), want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("after an in-callback Start: ticks %v, want %v", ticks, want)
		}
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-period ticker did not panic")
		}
	}()
	e.Ticker(0, func(Time) {})
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run(Forever)
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// Property: for any set of timestamps, events fire in nondecreasing time order
// and the engine clock never runs backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine()
		var fireTimes []Time
		for _, s := range stamps {
			at := Time(s)
			e.Schedule(at, func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run(Forever)
		if len(fireTimes) != len(stamps) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(2 * Second)
	if got := tm.Add(500 * Millisecond); got != Time(2500*Millisecond) {
		t.Fatalf("Add: got %v", got)
	}
	if got := tm.Sub(Time(Second)); got != Second {
		t.Fatalf("Sub: got %v", got)
	}
	if got := tm.Seconds(); got != 2.0 {
		t.Fatalf("Seconds: got %v", got)
	}
	if DurationOf(1.5) != 1500*Millisecond {
		t.Fatalf("DurationOf(1.5) = %v", DurationOf(1.5))
	}
}

func TestDurationScale(t *testing.T) {
	d := Second
	if got := d.Scale(2.5); got != 2500*Millisecond {
		t.Fatalf("Scale(2.5) = %v", got)
	}
	if got := d.Scale(-1); got != 0 {
		t.Fatalf("Scale(-1) = %v, want 0", got)
	}
	if got := Duration(math.MaxInt64 / 2).Scale(4); got != Duration(Forever) {
		t.Fatalf("overflow Scale = %v, want saturation", got)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Micros() != 1500 {
		t.Fatalf("Micros = %v", d.Micros())
	}
	if d.Millis() != 1.5 {
		t.Fatalf("Millis = %v", d.Millis())
	}
	if d.Seconds() != 0.0015 {
		t.Fatalf("Seconds = %v", d.Seconds())
	}
	if d.Std().Microseconds() != 1500 {
		t.Fatalf("Std = %v", d.Std())
	}
}
