package workload

import (
	"math"
	"testing"

	"github.com/approx-sched/pliant/internal/sim"
)

func TestTraceStreamReplaysInstants(t *testing.T) {
	s, err := NewTraceStream([]float64{0, 1, 1, 2.5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Rate(); got != 0.5 {
		t.Errorf("rate %v, want 5 arrivals / 10s", got)
	}
	// Drive it the way the scheduler does: advance now by each gap.
	now := sim.Time(0)
	var arrivals []float64
	for i := 0; i < 5; i++ {
		gap := s.Next(nil, now)
		if gap <= 0 {
			t.Fatalf("arrival %d: non-positive gap %v", i, gap)
		}
		now = now.Add(gap)
		arrivals = append(arrivals, now.Seconds())
	}
	// The first instant is at 0, which collapses to the 1ns minimum; the
	// duplicate at t=1 lands 1ns after its twin. Everything else is exact.
	want := []float64{0, 1, 1, 2.5, 10}
	for i, a := range arrivals {
		if math.Abs(a-want[i]) > 1e-6 {
			t.Errorf("arrival %d at %vs, want %vs", i, a, want[i])
		}
	}
	// Exhausted without a cycle: the next gap is finite but unreachably far.
	gap := s.Next(nil, now)
	if gap <= 0 || gap.Seconds() < 1e8 {
		t.Errorf("exhausted gap %v, want far-future finite", gap)
	}
}

func TestTraceStreamCycles(t *testing.T) {
	s, err := NewTraceStream([]float64{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	s.CycleSec = 10
	now := sim.Time(0)
	var arrivals []float64
	for i := 0; i < 6; i++ {
		now = now.Add(s.Next(nil, now))
		arrivals = append(arrivals, now.Seconds())
	}
	want := []float64{0, 4, 10, 14, 20, 24}
	for i, a := range arrivals {
		if math.Abs(a-want[i]) > 1e-6 {
			t.Errorf("cycled arrival %d at %vs, want %vs", i, a, want[i])
		}
	}
}

// TestTraceStreamShortCycleClamped: a cycle period shorter than the recorded
// span must degrade to back-to-back replay, not drop every wrapped arrival
// into the past and emit a 1ns arrival storm.
func TestTraceStreamShortCycleClamped(t *testing.T) {
	s, err := NewTraceStream([]float64{0, 50, 100})
	if err != nil {
		t.Fatal(err)
	}
	s.CycleSec = 10 // shorter than the 100s span: clamped to the last instant
	now := sim.Time(0)
	prev := -1.0
	for i := 0; i < 12; i++ {
		gap := s.Next(nil, now)
		if gap <= 0 {
			t.Fatalf("arrival %d: non-positive gap", i)
		}
		now = now.Add(gap)
		cur := now.Seconds()
		if cur < prev {
			t.Fatalf("arrival %d at %vs went backwards from %vs", i, cur, prev)
		}
		prev = cur
	}
	// Four laps of three arrivals: the clock must have advanced about four
	// clamped periods (100s each), not stalled at 1ns steps.
	if prev < 300 {
		t.Errorf("after 12 cycled arrivals the clock reached only %vs — arrival storm", prev)
	}
}

// TestTraceStreamGapsBetweenInstants checks the gaps themselves: a consumer
// that advances now by every gap sees the spacing of consecutive instants.
func TestTraceStreamGapsBetweenInstants(t *testing.T) {
	s, _ := NewTraceStream([]float64{1, 3, 6})
	now := sim.Time(0)
	var gaps []float64
	for i := 0; i < 3; i++ {
		gap := s.Next(nil, now)
		now = now.Add(gap)
		gaps = append(gaps, gap.Seconds())
	}
	want := []float64{1, 2, 3}
	for i := range gaps {
		if math.Abs(gaps[i]-want[i]) > 1e-6 {
			t.Errorf("gap %d = %vs, want %vs", i, gaps[i], want[i])
		}
	}
}

func TestTraceStreamValidation(t *testing.T) {
	if _, err := NewTraceStream(nil); err == nil {
		t.Error("empty instants accepted")
	}
	if _, err := NewTraceStream([]float64{3, 1}); err == nil {
		t.Error("decreasing instants accepted")
	}
	if _, err := NewTraceStream([]float64{0, math.NaN()}); err == nil {
		t.Error("NaN instant accepted")
	}
	if _, err := NewTraceStream([]float64{0, math.Inf(1)}); err == nil {
		t.Error("Inf instant accepted")
	}
	// The caller's slice is copied, not aliased.
	in := []float64{0, 5}
	s, err := NewTraceStream(in)
	if err != nil {
		t.Fatal(err)
	}
	in[1] = 99
	now := sim.Time(0)
	now = now.Add(s.Next(nil, now))
	now = now.Add(s.Next(nil, now))
	if got := now.Seconds(); math.Abs(got-5) > 1e-6 {
		t.Errorf("mutating the input slice changed the stream: arrival at %v", got)
	}
}
