package workload

import (
	"fmt"
	"math"
	"sort"

	"github.com/approx-sched/pliant/internal/sim"
)

// TraceStream replays recorded arrival instants as an arrival process: each
// call emits the gap to the next unconsumed instant, so consumers see the
// trace's bursts, lulls, and duplicate instants exactly as recorded — the
// arrival-side counterpart of the Replay load shape. It is stateful (a
// cursor over the instants); build a fresh stream per run.
type TraceStream struct {
	timesSec []float64
	// CycleSec, when positive, wraps the stream after that span: instant t
	// replays again at t+CycleSec, t+2·CycleSec, … for open-ended runs. Zero
	// (the default) ends the stream after the last instant — subsequent gaps
	// land past any reachable horizon.
	CycleSec float64

	idx int
	lap float64 // accumulated cycle offset
}

// NewTraceStream validates the instants (non-empty, finite, non-decreasing —
// duplicates are legal and mean simultaneous arrivals) and returns a stream
// positioned before the first.
func NewTraceStream(timesSec []float64) (*TraceStream, error) {
	if len(timesSec) == 0 {
		return nil, fmt.Errorf("workload: trace stream needs at least one arrival instant")
	}
	for _, t := range timesSec {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("workload: trace stream instant %v not finite", t)
		}
	}
	if !sort.Float64sAreSorted(timesSec) {
		return nil, fmt.Errorf("workload: trace stream instants must not decrease")
	}
	return &TraceStream{timesSec: append([]float64(nil), timesSec...)}, nil
}

// Next returns the gap from now to the next recorded instant. Instants at
// or before now (duplicates, or a consumer that overshot) collapse to the
// minimum positive gap, so simultaneous trace arrivals surface as
// back-to-back events rather than being dropped.
func (s *TraceStream) Next(_ *sim.RNG, now sim.Time) sim.Duration {
	for {
		if s.idx >= len(s.timesSec) {
			if s.CycleSec <= 0 {
				// Exhausted: the next "arrival" is unreachably far out, but
				// finite so the event heap stays well-formed.
				return sim.DurationOf(maxGapSec)
			}
			// A period shorter than the recorded span would drop every
			// wrapped arrival into the past — a 1ns arrival storm, the
			// failure mode the shaped-Poisson rate cap exists to prevent.
			// Clamp the lap advance to the last instant so a misconfigured
			// cycle degrades to back-to-back replay instead.
			period := s.CycleSec
			if last := s.timesSec[len(s.timesSec)-1]; period < last {
				period = last
			}
			s.lap += period
			s.idx = 0
			continue
		}
		t := s.timesSec[s.idx] + s.lap
		s.idx++
		return gapOf(t - now.Seconds())
	}
}

// Rate returns the mean arrival rate over the recorded span.
func (s *TraceStream) Rate() float64 {
	span := s.timesSec[len(s.timesSec)-1] - s.timesSec[0]
	if span <= 0 {
		return float64(len(s.timesSec))
	}
	return float64(len(s.timesSec)) / span
}
