// Package sim provides the deterministic discrete-event simulation kernel
// that all Pliant substrates run on. It models virtual time as integer
// nanoseconds, schedules events on a sorted pending array, and supplies
// seeded, splittable pseudo-random number generators so every experiment is
// reproducible bit-for-bit.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. Using an integer representation keeps event ordering exact and
// comparisons cheap.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately a
// distinct type from Time so that the compiler rejects accidental mixing of
// instants and spans.
type Duration int64

// Common durations, mirroring the time package.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Forever is a Time later than any time reachable in practice; Run(Forever)
// drains the event queue.
const Forever Time = 1<<63 - 1

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between t and earlier instant u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("t=%.3fs", t.Seconds()) }

// Seconds reports the span as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros reports the span as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Millis reports the span as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Std converts the span to a time.Duration for interoperability with code
// that formats or compares against wall-clock durations.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String formats the span using time.Duration notation (1.5ms, 200µs, ...).
func (d Duration) String() string { return time.Duration(d).String() }

// DurationOf converts floating-point seconds to a Duration, rounding to the
// nearest nanosecond. It is the inverse of Duration.Seconds.
func DurationOf(seconds float64) Duration {
	return Duration(seconds*float64(Second) + 0.5)
}

// Scale multiplies the span by factor, saturating on overflow. Factors are
// clamped at zero: a negative scale would move events into the past.
func (d Duration) Scale(factor float64) Duration {
	if factor < 0 {
		factor = 0
	}
	scaled := float64(d) * factor
	if scaled >= float64(Forever) {
		return Duration(Forever)
	}
	return Duration(scaled + 0.5)
}
