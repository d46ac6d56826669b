package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Label is one fixed key/value pair on an instrument. Label sets are bound
// at registration, never at observation, so the record path touches no maps
// and no strings.
type Label struct {
	Key, Value string
}

// instrument is the registry's shared bookkeeping for one metric.
type instrument struct {
	name   string
	help   string
	labels []Label
}

// base returns the shared bookkeeping of the *Counter, *Gauge or
// *Histogram that embeds m.
func (m *instrument) base() *instrument { return m }

// metric is a registered *Counter, *Gauge or *Histogram.
type metric interface{ base() *instrument }

// id renders the Prometheus-style identity "name{k="v",...}" used for
// de-duplication, CSV headers, and the text exposition.
func (m *instrument) id() string {
	if len(m.labels) == 0 {
		return m.name
	}
	var sb strings.Builder
	sb.WriteString(m.name)
	sb.WriteByte('{')
	for i, l := range m.labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Counter is a monotonically increasing value.
type Counter struct {
	instrument
	v float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds d (must be non-negative to keep Prometheus semantics).
func (c *Counter) Add(d float64) { c.v += d }

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v }

// Gauge is a value that goes up and down.
type Gauge struct {
	instrument
	v float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram is a fixed-bound cumulative histogram. Bounds are set at
// registration; Observe is a branch-free-allocation bucket walk (bounds are
// few on the instruments the scheduler registers).
type Histogram struct {
	instrument
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1, last = overflow
	sum    float64
	n      uint64
}

// Observe records one value. Alloc-free.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Registry holds a run's instruments in registration order — the order every
// writer emits, so output bytes are deterministic — plus the window-boundary
// snapshots the CSV export renders.
type Registry struct {
	order []metric
	byID  map[string]metric

	// Window-boundary snapshots: snapTimes[i] is the boundary instant in
	// seconds; snapRows[i] holds one value per scalar column (counters and
	// gauges in order, then each histogram's count and sum).
	snapTimes []float64
	snapRows  [][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]metric)}
}

// Counter registers (or returns the existing) counter with the given
// identity.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{instrument: instrument{name: name, help: help, labels: labels}}
	if got, ok := r.byID[c.id()]; ok {
		return got.(*Counter)
	}
	r.add(c)
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{instrument: instrument{name: name, help: help, labels: labels}}
	if got, ok := r.byID[g.id()]; ok {
		return got.(*Gauge)
	}
	r.add(g)
	return g
}

// Histogram registers (or returns the existing) histogram with the given
// ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := &Histogram{
		instrument: instrument{name: name, help: help, labels: labels},
		bounds:     append([]float64(nil), bounds...),
	}
	if got, ok := r.byID[h.id()]; ok {
		return got.(*Histogram)
	}
	sort.Float64s(h.bounds)
	h.counts = make([]uint64, len(h.bounds)+1)
	r.add(h)
	return h
}

// add registers a new instrument at the end of the registration order.
func (r *Registry) add(m metric) {
	r.byID[m.base().id()] = m
	r.order = append(r.order, m)
}

// Snapshot records the current value of every instrument at boundary instant
// tSec — one row of the CSV export. Not a hot path (once per scheduling
// window); it allocates the row.
func (r *Registry) Snapshot(tSec float64) {
	row := make([]float64, 0, r.columns())
	for _, m := range r.order {
		switch m := m.(type) {
		case *Counter:
			row = append(row, m.v)
		case *Gauge:
			row = append(row, m.v)
		case *Histogram:
			row = append(row, float64(m.n), m.sum)
		}
	}
	r.snapTimes = append(r.snapTimes, tSec)
	r.snapRows = append(r.snapRows, row)
}

// Snapshots returns how many boundary snapshots were taken.
func (r *Registry) Snapshots() int { return len(r.snapTimes) }

// columns counts the scalar columns a snapshot row carries.
func (r *Registry) columns() int {
	n := 0
	for _, m := range r.order {
		if _, ok := m.(*Histogram); ok {
			n += 2
		} else {
			n++
		}
	}
	return n
}
