package stats

// Point is one (time, value) observation in a Series.
type Point struct {
	T float64 // seconds since scenario start
	V float64
}

// Series records a named metric over time — one line in the paper's dynamic
// behavior figures (tail latency, reclaimed cores, active variant index).
type Series struct {
	Name   string
	Points []Point
}

// Append records value v at time t (seconds).
func (s *Series) Append(t, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of recorded points.
func (s *Series) Len() int { return len(s.Points) }

// Last returns the most recent point, or a zero Point if empty.
func (s *Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// At returns the value in effect at time t: the value of the latest point
// with T <= t, or 0 before the first point. Series values are treated as
// step functions, matching how controller decisions hold between intervals.
func (s *Series) At(t float64) float64 {
	v := 0.0
	for _, p := range s.Points {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// Values returns just the values, in time order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// MaxV returns the maximum value in the series, or 0 if empty.
func (s *Series) MaxV() float64 { return MaxOf(s.Values()) }

// MeanV returns the mean value in the series, or 0 if empty.
func (s *Series) MeanV() float64 { return Mean(s.Values()) }

// FractionAbove reports the fraction of points whose value exceeds the
// threshold — used for "fraction of intervals in QoS violation" summaries.
func (s *Series) FractionAbove(threshold float64) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	n := 0
	for _, p := range s.Points {
		if p.V > threshold {
			n++
		}
	}
	return float64(n) / float64(len(s.Points))
}

// Trace is a bundle of named series recorded during one scenario run.
type Trace struct {
	series map[string]*Series
	order  []string

	// spare holds series emptied by Reset, by name, so a reused trace
	// recreates them on their existing point buffers.
	spare map[string]*Series
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{series: make(map[string]*Series)}
}

// Reset empties the trace — no series, Names() empty — but keeps each
// series' point buffer: a series recreated under the same name reuses it, so
// a trace reset between runs of one shape records without allocating.
// Series handed out before the Reset are recycled; callers must be done
// with them.
func (tr *Trace) Reset() {
	if tr.spare == nil {
		tr.spare = make(map[string]*Series, len(tr.order))
	}
	for _, name := range tr.order {
		s := tr.series[name]
		s.Points = s.Points[:0]
		tr.spare[name] = s
	}
	clear(tr.series)
	tr.order = tr.order[:0]
}

// Series returns the series with the given name, creating it on first use.
func (tr *Trace) Series(name string) *Series {
	s, ok := tr.series[name]
	if !ok {
		if s, ok = tr.spare[name]; !ok {
			s = &Series{Name: name}
		}
		tr.series[name] = s
		tr.order = append(tr.order, name)
	}
	return s
}

// Names returns series names in creation order.
func (tr *Trace) Names() []string {
	return append([]string(nil), tr.order...)
}

// Has reports whether a series with the given name exists.
func (tr *Trace) Has(name string) bool {
	_, ok := tr.series[name]
	return ok
}
