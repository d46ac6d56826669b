// Package stats provides the measurement toolkit used across the Pliant
// reproduction: log-bucketed latency histograms with accurate high
// percentiles, streaming moment accumulators, five-number/violin summaries
// for the multi-colocation study (paper Fig. 7), and time-series recorders
// for the dynamic-behavior figures (paper Figs. 4 and 6).
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram is a log-bucketed histogram in the spirit of HdrHistogram: values
// are bucketed with bounded relative error, so p99/p999 of heavy-tailed
// latency distributions stay accurate without storing every sample. The zero
// value is not usable; construct with NewHistogram.
type Histogram struct {
	min, max         float64 // representable range
	bucketsPerOctave int
	table            *bucketTable
	counts           []uint64
	total            uint64
	sum              float64
	observedMin      float64
	observedMax      float64
	underflow        uint64 // values below min are clamped into bucket 0 but counted here too
}

// bucketTable holds the precomputed bucket geometry of one histogram
// configuration: exact value-space bucket boundaries, representative values,
// and a per-binade index for bits-based bucket lookup. Tables are immutable
// and shared across all histograms with the same configuration, so the many
// short-lived episode histograms pay construction cost once per process.
//
// Boundaries replicate the truncation of the historical formula
// int(math.Log2(v/min) * bpo) bit for bit — bucket assignment, and therefore
// every exported quantile, is unchanged by the fast path.
type bucketTable struct {
	n int

	// thresholds[k] is the smallest value whose bucket index is k+1; bucket i
	// covers [thresholds[i-1], thresholds[i]).
	thresholds []float64

	// values[i] is bucket i's representative (geometric midpoint) value.
	values []float64

	// lut[j<<8|m] counts thresholds at or below the smallest value whose
	// IEEE-754 biased exponent is expLo+j and whose top 8 mantissa bits are
	// m. A lookup plus at most a step or two of forward scan resolves the
	// bucket (a 1/256-binade slice holds more than one threshold only above
	// 177 buckets/octave).
	lut      []int32
	nBinades int
	expLo    int // biased exponent of min's binade
}

// tableKey identifies a histogram configuration in the table cache.
type tableKey struct {
	min, max float64
	bpo      int
}

var tableCache sync.Map // tableKey -> *bucketTable

// tableFor returns the shared bucket table for a configuration, building it
// on first use.
func tableFor(min, max float64, bpo, n int) *bucketTable {
	key := tableKey{min: min, max: max, bpo: bpo}
	if t, ok := tableCache.Load(key); ok {
		return t.(*bucketTable)
	}
	t := buildTable(min, bpo, n)
	actual, _ := tableCache.LoadOrStore(key, t)
	return actual.(*bucketTable)
}

// legacyIndex is the historical (unclamped) bucket formula the fast path must
// reproduce exactly.
func legacyIndex(v, min float64, bpo int) int {
	return int(math.Log2(v/min) * float64(bpo))
}

// buildTable computes exact bucket boundaries by locating, for each bucket
// transition, the smallest float64 the legacy formula maps past it. The
// analytic boundary min·2^(k/bpo) is correct to within a few ulps, so a short
// bits-space bisection around it pins the exact transition point.
func buildTable(min float64, bpo, n int) *bucketTable {
	t := &bucketTable{
		n:          n,
		thresholds: make([]float64, n-1),
		values:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		lo := min * math.Pow(2, float64(i)/float64(bpo))
		hi := min * math.Pow(2, float64(i+1)/float64(bpo))
		t.values[i] = math.Sqrt(lo * hi)
	}
	for k := 1; k < n; k++ {
		guess := min * math.Pow(2, float64(k)/float64(bpo))
		// Bracket the transition: lo has index < k, hi has index >= k.
		lo, hi := guess, guess
		for legacyIndex(lo, min, bpo) >= k {
			lo = math.Nextafter(lo/(1+1e-12), 0)
		}
		for legacyIndex(hi, min, bpo) < k {
			hi = math.Nextafter(hi*(1+1e-12), math.Inf(1))
		}
		// Bisect on the bit representation: for positive floats, bit order is
		// value order, so this converges to adjacent floats across the
		// transition.
		lb, hb := math.Float64bits(lo), math.Float64bits(hi)
		for lb+1 < hb {
			mb := lb + (hb-lb)/2
			if legacyIndex(math.Float64frombits(mb), min, bpo) < k {
				lb = mb
			} else {
				hb = mb
			}
		}
		t.thresholds[k-1] = math.Float64frombits(hb)
	}

	t.expLo = int(math.Float64bits(min) >> 52)
	expHi := int(math.Float64bits(t.thresholds[n-2]) >> 52)
	t.nBinades = expHi - t.expLo + 1
	t.lut = make([]int32, t.nBinades<<8)
	for j := 0; j < t.nBinades; j++ {
		for m := 0; m < 256; m++ {
			sliceStart := math.Float64frombits(uint64(t.expLo+j)<<52 | uint64(m)<<44)
			c := sort.SearchFloat64s(t.thresholds, sliceStart)
			if c < len(t.thresholds) && t.thresholds[c] == sliceStart {
				c++ // count thresholds <= sliceStart, not just <
			}
			t.lut[j<<8|m] = int32(c)
		}
	}
	return t
}

// index returns the bucket of v, which must satisfy v >= min. It is the
// bits-based equivalent of the legacy Log2 formula: the IEEE-754 exponent
// and top mantissa bits index a precomputed bucket count, and a bounded
// forward scan resolves values past thresholds inside the same slice.
func (t *bucketTable) index(v float64) int {
	bits := math.Float64bits(v)
	j := int(bits>>52) - t.expLo
	if j < 0 {
		return 0
	}
	if j >= t.nBinades {
		return t.n - 1
	}
	c := int(t.lut[j<<8|int(bits>>44&255)])
	for c < len(t.thresholds) && t.thresholds[c] <= v {
		c++
	}
	return c
}

// NewHistogram returns a histogram covering [min, max] with the given number
// of buckets per powers-of-two octave. 32 buckets/octave keeps relative error
// under ~2.2%, plenty for tail-latency ratios.
func NewHistogram(min, max float64, bucketsPerOctave int) *Histogram {
	// The top bucket boundary can reach twice max; past MaxFloat64/4 it
	// would overflow while the table is built.
	if !(min > 0 && max > min && max <= math.MaxFloat64/4) {
		panic("stats: histogram needs 0 < min < max <= MaxFloat64/4")
	}
	if bucketsPerOctave <= 0 {
		panic("stats: histogram needs positive buckets per octave")
	}
	octaves := math.Log2(max / min)
	n := int(math.Ceil(octaves*float64(bucketsPerOctave))) + 1
	return &Histogram{
		min:              min,
		max:              max,
		bucketsPerOctave: bucketsPerOctave,
		table:            tableFor(min, max, bucketsPerOctave, n),
		counts:           make([]uint64, n),
		observedMin:      math.Inf(1),
		observedMax:      math.Inf(-1),
	}
}

// NewLatencyHistogram returns a histogram sized for end-to-end request
// latencies: 100 nanoseconds to 1000 seconds.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(100, 1e12, 32) // values in nanoseconds
}

func (h *Histogram) bucketIndex(v float64) int {
	if v < h.min {
		return 0
	}
	return h.table.index(v)
}

// bucketValue returns the representative (geometric midpoint) value of bucket
// i, precomputed at table construction.
func (h *Histogram) bucketValue(i int) float64 { return h.table.values[i] }

// Record adds one observation. Non-positive and NaN values are ignored:
// latencies and durations are strictly positive in this codebase, so such a
// value indicates a harmless sampling artifact rather than a datum.
func (h *Histogram) Record(v float64) {
	if math.IsNaN(v) || v <= 0 {
		return
	}
	idx := 0
	if v >= h.min {
		idx = h.table.index(v)
	} else {
		h.underflow++
	}
	h.counts[idx]++
	h.total++
	h.sum += v
	if v < h.observedMin {
		h.observedMin = v
	}
	if v > h.observedMax {
		h.observedMax = v
	}
}

// RecordN adds n identical observations.
func (h *Histogram) RecordN(v float64, n uint64) {
	if math.IsNaN(v) || v <= 0 || n == 0 {
		return
	}
	if v < h.min {
		h.underflow += n
	}
	h.counts[h.bucketIndex(v)] += n
	h.total += n
	h.sum += v * float64(n)
	if v < h.observedMin {
		h.observedMin = v
	}
	if v > h.observedMax {
		h.observedMax = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of recorded observations, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the exact observed extrema (not bucket boundaries).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.observedMin
}

// Max returns the exact observed maximum, or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.observedMax
}

// Quantile returns the value at quantile q in [0, 1]. Within a bucket the
// value is the bucket's geometric midpoint; the extreme quantiles return the
// exact observed extrema.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.observedMin
	}
	if q >= 1 {
		return h.observedMax
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > rank {
			v := h.bucketValue(i)
			// Clamp to observed extrema so sparse histograms do not report
			// values outside the data.
			if v < h.observedMin {
				v = h.observedMin
			}
			if v > h.observedMax {
				v = h.observedMax
			}
			return v
		}
	}
	return h.observedMax
}

// P99 returns the 99th-percentile value — the QoS metric used throughout the
// paper.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Reset clears all recorded observations, retaining the configuration.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.underflow = 0
	h.observedMin = math.Inf(1)
	h.observedMax = math.Inf(-1)
}

// Merge adds all observations of other into h. The histograms must share a
// configuration.
func (h *Histogram) Merge(other *Histogram) error {
	if other.min != h.min || other.max != h.max || other.bucketsPerOctave != h.bucketsPerOctave {
		return fmt.Errorf("stats: merging incompatible histograms")
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	h.underflow += other.underflow
	if other.total > 0 {
		if other.observedMin < h.observedMin {
			h.observedMin = other.observedMin
		}
		if other.observedMax > h.observedMax {
			h.observedMax = other.observedMax
		}
	}
	return nil
}

// Snapshot summarizes the histogram for reporting.
type Snapshot struct {
	Count          uint64
	Mean, Min, Max float64
	P50, P95, P99  float64
	P999           float64
}

// Snapshot captures the current distribution summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.P99(),
		P999:  h.Quantile(0.999),
	}
}

// Quantiles computes exact quantiles of a small sample slice (the slice is
// copied, sorted, and interpolated linearly). Used where sample counts are
// modest and exactness matters more than memory.
func Quantiles(samples []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = QuantileSorted(sorted, q)
	}
	return out
}

// QuantileSorted returns the exact q-quantile of already ascending-sorted
// samples, interpolating linearly between ranks as Quantiles does; 0 for no
// samples. It neither copies nor allocates.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
