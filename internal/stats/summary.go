package stats

import (
	"math"
	"sort"
)

// Running accumulates streaming mean/variance/extrema (Welford's algorithm).
// It is the light-weight counterpart of Histogram for metrics where only
// moments are needed (execution times, inaccuracy percentages).
type Running struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (r *Running) Add(v float64) {
	if r.n == 0 {
		r.min, r.max = v, v
	} else {
		if v < r.min {
			r.min = v
		}
		if v > r.max {
			r.max = v
		}
	}
	r.n++
	delta := v - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (v - r.mean)
}

// N returns the number of observations.
func (r *Running) N() uint64 { return r.n }

// Mean returns the running mean, or 0 if empty.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the sample variance, or 0 with fewer than two observations.
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Stddev returns the sample standard deviation.
func (r *Running) Stddev() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation, or 0 if empty.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest observation, or 0 if empty.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Violin is the summary behind one violin glyph in the paper's Fig. 7:
// extrema, quartiles, mean, and a fixed-bin density estimate of the sample.
type Violin struct {
	N       int
	Min     float64
	Q1      float64
	Median  float64
	Q3      float64
	Max     float64
	Mean    float64
	Density []float64 // normalized histogram over [Min, Max], sums to 1
}

// NewViolin summarizes samples with the given number of density bins.
func NewViolin(samples []float64, bins int) Violin {
	v := Violin{N: len(samples)}
	if len(samples) == 0 {
		return v
	}
	if bins <= 0 {
		bins = 16
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	v.Min = sorted[0]
	v.Max = sorted[len(sorted)-1]
	v.Q1 = QuantileSorted(sorted, 0.25)
	v.Median = QuantileSorted(sorted, 0.50)
	v.Q3 = QuantileSorted(sorted, 0.75)
	sum := 0.0
	for _, s := range sorted {
		sum += s
	}
	v.Mean = sum / float64(len(sorted))

	v.Density = make([]float64, bins)
	span := v.Max - v.Min
	if span == 0 {
		v.Density[0] = 1
		return v
	}
	for _, s := range sorted {
		i := int((s - v.Min) / span * float64(bins))
		if i >= bins {
			i = bins - 1
		}
		v.Density[i]++
	}
	for i := range v.Density {
		v.Density[i] /= float64(len(sorted))
	}
	return v
}

// IQR returns the interquartile range.
func (v Violin) IQR() float64 { return v.Q3 - v.Q1 }

// Spread reports max-min; the paper reads violin "centralization" (Fig. 7
// discussion) as the spread of inaccuracy tightening with more colocated
// apps.
func (v Violin) Spread() float64 { return v.Max - v.Min }

// Mean computes the arithmetic mean of samples, or 0 for an empty slice.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	return sum / float64(len(samples))
}

// MaxOf returns the largest sample, or 0 for an empty slice.
func MaxOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, s := range samples[1:] {
		if s > m {
			m = s
		}
	}
	return m
}

// MinOf returns the smallest sample, or 0 for an empty slice.
func MinOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := samples[0]
	for _, s := range samples[1:] {
		if s < m {
			m = s
		}
	}
	return m
}
