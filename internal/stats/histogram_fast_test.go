package stats

import (
	"math"
	"math/rand"
	"testing"
)

// legacyBucketIndex is the pre-PR2 Log2-based formula, kept here as the
// reference the bits-based fast path must match exactly.
func legacyBucketIndex(h *Histogram, v float64) int {
	if v < h.min {
		return 0
	}
	idx := int(math.Log2(v/h.min) * float64(h.bucketsPerOctave))
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

func TestBucketIndexMatchesLegacyFormula(t *testing.T) {
	for _, cfg := range []struct {
		min, max float64
		bpo      int
	}{
		{100, 1e12, 32}, // NewLatencyHistogram
		{1, 1e6, 8},
		{0.125, 17.3, 5},
		{3.7, 9_000, 64},
	} {
		h := NewHistogram(cfg.min, cfg.max, cfg.bpo)
		rng := rand.New(rand.NewSource(1))
		logSpan := math.Log(cfg.max*4) - math.Log(cfg.min/4)
		for i := 0; i < 200_000; i++ {
			v := math.Exp(math.Log(cfg.min/4) + rng.Float64()*logSpan)
			if got, want := h.bucketIndex(v), legacyBucketIndex(h, v); got != want {
				t.Fatalf("cfg %+v: bucketIndex(%v) = %d, legacy %d", cfg, v, got, want)
			}
		}
		// Boundary-adjacent values are where truncation differences would
		// hide: probe every threshold and its neighboring floats.
		for _, th := range h.table.thresholds {
			for _, v := range []float64{
				math.Nextafter(th, 0), th, math.Nextafter(th, math.Inf(1)),
			} {
				if got, want := h.bucketIndex(v), legacyBucketIndex(h, v); got != want {
					t.Fatalf("cfg %+v: boundary bucketIndex(%v) = %d, legacy %d", cfg, v, got, want)
				}
			}
		}
		// Exact powers-of-two multiples of min and the range extremes.
		for _, v := range []float64{cfg.min, cfg.min * 2, cfg.min * 4, cfg.max, cfg.max * 2} {
			if got, want := h.bucketIndex(v), legacyBucketIndex(h, v); got != want {
				t.Fatalf("cfg %+v: bucketIndex(%v) = %d, legacy %d", cfg, v, got, want)
			}
		}
	}
}

// FuzzBucketIndex checks the bits-based bucket lookup against the legacy
// Log2 formula over fuzzed configurations and values. Configurations
// NewHistogram rejects are skipped, as are ones over 1<<14 buckets (their
// tables cost more to build than one fuzz iteration should) and values the
// legacy formula cannot place: NaN, which Record ignores, and values whose
// ratio to min overflows. The shared table cache would keep every fuzzed
// configuration, so tables first built here are evicted again.
func FuzzBucketIndex(f *testing.F) {
	f.Add(100.0, 1e12, 32, 123456.7) // NewLatencyHistogram
	f.Add(1.0, 1e6, 8, 2.0)
	f.Add(0.125, 17.3, 5, 17.3)
	f.Add(3.7, 9_000.0, 64, 3.6)
	f.Add(1e308, 1.7e308, 1, 1.5e308) // top boundary overflows: rejected
	f.Fuzz(func(t *testing.T, min, max float64, bpo int, v float64) {
		if n := math.Log2(max/min) * float64(bpo); !(n <= 1<<14) {
			return
		}
		if math.IsNaN(v) || math.IsInf(v/min, 0) {
			return
		}
		key := tableKey{min: min, max: max, bpo: bpo}
		if _, cached := tableCache.Load(key); !cached {
			defer tableCache.Delete(key)
		}
		h := newHistogramOrNil(min, max, bpo)
		if h == nil {
			return
		}
		if got, want := h.bucketIndex(v), legacyBucketIndex(h, v); got != want {
			t.Fatalf("NewHistogram(%v, %v, %d): bucketIndex(%v) = %d, legacy %d", min, max, bpo, v, got, want)
		}
	})
}

// newHistogramOrNil is NewHistogram with its rejection panic turned into nil.
func newHistogramOrNil(min, max float64, bpo int) (h *Histogram) {
	defer func() {
		if recover() != nil {
			h = nil
		}
	}()
	return NewHistogram(min, max, bpo)
}

func TestBucketValueMatchesLegacyFormula(t *testing.T) {
	h := NewLatencyHistogram()
	for i := range h.counts {
		lo := h.min * math.Pow(2, float64(i)/float64(h.bucketsPerOctave))
		hi := h.min * math.Pow(2, float64(i+1)/float64(h.bucketsPerOctave))
		want := math.Sqrt(lo * hi)
		if got := h.bucketValue(i); got != want {
			t.Fatalf("bucketValue(%d) = %v, legacy %v", i, got, want)
		}
	}
}

func TestTableSharedAcrossHistograms(t *testing.T) {
	a := NewLatencyHistogram()
	b := NewLatencyHistogram()
	if a.table != b.table {
		t.Fatal("same-config histograms do not share a bucket table")
	}
}

// TestRecordAllocFree pins Record at zero allocations over a batch of
// calls, so amortized growth fails it as well as a per-call allocation.
// Each batch starts from a reset histogram and reaches every branch: ignored
// NaN and non-positive values, underflow below min, in-range values, values
// past max, and new extremes on both sides.
func TestRecordAllocFree(t *testing.T) {
	h := NewLatencyHistogram()
	edge := []float64{math.NaN(), -1, 0, 50, 1e15, math.MaxFloat64}
	const n = 1000
	allocs := testing.AllocsPerRun(1, func() {
		h.Reset()
		v := 123456.7
		for i := 0; i < n; i++ {
			h.Record(v)
			v = v*1.37 + 101
			if v > 1e12 {
				v = 150
			}
		}
		for _, v := range edge {
			h.Record(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d Record calls allocate %v times in total, want 0", n+len(edge), allocs)
	}
	if h.underflow != 1 || h.Max() != math.MaxFloat64 {
		t.Fatalf("underflow %d, max %v: the edge values did not land", h.underflow, h.Max())
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Exp(math.Log(100) + rng.Float64()*(math.Log(1e12)-math.Log(100)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&4095])
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100_000; i++ {
		h.Record(math.Exp(math.Log(1e5) + rng.NormFloat64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.P99()
	}
}
