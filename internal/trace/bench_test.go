package trace

import (
	"bytes"
	"testing"
)

// benchJobs is the size of the benchmark traces, the storm workload's.
const benchJobs = 100000

var benchTrace *Trace

func benchmarkParse(b *testing.B, f Format) {
	raw := Synthesize(SynthConfig{Format: f, Jobs: benchJobs, Seed: 42})
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := Parse(bytes.NewReader(raw), f)
		if err != nil {
			b.Fatal(err)
		}
		benchTrace = tr
	}
}

func BenchmarkParseGoogle(b *testing.B) { benchmarkParse(b, Google) }

func BenchmarkParseAzure(b *testing.B) { benchmarkParse(b, Azure) }

// TestParseGoogleAllocsPerJob pins the row reader's allocation budget: a
// quote-free Google parse allocates each task's ID string once, and beyond
// that only a constant plus the logarithmic growth of the job list, SUBMIT
// order and open-task map.
func TestParseGoogleAllocsPerJob(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		raw := Synthesize(SynthConfig{Format: Google, Jobs: n, Seed: 42})
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ParseGoogle(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
		})
		if budget := float64(n + 256); allocs > budget {
			t.Errorf("%d-job parse: %.0f allocations, budget %.0f", n, allocs, budget)
		}
	}
}
