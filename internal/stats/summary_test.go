package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/approx-sched/pliant/internal/sim"
)

func TestRunningMoments(t *testing.T) {
	var r Running
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, v := range vals {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if r.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", r.Mean())
	}
	// Sample variance of the classic dataset is 32/7.
	if math.Abs(r.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", r.Var(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Fatal("empty Running should report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Var() != 0 {
		t.Fatalf("single-sample Var = %v, want 0", r.Var())
	}
	if r.Min() != 3.5 || r.Max() != 3.5 {
		t.Fatal("single-sample extrema wrong")
	}
}

// Property: Running matches a direct two-pass computation.
func TestRunningMatchesTwoPass(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		rng := sim.NewRNG(seed)
		var r Running
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Norm(50, 20)
			r.Add(vals[i])
		}
		mean := Mean(vals)
		var ss float64
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		wantVar := ss / float64(n-1)
		return math.Abs(r.Mean()-mean) < 1e-9 && math.Abs(r.Var()-wantVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestViolinSummary(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	v := NewViolin(samples, 4)
	if v.N != 12 {
		t.Fatalf("N = %d", v.N)
	}
	if v.Min != 1 || v.Max != 12 {
		t.Fatalf("extrema %v/%v", v.Min, v.Max)
	}
	if v.Median != 6.5 {
		t.Fatalf("median %v, want 6.5", v.Median)
	}
	if v.Q1 >= v.Median || v.Median >= v.Q3 {
		t.Fatalf("quartiles not ordered: %v %v %v", v.Q1, v.Median, v.Q3)
	}
	sum := 0.0
	for _, d := range v.Density {
		if d < 0 {
			t.Fatal("negative density")
		}
		sum += d
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("density sums to %v, want 1", sum)
	}
	if v.Spread() != 11 {
		t.Fatalf("Spread = %v", v.Spread())
	}
	if v.IQR() <= 0 {
		t.Fatalf("IQR = %v", v.IQR())
	}
}

func TestViolinDegenerate(t *testing.T) {
	if v := NewViolin(nil, 8); v.N != 0 {
		t.Fatal("empty violin not empty")
	}
	v := NewViolin([]float64{5, 5, 5}, 8)
	if v.Min != 5 || v.Max != 5 || v.Median != 5 {
		t.Fatal("constant violin summary wrong")
	}
	if v.Density[0] != 1 {
		t.Fatal("constant violin density should concentrate in bin 0")
	}
}

func TestViolinDefaultBins(t *testing.T) {
	v := NewViolin([]float64{1, 2, 3}, 0)
	if len(v.Density) != 16 {
		t.Fatalf("default bins = %d, want 16", len(v.Density))
	}
}

func TestSliceHelpers(t *testing.T) {
	s := []float64{3, 1, 4, 1, 5}
	if Mean(s) != 2.8 {
		t.Fatalf("Mean = %v", Mean(s))
	}
	if MaxOf(s) != 5 || MinOf(s) != 1 {
		t.Fatalf("MaxOf/MinOf = %v/%v", MaxOf(s), MinOf(s))
	}
	if Mean(nil) != 0 || MaxOf(nil) != 0 || MinOf(nil) != 0 {
		t.Fatal("empty-slice helpers should return 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(0, 10)
	s.Append(1, 20)
	s.Append(2, 5)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Last().V != 5 {
		t.Fatalf("Last = %+v", s.Last())
	}
	if s.MaxV() != 20 {
		t.Fatalf("MaxV = %v", s.MaxV())
	}
	if math.Abs(s.MeanV()-35.0/3.0) > 1e-12 {
		t.Fatalf("MeanV = %v", s.MeanV())
	}
	if got := s.FractionAbove(9); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("FractionAbove = %v", got)
	}
	if s.At(0.5) != 10 || s.At(1.5) != 20 || s.At(-1) != 0 {
		t.Fatal("At step-function semantics wrong")
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	tr.Series("lat").Append(0, 1)
	tr.Series("cores").Append(0, 4)
	tr.Series("lat").Append(1, 2)
	names := tr.Names()
	if len(names) != 2 || names[0] != "lat" || names[1] != "cores" {
		t.Fatalf("Names = %v", names)
	}
	if tr.Series("lat").Len() != 2 {
		t.Fatal("series not shared across calls")
	}
	if !tr.Has("lat") || tr.Has("nope") {
		t.Fatal("Has misbehaves")
	}
}

// Reset empties a trace — names, Has, points — and a series recreated after
// it starts empty, in the new creation order.
func TestTraceReset(t *testing.T) {
	tr := NewTrace()
	tr.Series("a").Append(0, 1)
	tr.Series("b").Append(0, 2)
	tr.Reset()
	if len(tr.Names()) != 0 || tr.Has("a") || tr.Has("b") {
		t.Fatalf("after Reset: names %v", tr.Names())
	}
	tr.Series("b").Append(1, 3)
	tr.Series("c").Append(1, 4)
	tr.Series("a")
	names := tr.Names()
	if len(names) != 3 || names[0] != "b" || names[1] != "c" || names[2] != "a" {
		t.Fatalf("Names after Reset = %v, want [b c a]", names)
	}
	if pts := tr.Series("b").Points; len(pts) != 1 || pts[0] != (Point{T: 1, V: 3}) {
		t.Fatalf("recreated series holds %v", pts)
	}
	if tr.Series("a").Len() != 0 {
		t.Fatal("series recreated by lookup kept its old points")
	}
}

// A warmed trace records a run of the same shape after Reset without
// allocating.
func TestTraceResetReuseAllocFree(t *testing.T) {
	tr := NewTrace()
	names := []string{"p99", "svc.cores", "variant.canneal", "yielded.canneal"}
	fill := func() {
		for k := 0; k < 16; k++ {
			for _, n := range names {
				tr.Series(n).Append(float64(k), float64(k))
			}
		}
	}
	fill()
	if avg := testing.AllocsPerRun(100, func() { tr.Reset(); fill() }); avg != 0 {
		t.Fatalf("Reset plus refill allocates %.1f times", avg)
	}
}
