package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func TestTracerRingOrderAndOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Record{At: int64(i), Kind: KindWindow, Node: -1, A: int64(i)})
	}
	if tr.Total() != 10 || tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("total=%d len=%d dropped=%d", tr.Total(), tr.Len(), tr.Dropped())
	}
	var got []int64
	tr.Records(func(r Record) { got = append(got, r.A) })
	want := []int64{6, 7, 8, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained %v, want %v", got, want)
		}
	}
	if tr.CountOf(KindWindow) != 10 {
		t.Fatalf("CountOf(window) = %d", tr.CountOf(KindWindow))
	}
}

// TestTracerRecordsSince covers the incremental drain behind the serving
// layer's SSE feed: a cursor that trails inside the retained window resumes
// exactly where it left off; one that trails past an overwrite skips the
// lost records but keeps emission order; a fresh cursor re-reads nothing.
func TestTracerRecordsSince(t *testing.T) {
	tr := NewTracer(4)
	emit := func(from, to int) {
		for i := from; i < to; i++ {
			tr.Emit(Record{At: int64(i), Kind: KindWindow, Node: -1, A: int64(i)})
		}
	}
	drain := func(cursor uint64) (got []int64, next uint64) {
		next = tr.RecordsSince(cursor, func(r Record) { got = append(got, r.A) })
		return got, next
	}

	emit(0, 3) // not yet wrapped
	got, cursor := drain(0)
	if want := []int64{0, 1, 2}; !int64sEqual(got, want) || cursor != 3 {
		t.Fatalf("unwrapped drain = %v cursor %d, want %v cursor 3", got, cursor, want)
	}
	if got, next := drain(cursor); got != nil || next != cursor {
		t.Fatalf("caught-up drain = %v cursor %d, want none", got, next)
	}

	emit(3, 6) // total 6 > cap 4: wrapped, records 0..1 overwritten
	got, cursor = drain(cursor)
	if want := []int64{3, 4, 5}; !int64sEqual(got, want) || cursor != 6 {
		t.Fatalf("incremental drain = %v cursor %d, want %v cursor 6", got, cursor, want)
	}

	emit(6, 16) // lap the ring: a cursor at 6 lost 6..11
	got, cursor = drain(cursor)
	if want := []int64{12, 13, 14, 15}; !int64sEqual(got, want) || cursor != 16 {
		t.Fatalf("lagging drain = %v cursor %d, want %v cursor 16", got, cursor, want)
	}

	// A total that is not a multiple of the capacity: the oldest retained
	// record, 15, sits mid-ring, so a slot off by the ring's base reads the
	// wrong record.
	emit(16, 19)
	if got, next := drain(6); !int64sEqual(got, []int64{15, 16, 17, 18}) || next != 19 {
		t.Fatalf("mid-ring lagging drain = %v cursor %d, want [15 16 17 18] cursor 19", got, next)
	}
	got, cursor = drain(cursor)
	if want := []int64{16, 17, 18}; !int64sEqual(got, want) || cursor != 19 {
		t.Fatalf("mid-ring drain = %v cursor %d, want %v cursor 19", got, cursor, want)
	}
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTracerEmitAllocFree pins the record path at zero allocations — the
// tracer rides the scheduler's per-decision path, so a single allocation per
// record would dominate obs-on runs. It counts the total over a batch of
// records. Each batch rewinds the ring, fills it and laps it twice, so the
// fill and wrap branches of Emit run in the measured batch; the growth
// branch runs only in AllocsPerRun's warm-up call, which grows the ring to
// its capacity, and is covered by TestTracerReserveAllocsOnce and
// FuzzTracerGrowth instead.
func TestTracerEmitAllocFree(t *testing.T) {
	const capacity = 1 << 10
	tr := NewTracer(capacity)
	r := Record{At: 5, Kind: KindPlacement, Node: 2, Window: 1, A: 7, B: 3, C: 0}
	allocs := testing.AllocsPerRun(1, func() {
		tr.ring, tr.n = tr.ring[:0], 0
		for i := 0; i < 3*capacity; i++ {
			tr.Emit(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("%d Tracer.Emit calls allocate %v times in total, want 0", 3*capacity, allocs)
	}
	if tr.Dropped() != 2*capacity {
		t.Fatalf("Dropped = %d after lapping the ring twice, want %d", tr.Dropped(), 2*capacity)
	}
}

// TestRegistryObserveAllocFree pins counter increments and histogram
// observations — the metrics record path — at zero allocations, counted
// over a batch of calls. The observed values fall below, between and above
// the bucket bounds.
func TestRegistryObserveAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pliant_test_total", "test counter")
	g := reg.Gauge("pliant_test_depth", "test gauge")
	h := reg.Histogram("pliant_test_ratio", "test histogram", []float64{0.5, 1, 2})
	const n = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			c.Inc()
			g.Set(3)
			h.Observe(0.25 * float64(i%12))
		}
	})
	if allocs != 0 {
		t.Fatalf("%d metric updates allocate %v times in total, want 0", 3*n, allocs)
	}
	if h.counts[0] == 0 || h.counts[len(h.counts)-1] == 0 {
		t.Fatalf("bucket counts %v: the batch missed the lowest or the overflow bucket", h.counts)
	}
}

func TestRegistryDedupeAndHistogram(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "x", Label{"policy", "first-fit"})
	b := reg.Counter("x_total", "x", Label{"policy", "first-fit"})
	if a != b {
		t.Fatal("same identity registered twice")
	}
	a.Inc()
	b.Inc() // same underlying counter: totals fold together
	if c := reg.Counter("x_total", "x", Label{"policy", "best-fit"}); c == a {
		t.Fatal("distinct label sets collapsed")
	}

	h := reg.Histogram("r", "ratios", []float64{1, 2})
	for _, v := range []float64{0.5, 1.0, 1.5, 3.0} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 6.0 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := WriteMetricsProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`x_total{policy="first-fit"} 2`,
		`r_bucket{le="1"} 2`,
		`r_bucket{le="2"} 3`,
		`r_bucket{le="+Inf"} 4`,
		"r_sum 6",
		"r_count 4",
		"# TYPE r histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsCSVSnapshots(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "jobs", Label{"policy", "a,b"}) // comma forces quoting
	h := reg.Histogram("wait", "waits", []float64{1})
	c.Inc()
	h.Observe(0.5)
	reg.Snapshot(10)
	c.Inc()
	reg.Snapshot(20)

	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, reg); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2 snapshots", len(rows))
	}
	wantHeader := []string{"t_seconds", `jobs_total{policy="a,b"}`, "wait_count", "wait_sum"}
	for i, h := range wantHeader {
		if rows[0][i] != h {
			t.Fatalf("header %v, want %v", rows[0], wantHeader)
		}
	}
	if rows[1][1] != "1" || rows[2][1] != "2" {
		t.Errorf("counter snapshots %v / %v", rows[1], rows[2])
	}
	if rows[1][2] != "1" || rows[1][3] != "0.5" {
		t.Errorf("histogram snapshot %v", rows[1])
	}
}

// TestChromeTraceDeterministicAndLoadable checks the Chrome trace export is
// valid JSON with the expected event shapes, and byte-identical across
// writes.
func TestChromeTraceDeterministicAndLoadable(t *testing.T) {
	tr := NewTracer(64)
	tr.Emit(Record{At: 0, Kind: KindReplayDrop, Node: -1, A: 3, B: 1, C: 16})
	tr.Emit(Record{At: 1e9, Kind: KindEpisode, Node: 0, Window: 0, A: 5e8, B: 1, C: 1200})
	tr.Emit(Record{At: 2e9, Kind: KindPlacement, Node: 1, Window: 0, A: 4, B: 3, C: 0})
	tr.Emit(Record{At: 2e9, Kind: KindPlacement, Node: -1, Window: 0, A: 5, B: 2, C: 1})
	tr.Emit(Record{At: 2e9, Kind: KindAutoscale, Node: 1, Window: 0, A: 2, B: 1})
	tr.Emit(Record{At: 2e9, Kind: KindLifecycle, Node: 1, Window: 0, A: 0, B: 1})
	tr.Emit(Record{At: 2e9, Kind: KindWindow, Node: -1, Window: 1, A: 1, B: 4, C: 2})

	meta := TraceMeta{NodeNames: []string{"cache-1", "web-1"}, Policy: "telemetry-aware"}
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, tr, meta); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, tr, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Chrome trace bytes differ across writes")
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	byName := map[string]bool{}
	for _, e := range doc.TraceEvents {
		byName[e.Name] = true
		if e.Name == "episode" {
			if e.Ph != "X" || e.Ts != 1e6 || e.Dur != 5e5 {
				t.Errorf("episode event = %+v", e)
			}
		}
		if e.Name == "defer job 5" && e.Tid != 2 {
			t.Errorf("deferral not on the scheduler lane: %+v", e)
		}
	}
	for _, want := range []string{
		"episode", "place job 4", "defer job 5", "setfreq",
		"active->draining", "window 1", "trace ingest", "thread_name",
	} {
		if !byName[want] {
			t.Errorf("trace missing %q event", want)
		}
	}
}

func TestProfilerAccounting(t *testing.T) {
	var p Profiler
	p.Ensure(2)
	p.Ensure(2)
	p.AddEpisode(0, 3, 100)
	p.AddEpisode(1, 1, 40)
	p.AddBarrierWait(1, 60)
	p.AddBarrierWait(0, -5) // clamped
	sh := p.Shards()
	if len(sh) != 2 {
		t.Fatalf("shards = %d", len(sh))
	}
	if sh[0].Episodes != 3 || sh[0].EpisodeNs != 100 || sh[0].BarrierWaitNs != 0 {
		t.Errorf("shard 0 = %+v", sh[0])
	}
	if got := sh[1].BarrierWaitFrac(); got != 0.6 {
		t.Errorf("BarrierWaitFrac = %v, want 0.6", got)
	}
}

func TestNewObserverDefaults(t *testing.T) {
	o := New(Options{})
	if o.Tracer == nil || o.Metrics == nil || o.Profile == nil {
		t.Fatal("New left a channel nil")
	}
	if o.Tracer.capacity != DefaultTraceCapacity {
		t.Fatalf("default capacity = %d", o.Tracer.capacity)
	}
	if cap(o.Tracer.ring) != 0 {
		t.Fatalf("New allocated a %d-record ring before any record", cap(o.Tracer.ring))
	}
}
