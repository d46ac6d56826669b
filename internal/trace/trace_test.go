package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// fixtureConfigs pins the committed testdata fixtures: regenerate with
//
//	PLIANT_FIXTURES=write go test ./internal/trace/
//
// after an intentional Synthesize change.
var fixtureConfigs = []struct {
	file string
	cfg  SynthConfig
}{
	{"google_tasks.csv", SynthConfig{Format: Google, Jobs: 40, SpanSec: 600, Seed: 11, Orphans: 0.15}},
	{"azure_vms.csv", SynthConfig{Format: Azure, Jobs: 40, SpanSec: 600, Seed: 13, Orphans: 0.15}},
}

// TestFixturesMatchSynthesize pins the committed fixtures to the generator:
// schema-exact bytes are a pure function of the config, so drift in either
// the generator or the files fails here first.
func TestFixturesMatchSynthesize(t *testing.T) {
	for _, f := range fixtureConfigs {
		path := filepath.Join("testdata", f.file)
		want := Synthesize(f.cfg)
		if os.Getenv("PLIANT_FIXTURES") == "write" {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(want))
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: committed fixture differs from Synthesize output", f.file)
		}
	}
}

// TestFixturesParseThroughCommonPath is the schema-unification check: both
// committed fixtures parse into the same canonical Job stream with the same
// invariants — rebased ascending arrivals, normalized resources, defaulted
// durations counted.
func TestFixturesParseThroughCommonPath(t *testing.T) {
	for _, f := range fixtureConfigs {
		data, err := os.ReadFile(filepath.Join("testdata", f.file))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Parse(bytes.NewReader(data), f.cfg.Format)
		if err != nil {
			t.Fatalf("%s: %v", f.file, err)
		}
		if tr.Source != f.cfg.Format.String() {
			t.Errorf("%s: source %q", f.file, tr.Source)
		}
		if len(tr.Jobs) != f.cfg.Jobs {
			t.Errorf("%s: %d jobs, want %d", f.file, len(tr.Jobs), f.cfg.Jobs)
		}
		if tr.Defaulted == 0 {
			t.Errorf("%s: expected orphaned rows to default durations", f.file)
		}
		if tr.Jobs[0].ArrivalSec != 0 {
			t.Errorf("%s: first arrival %v, want rebased 0", f.file, tr.Jobs[0].ArrivalSec)
		}
		for i, j := range tr.Jobs {
			if i > 0 && j.ArrivalSec < tr.Jobs[i-1].ArrivalSec {
				t.Fatalf("%s: arrivals not ascending at %d", f.file, i)
			}
			if j.DurationSec < 0 || j.CPU < 0 || j.CPU > 1 || j.Mem < 0 || j.Mem > 1 {
				t.Fatalf("%s: job %d outside canonical ranges: %+v", f.file, i, j)
			}
		}
	}
}

func TestParseGoogleEventPairing(t *testing.T) {
	csv := strings.Join([]string{
		"timestamp,missing,jobid,taskidx,machine,event,user,class,prio,cpu,mem,disk,diff", // header
		"1000000,,100,0,7,0,u,0,0,0.25,0.50,0.001,0",                                      // submit A
		"2000000,,100,1,7,0,u,0,0,0.50,0.25,0.001,0",                                      // submit B
		"3000000,,100,0,7,4,u,0,0,0.25,0.50,0.001,0",                                      // finish A (2s run)
		"4000000,,999,9,7,4,u,0,0,0.10,0.10,0.001,0",                                      // finish, unseen submit
		"bogus,,1,1,7,0,u,0,0,0.1,0.1,0.001,0",                                            // unparsable timestamp
		"5000000,,100,2,7,0,u,0,0,nope,0.10,0.001,0",                                      // bad cpu cell
	}, "\n")
	tr, err := ParseGoogle(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != 6 || tr.Dropped != 3 {
		t.Fatalf("rows=%d dropped=%d, want 6 rows with 3 dropped", tr.Rows, tr.Dropped)
	}
	if len(tr.Jobs) != 2 {
		t.Fatalf("jobs = %d, want paired A + orphaned B", len(tr.Jobs))
	}
	a, b := tr.Jobs[0], tr.Jobs[1]
	if a.ID != "100/0" || a.ArrivalSec != 0 || a.DurationSec != 2 || a.CPU != 0.25 || a.Mem != 0.5 {
		t.Errorf("paired task parsed as %+v", a)
	}
	// B never terminated: arrival 1s after A, duration defaulted to the mean
	// of known durations (only A's 2s).
	if b.ID != "100/1" || b.ArrivalSec != 1 || b.DurationSec != 2 {
		t.Errorf("orphan task parsed as %+v", b)
	}
	if tr.Defaulted != 1 {
		t.Errorf("defaulted = %d, want 1", tr.Defaulted)
	}
}

// TestParseGoogleOrphanOrderDeterministic pins the open-at-EOF emission
// order: orphaned tasks sharing one arrival instant must keep SUBMIT file
// order (a map-iteration append would scramble them run to run).
func TestParseGoogleOrphanOrderDeterministic(t *testing.T) {
	rows := []string{
		"1000000,,1,0,7,0,u,0,0,0.10,0.10,0.001,0",
		"1000000,,2,0,7,0,u,0,0,0.20,0.20,0.001,0",
		"1000000,,3,0,7,0,u,0,0,0.30,0.30,0.001,0",
		"1000000,,4,0,7,0,u,0,0,0.40,0.40,0.001,0",
	}
	csv := strings.Join(rows, "\n")
	want := []string{"1/0", "2/0", "3/0", "4/0"}
	for trial := 0; trial < 10; trial++ {
		tr, err := ParseGoogle(strings.NewReader(csv))
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range tr.Jobs {
			if j.ID != want[i] {
				t.Fatalf("trial %d: job %d is %s, want file order %v", trial, i, j.ID, want)
			}
		}
	}
}

// TestParseGoogleUpdateEventsNotDropped: the schema's UPDATE_PENDING (7) and
// UPDATE_RUNNING (8) events are well-formed rows with no arrival
// information; a healthy real export must not read as mostly "dropped".
func TestParseGoogleUpdateEventsNotDropped(t *testing.T) {
	csv := strings.Join([]string{
		"1000000,,1,0,7,0,u,0,0,0.10,0.10,0.001,0", // submit
		"1500000,,1,0,7,7,u,0,0,0.10,0.10,0.001,0", // update pending
		"2000000,,1,0,7,1,u,0,0,0.10,0.10,0.001,0", // schedule
		"2500000,,1,0,7,8,u,0,0,0.10,0.10,0.001,0", // update running
		"3000000,,1,0,7,4,u,0,0,0.10,0.10,0.001,0", // finish
		"4000000,,1,0,7,9,u,0,0,0.10,0.10,0.001,0", // unknown event type
	}, "\n")
	tr, err := ParseGoogle(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped != 1 {
		t.Errorf("dropped = %d, want only the unknown event type", tr.Dropped)
	}
	if len(tr.Jobs) != 1 || tr.Jobs[0].DurationSec != 2 {
		t.Errorf("jobs = %+v", tr.Jobs)
	}
}

// TestParseGooglePreservesTerminalCause pins the per-job cause identity: the
// parser used to collapse every terminal event into "the task stopped";
// fault injection (fault.FromTrace, pliant-sched -trace-faults) needs the
// real FINISH/EVICT/FAIL/KILL/LOST mix preserved per job and censused.
func TestParseGooglePreservesTerminalCause(t *testing.T) {
	csv := strings.Join([]string{
		"1000000,,1,0,7,0,u,0,0,0.10,0.10,0.001,0", // submit 1/0
		"1100000,,2,0,7,0,u,0,0,0.10,0.10,0.001,0", // submit 2/0
		"1200000,,3,0,7,0,u,0,0,0.10,0.10,0.001,0", // submit 3/0
		"1300000,,4,0,7,0,u,0,0,0.10,0.10,0.001,0", // submit 4/0
		"1400000,,5,0,7,0,u,0,0,0.10,0.10,0.001,0", // submit 5/0
		"1500000,,6,0,7,0,u,0,0,0.10,0.10,0.001,0", // submit 6/0 (orphan)
		"2000000,,1,0,7,4,u,0,0,0.10,0.10,0.001,0", // finish
		"2100000,,2,0,7,2,u,0,0,0.10,0.10,0.001,0", // evict
		"2200000,,3,0,7,3,u,0,0,0.10,0.10,0.001,0", // fail
		"2300000,,4,0,7,5,u,0,0,0.10,0.10,0.001,0", // kill
		"2400000,,5,0,7,6,u,0,0,0.10,0.10,0.001,0", // lost
	}, "\n")
	tr, err := ParseGoogle(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Cause{
		"1/0": CauseFinish, "2/0": CauseEvict, "3/0": CauseFail,
		"4/0": CauseKill, "5/0": CauseLost, "6/0": CauseUnknown,
	}
	if len(tr.Jobs) != len(want) {
		t.Fatalf("jobs = %d, want %d", len(tr.Jobs), len(want))
	}
	for _, j := range tr.Jobs {
		if j.Cause != want[j.ID] {
			t.Errorf("job %s cause = %v, want %v", j.ID, j.Cause, want[j.ID])
		}
	}
	wantCounts := CauseCounts{Finish: 1, Evict: 1, Fail: 1, Kill: 1, Lost: 1, Unknown: 1}
	if tr.Causes != wantCounts {
		t.Errorf("causes = %+v, want %+v", tr.Causes, wantCounts)
	}
	if got := tr.Causes.Terminated(); got != 5 {
		t.Errorf("terminated = %d, want 5", got)
	}
	if got := tr.Causes.Failures(); got != 4 {
		t.Errorf("failures = %d, want 4", got)
	}
	if got := tr.FailureFrac(); got != 0.8 {
		t.Errorf("failure fraction = %v, want 0.8", got)
	}
}

// TestNormalizeRecensusesCauses pins that down-sampling recounts the cause
// census over the surviving jobs — the sample's mix, not the source's.
func TestNormalizeRecensusesCauses(t *testing.T) {
	raw := Synthesize(SynthConfig{Format: Google, Jobs: 80, SpanSec: 600, Seed: 3, FailureFrac: 0.5})
	parsed, err := Parse(bytes.NewReader(raw), Google)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := parsed.Normalize(Options{MaxJobs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := countCauses(tr.Jobs); got != tr.Causes {
		t.Errorf("normalized census %+v does not match its jobs %+v", tr.Causes, got)
	}
	if tr.Causes.Terminated() == len(parsed.Jobs) {
		t.Error("down-sampled census still counts the full source trace")
	}
}

// TestSynthesizeFailureFrac: with the knob on, the fixture carries every
// failure-shaped terminal and the parsed failure fraction lands near the
// configured rate; with the knob off (the default), the generator draws no
// extra randomness, so pre-knob fixtures stay byte-identical — which
// TestFixturesMatchSynthesize pins against the committed files.
func TestSynthesizeFailureFrac(t *testing.T) {
	raw := Synthesize(SynthConfig{Format: Google, Jobs: 200, SpanSec: 3600, Seed: 5, FailureFrac: 0.5})
	tr, err := Parse(bytes.NewReader(raw), Google)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Causes
	if c.Evict == 0 || c.Fail == 0 || c.Kill == 0 || c.Lost == 0 {
		t.Fatalf("failure mix missing a kind: %+v", c)
	}
	if c.Finish == 0 {
		t.Fatal("no task finished normally")
	}
	if frac := tr.FailureFrac(); frac < 0.35 || frac > 0.65 {
		t.Errorf("failure fraction = %v, want near the configured 0.5", frac)
	}
	// Azure has no cause column: the knob must not disturb its bytes.
	base := SynthConfig{Format: Azure, Jobs: 40, SpanSec: 600, Seed: 13, Orphans: 0.15}
	withFrac := base
	withFrac.FailureFrac = 0.5
	if !bytes.Equal(Synthesize(base), Synthesize(withFrac)) {
		t.Error("FailureFrac changed Azure fixture bytes")
	}
}

func TestParseAzureRows(t *testing.T) {
	csv := strings.Join([]string{
		"vmid,sub,dep,created,deleted,maxcpu,avgcpu,p95,category,cores,mem", // header
		"vm_a,s,d,100,400,90,50,80,Interactive,4,14",                        // 300s VM
		"vm_b,s,d,150,,90,50,80,Interactive,>24,>64",                        // still running, top buckets
		"vm_c,s,d,200,120,90,50,80,Interactive,2,3.5",                       // inverted pair: duration defaulted
		"vm_d,s,d,nope,400,90,50,80,Interactive,1,1.75",                     // bad created
		"vm_e,s,d,300,600,90,50,80,Interactive,huh,1.75",                    // bad bucket
	}, "\n")
	tr, err := ParseAzure(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != 5 || tr.Dropped != 2 || tr.Defaulted != 2 {
		t.Fatalf("rows=%d dropped=%d defaulted=%d, want 5/2/2", tr.Rows, tr.Dropped, tr.Defaulted)
	}
	if len(tr.Jobs) != 3 {
		t.Fatalf("jobs = %d", len(tr.Jobs))
	}
	a := tr.Jobs[0]
	if a.ID != "vm_a" || a.ArrivalSec != 0 || a.DurationSec != 300 {
		t.Errorf("vm_a parsed as %+v", a)
	}
	if got := a.CPU; got != 4.0/azureMaxCores {
		t.Errorf("vm_a cpu %v", got)
	}
	b := tr.Jobs[1]
	if b.ID != "vm_b" || b.CPU != 1 || b.Mem != 1 || b.DurationSec != 300 {
		t.Errorf("vm_b parsed as %+v (top buckets, defaulted duration)", b)
	}
	if c := tr.Jobs[2]; c.ID != "vm_c" || c.DurationSec != 300 {
		t.Errorf("vm_c parsed as %+v (inverted pair defaults)", c)
	}
}

func TestParseRejectsEmptyAndUnknown(t *testing.T) {
	if _, err := ParseGoogle(strings.NewReader("")); err == nil {
		t.Error("empty google trace accepted")
	}
	if _, err := ParseAzure(strings.NewReader("")); err == nil {
		t.Error("empty azure trace accepted")
	}
	if _, err := Parse(strings.NewReader("x"), Format(99)); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := FormatByName("vmware"); err == nil {
		t.Error("unknown format name accepted")
	}
	for _, name := range []string{"google", "azure"} {
		f, err := FormatByName(name)
		if err != nil || f.String() != name {
			t.Errorf("FormatByName(%q) = %v, %v", name, f, err)
		}
	}
}

func TestNormalize(t *testing.T) {
	tr := &Trace{Source: "synthetic", Jobs: []Job{
		{ID: "0", ArrivalSec: 0, DurationSec: 10, CPU: 0.1},
		{ID: "1", ArrivalSec: 100, DurationSec: 20, CPU: 0.2},
		{ID: "2", ArrivalSec: 250, DurationSec: 30, CPU: 0.3},
		{ID: "3", ArrivalSec: 400, DurationSec: 40, CPU: 0.4},
	}}

	// Target span compresses the axis; durations scale independently.
	n, err := tr.Normalize(Options{TargetSpanSec: 40, DurationScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.SpanSec(); got != 40 {
		t.Errorf("span %v, want 40", got)
	}
	if n.Jobs[1].ArrivalSec != 10 || n.Jobs[1].DurationSec != 10 {
		t.Errorf("job 1 scaled to %+v", n.Jobs[1])
	}
	if tr.Jobs[1].ArrivalSec != 100 {
		t.Error("normalize mutated the receiver")
	}

	// RateScale alone divides the axis.
	n, err = tr.Normalize(Options{RateScale: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.SpanSec(); got != 100 {
		t.Errorf("rate-scaled span %v, want 100", got)
	}

	// Stride down-sampling keeps the first job and the temporal shape, and
	// is deterministic.
	n, err = tr.Normalize(Options{MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := tr.Normalize(Options{MaxJobs: 2})
	if len(n.Jobs) != 2 || n.Jobs[0].ID != "0" || n.Jobs[1].ID != "2" {
		t.Errorf("down-sample kept %+v", n.Jobs)
	}
	for i := range n.Jobs {
		if n.Jobs[i] != n2.Jobs[i] {
			t.Fatal("down-sampling not deterministic")
		}
	}

	for _, bad := range []Options{
		{RateScale: -1}, {TargetSpanSec: -1}, {DurationScale: -1}, {MaxJobs: -1},
	} {
		if _, err := tr.Normalize(bad); err == nil {
			t.Errorf("options %+v accepted", bad)
		}
	}
	empty := &Trace{}
	if _, err := empty.Normalize(Options{}); err == nil {
		t.Error("empty trace normalized")
	}
}

func TestRateShape(t *testing.T) {
	// 6 jobs in bin 0, none in bin 1, 2 in bin 2 over a 30s span.
	var jobs []Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, Job{ArrivalSec: float64(i)})
	}
	jobs = append(jobs, Job{ArrivalSec: 25}, Job{ArrivalSec: 30})
	tr := &Trace{Jobs: jobs}
	times, mult, err := tr.RateShape(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 || times[0] != 0 || times[1] != 10 || times[2] != 20 {
		t.Fatalf("bin times %v", times)
	}
	mean := 8.0 / 3.0
	if mult[0] != 6/mean || mult[1] != 0.01 || mult[2] != 2/mean {
		t.Fatalf("bin multipliers %v (empty bins must floor at 0.01)", mult)
	}
	if _, _, err := tr.RateShape(0); err == nil {
		t.Error("zero bins accepted")
	}
	one := &Trace{Jobs: jobs[:1]}
	if _, _, err := one.RateShape(2); err == nil {
		t.Error("degenerate span accepted")
	}
}

// TestSynthesizeShape checks the generator produces the scenario axis it
// promises: deterministic bytes, a heavy-tailed gap distribution, and a burst
// window denser than the trace mean.
func TestSynthesizeShape(t *testing.T) {
	cfg := SynthConfig{Format: Google, Jobs: 300, SpanSec: 3000, Seed: 5}
	a, b := Synthesize(cfg), Synthesize(cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("synthesize not deterministic")
	}
	// Degenerate counts fall back to the default instead of panicking.
	if neg := Synthesize(SynthConfig{Format: Google, Jobs: -1}); len(neg) == 0 {
		t.Error("negative job count produced no trace")
	}
	tr, err := Parse(bytes.NewReader(a), Google)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != cfg.Jobs {
		t.Fatalf("jobs = %d, want %d", len(tr.Jobs), cfg.Jobs)
	}
	// Heavy tail: the largest inter-arrival gap dwarfs the median gap.
	var gaps []float64
	for i := 1; i < len(tr.Jobs); i++ {
		gaps = append(gaps, tr.Jobs[i].ArrivalSec-tr.Jobs[i-1].ArrivalSec)
	}
	sort.Float64s(gaps)
	median, max := gaps[len(gaps)/2], gaps[len(gaps)-1]
	if max < 8*median {
		t.Errorf("max gap %.2fs only %.1f× median %.2fs — tail not heavy", max, max/median, median)
	}
	// The span is exactly what the config named, and the flash burst packs
	// its stretch of the stream into far less time than the stretch before
	// it: arrivals 60–68% of the index bunch tightly.
	if span := tr.SpanSec(); span < cfg.SpanSec*0.999 || span > cfg.SpanSec*1.001 {
		t.Errorf("span %.1fs, want %.0fs", span, cfg.SpanSec)
	}
	n := len(tr.Jobs)
	at := func(frac float64) float64 { return tr.Jobs[int(frac*float64(n))].ArrivalSec }
	before, during := at(0.60)-at(0.52), at(0.68)-at(0.60)
	if during*2 > before {
		t.Errorf("burst stretch spans %.0fs vs %.0fs before it — want ≥2× denser", during, before)
	}
}

// TestParseGoogleResubmitOpenTask pins a SUBMIT for a task that is still
// open: it overwrites the task's arrival and request but keeps the task's
// first SUBMIT position, which shows among equal arrivals.
func TestParseGoogleResubmitOpenTask(t *testing.T) {
	csv := strings.Join([]string{
		"0,,9,0,7,0,u,0,0,0.50,0.50",       // submit C (anchors t=0)
		"500000,,9,0,7,4,u,0,0,0.50,0.50",  // finish C
		"1000000,,1,0,7,0,u,0,0,0.10,0.10", // submit A
		"2000000,,2,0,7,0,u,0,0,0.20,0.20", // submit B
		"2000000,,1,0,7,0,u,0,0,0.30,0.40", // resubmit A while open
	}, "\n")
	tr, err := ParseGoogle(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := []Job{
		{ID: "9/0", ArrivalSec: 0, DurationSec: 0.5, CPU: 0.5, Mem: 0.5, Cause: CauseFinish},
		{ID: "1/0", ArrivalSec: 2, DurationSec: 0.5, CPU: 0.3, Mem: 0.4},
		{ID: "2/0", ArrivalSec: 2, DurationSec: 0.5, CPU: 0.2, Mem: 0.2},
	}
	if len(tr.Jobs) != len(want) {
		t.Fatalf("jobs = %+v, want %+v", tr.Jobs, want)
	}
	for i := range want {
		if tr.Jobs[i] != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, tr.Jobs[i], want[i])
		}
	}
}

// TestParseGoogleResubmitClosedTask pins a task that is closed, submitted
// again and still open at EOF: the orphan tail emits it at its key's first
// SUBMIT position, so the SUBMIT order [A, B, A] yields A then B.
func TestParseGoogleResubmitClosedTask(t *testing.T) {
	csv := strings.Join([]string{
		"1000000,,1,0,7,0,u,0,0,0.10,0.10", // submit A
		"1000000,,1,0,7,4,u,0,0,0.10,0.10", // finish A
		"1000000,,2,0,7,0,u,0,0,0.20,0.20", // submit B
		"1000000,,1,0,7,0,u,0,0,0.30,0.30", // submit A again
	}, "\n")
	tr, err := ParseGoogle(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		id    string
		cpu   float64
		cause Cause
	}{{"1/0", 0.1, CauseFinish}, {"1/0", 0.3, CauseUnknown}, {"2/0", 0.2, CauseUnknown}}
	if len(tr.Jobs) != len(want) {
		t.Fatalf("jobs = %+v, want %d", tr.Jobs, len(want))
	}
	for i, w := range want {
		if j := tr.Jobs[i]; j.ID != w.id || j.CPU != w.cpu || j.Cause != w.cause {
			t.Errorf("job %d = %+v, want %s cpu %v cause %v", i, j, w.id, w.cpu, w.cause)
		}
	}
}
