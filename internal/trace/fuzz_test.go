package trace

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// addFixtureSeeds seeds a fuzz target with a committed fixture, its first
// few lines, and a header-only file.
func addFixtureSeeds(f *testing.F, name, header string) {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	lines := bytes.SplitAfter(data, []byte("\n"))
	f.Add(bytes.Join(lines[:min(4, len(lines))], nil))
	f.Add([]byte(header))
}

// checkParsed asserts the invariants every successfully parsed trace keeps,
// whatever the input bytes: arrivals ascend from 0, durations are finite and
// non-negative, resource requests lie in [0, 1], and the cause census covers
// every job exactly once.
func checkParsed(t *testing.T, tr *Trace) {
	t.Helper()
	if len(tr.Jobs) == 0 {
		t.Fatal("parse succeeded with no jobs")
	}
	if tr.Jobs[0].ArrivalSec != 0 {
		t.Fatalf("first arrival %v, want 0", tr.Jobs[0].ArrivalSec)
	}
	for i, j := range tr.Jobs {
		if math.IsNaN(j.ArrivalSec) || math.IsInf(j.ArrivalSec, 0) {
			t.Fatalf("job %d: arrival %v", i, j.ArrivalSec)
		}
		if i > 0 && j.ArrivalSec < tr.Jobs[i-1].ArrivalSec {
			t.Fatalf("job %d arrives at %v, before job %d at %v", i, j.ArrivalSec, i-1, tr.Jobs[i-1].ArrivalSec)
		}
		if math.IsNaN(j.DurationSec) || math.IsInf(j.DurationSec, 0) || j.DurationSec < 0 {
			t.Fatalf("job %d: duration %v", i, j.DurationSec)
		}
		if !(j.CPU >= 0 && j.CPU <= 1) || !(j.Mem >= 0 && j.Mem <= 1) {
			t.Fatalf("job %d: cpu %v mem %v outside [0,1]", i, j.CPU, j.Mem)
		}
	}
	if n := tr.Causes.Terminated() + tr.Causes.Unknown; n != len(tr.Jobs) {
		t.Fatalf("cause census counts %d jobs, trace has %d", n, len(tr.Jobs))
	}
}

func FuzzParseGoogle(f *testing.F) {
	addFixtureSeeds(f, "google_tasks.csv", "time,missing,job_id,task_index,machine_id,event_type,user,class,priority,cpu,mem\n")
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseGoogle(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkParsed(t, tr)
	})
}

func FuzzParseAzure(f *testing.F) {
	addFixtureSeeds(f, "azure_vms.csv", "vmid,sub,dep,created,deleted,max,avg,p95,category,cores,mem\n")
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseAzure(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkParsed(t, tr)
	})
}

// addDifferentialSeeds seeds a differential fuzz target with the inputs where
// the row reader and encoding/csv could part: quoted fields (also spanning
// lines, and after quote-free rows), CRLF, a lone CR at EOF, blank lines, a
// line longer than the row reader's buffer, and the number forms next to the
// fast path's (-0, 1e5, .5, a 16-digit value). rows are well-formed data
// rows; num is a row with NUM placeholders in its numeric columns.
func addDifferentialSeeds(f *testing.F, rows []string, num string) {
	f.Helper()
	lines := strings.Join(rows, "\n") + "\n"
	long := rows[0] + "," + strings.Repeat("x", rowBufSize+10)
	quoted := strings.Replace(rows[1], ",", `,"q,""uo\nted",`, 1)
	for _, seed := range []string{
		lines,
		strings.Join(rows, "\r\n") + "\r\n",
		strings.Join(rows, "\n") + "\r",
		strings.Join(rows, "\n\n\r\n") + "\n\n",
		lines + quoted + "\n" + lines,
		lines + strings.Replace(rows[1], ",", `,a"b,`, 1) + "\n" + lines,
		`"` + lines,
		lines + `"`,
		long + "\n" + lines,
		lines + long,
		strings.Repeat(rows[0]+"\r", rowBufSize/len(rows[0])+2),
	} {
		f.Add([]byte(seed))
	}
	for _, v := range []string{"-0", "1e5", ".5", "5.", "1234567890123456", "9.999999999999999", "123456789012345", "0.000000000000001", "0x1p-2", "+1", "1_0", "NaN", "Inf"} {
		f.Add([]byte(lines + strings.ReplaceAll(num, "NUM", v) + "\n"))
	}
}

// parseWith runs a reader through the parsers' shared tail.
func parseWith(source string, read func(io.Reader) (int, int, []Job, error), data []byte) (*Trace, error) {
	rows, dropped, jobs, err := read(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return finishTrace(source, rows, dropped, jobs)
}

// checkSameTrace asserts two parses agree: the same error verdict, counts
// and cause census, and every job field bit for bit.
func checkSameTrace(t *testing.T, got *Trace, gotErr error, want *Trace, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error %v, encoding/csv reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Rows != want.Rows || got.Dropped != want.Dropped || got.Defaulted != want.Defaulted {
		t.Fatalf("rows/dropped/defaulted %d/%d/%d, reference %d/%d/%d",
			got.Rows, got.Dropped, got.Defaulted, want.Rows, want.Dropped, want.Defaulted)
	}
	if got.Causes != want.Causes {
		t.Fatalf("causes %+v, reference %+v", got.Causes, want.Causes)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%d jobs, reference %d", len(got.Jobs), len(want.Jobs))
	}
	bits := math.Float64bits
	for i, g := range got.Jobs {
		w := want.Jobs[i]
		if g.ID != w.ID || g.Cause != w.Cause ||
			bits(g.ArrivalSec) != bits(w.ArrivalSec) || bits(g.DurationSec) != bits(w.DurationSec) ||
			bits(g.CPU) != bits(w.CPU) || bits(g.Mem) != bits(w.Mem) {
			t.Fatalf("job %d = %+v, reference %+v", i, g, w)
		}
	}
}

func FuzzParseGoogleMatchesCSV(f *testing.F) {
	addFixtureSeeds(f, "google_tasks.csv", "time,missing,job_id,task_index,machine_id,event_type,user,class,priority,cpu,mem\n")
	addDifferentialSeeds(f, []string{
		"1000000,,100,0,7,0,u,0,0,0.25,0.50,0.001,0",
		"2000000,,100,1,7,0,u,0,0,0.50,0.25,0.001,0",
		"3000000,,100,0,7,4,u,0,0,0.25,0.50,0.001,0",
	}, "NUM,,100,2,7,0,u,0,0,NUM,0.10")
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ParseGoogle(bytes.NewReader(data))
		want, wantErr := parseWith("google", refReadGoogle, data)
		checkSameTrace(t, got, gotErr, want, wantErr)
	})
}

func FuzzParseAzureMatchesCSV(f *testing.F) {
	addFixtureSeeds(f, "azure_vms.csv", "vmid,sub,dep,created,deleted,max,avg,p95,category,cores,mem\n")
	addDifferentialSeeds(f, []string{
		"vm_a,s,d,100,400,90,50,80,Interactive,4,14",
		"vm_b,s,d,150,,90,50,80,Interactive,>24,>64",
		"vm_c,s,d,200,120,90,50,80,Interactive,2,3.5",
	}, "vm_n,s,d,NUM,NUM,90,50,80,Interactive, 2 ,NUM")
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ParseAzure(bytes.NewReader(data))
		want, wantErr := parseWith("azure", refReadAzure, data)
		checkSameTrace(t, got, gotErr, want, wantErr)
	})
}
