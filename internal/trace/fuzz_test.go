package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
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
