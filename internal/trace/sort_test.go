package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// stableByArrival is the reference order sortByArrival must reproduce: a
// stable sort of the jobs themselves.
func stableByArrival(jobs []Job) {
	slices.SortStableFunc(jobs, func(a, b Job) int {
		switch {
		case a.ArrivalSec < b.ArrivalSec:
			return -1
		case b.ArrivalSec < a.ArrivalSec:
			return 1
		}
		return 0
	})
}

// tiedGoogle renders n tasks whose SUBMITs share a handful of instants and
// whose FINISHes land in a different order, so the parsed jobs arrive out of
// order with long runs of equal arrivals.
func tiedGoogle(n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,,%d,%d,0,0,u,0,0,0.1,0.1\n", (i%4)*1000000, i, i%3)
	}
	for i := n - 1; i >= 0; i-- {
		if i%7 == 0 {
			continue // orphans: emitted after the terminated tasks
		}
		fmt.Fprintf(&b, "%d,,%d,%d,0,4,u,0,0,0.1,0.1\n", 5000000+(i%11)*1000000, i, i%3)
	}
	return b.Bytes()
}

// TestSortByArrivalMatchesStableSort is the differential check of the keyed
// sort: on the raw (pre-sort) job lists of the storm benchmark's trace, both
// committed fixtures, and a trace dominated by equal arrivals, sortByArrival
// must produce exactly the stable sort's order.
func TestSortByArrivalMatchesStableSort(t *testing.T) {
	read := func(f Format, data []byte) []Job {
		t.Helper()
		var jobs []Job
		var err error
		if f == Azure {
			_, _, jobs, err = readAzure(bytes.NewReader(data))
		} else {
			_, _, jobs, err = readGoogle(bytes.NewReader(data))
		}
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	fixture := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		jobs []Job
	}{
		{"storm", read(Google, Synthesize(SynthConfig{Format: Google, Jobs: 100000, Seed: 42}))},
		{"google fixture", read(Google, fixture("google_tasks.csv"))},
		{"azure fixture", read(Azure, fixture("azure_vms.csv"))},
		{"equal arrivals", read(Google, tiedGoogle(5000))},
	}
	for _, c := range cases {
		if len(c.jobs) == 0 {
			t.Fatalf("%s: no jobs parsed", c.name)
		}
		got, want := slices.Clone(c.jobs), slices.Clone(c.jobs)
		sortByArrival(got)
		stableByArrival(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: keyed sort differs from the stable sort", c.name)
		}
		// The reversed list is out of order everywhere, ties included.
		slices.Reverse(got)
		want = slices.Clone(got)
		sortByArrival(got)
		stableByArrival(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s reversed: keyed sort differs from the stable sort", c.name)
		}
	}
}
