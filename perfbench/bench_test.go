package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readJSON(t *testing.T, path string, v interface{}) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestEveryMetricPrinted runs every workload shrunk to a few windows or
// submits, traced and untraced, and requires the final line to carry exactly
// the metrics BENCHMARK.json names, each with its unit, with every check
// passing.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var bm benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bm)
	for _, wl := range bm.Workloads {
		for _, traced := range []bool{false, true} {
			name, flagVal, want := wl.Name+"/untraced", "0", bm.EndToEnd
			if traced {
				name, flagVal, want = wl.Name+"/traced", "1", bm.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				res, err := run([]string{
					"--workload", wl.Name, "--seed", "7", "--seconds", "0.2", "--trace", flagVal,
					"--scale", "tiny", "--spans", filepath.Join(t.TempDir(), "spans.json"),
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed:\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s printed with unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", m.Name, got.Value)
					}
				}
				if !strings.Contains(out.String(), `"git_head"`) {
					t.Errorf("no host fingerprint in the output")
				}
			})
		}
	}
}

// TestLadderMapMatchesBenchmark keeps ladder.json's layer map in step with
// BENCHMARK.json and with the program's own metric tables.
func TestLadderMapMatchesBenchmark(t *testing.T) {
	var bm benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bm)
	var ladder struct {
		Workloads map[string]string `json:"workloads"`
		EndToEnd  map[string]string `json:"end_to_end"`
		PerLayer  map[string]struct {
			Moves      [][2]string `json:"moves"`
			MeasuredOn []string    `json:"measured_on"`
		} `json:"per_layer"`
	}
	readJSON(t, "ladder.json", &ladder)

	workloadSet := map[string]bool{}
	for _, wl := range bm.Workloads {
		workloadSet[wl.Name] = true
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("workload %s has no runner", wl.Name)
		}
		if ladder.Workloads[wl.Name] == "" {
			t.Errorf("workload %s not described in ladder.json", wl.Name)
		}
	}
	e2eSet := map[string]bool{}
	for i, m := range bm.EndToEnd {
		e2eSet[m.Name] = true
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit {
			t.Errorf("end_to_end[%d] %s/%s does not match the program's table", i, m.Name, m.Unit)
		}
		if ladder.EndToEnd[m.Name] == "" {
			t.Errorf("end-to-end metric %s not defined in ladder.json", m.Name)
		}
	}
	if len(bm.PerLayer) != len(perLayer) || len(ladder.PerLayer) != len(perLayer) {
		t.Errorf("per-layer metrics: BENCHMARK.json %d, ladder.json %d, program %d",
			len(bm.PerLayer), len(ladder.PerLayer), len(perLayer))
	}
	for i, m := range bm.PerLayer {
		if i < len(perLayer) && (perLayer[i].name != m.Name || perLayer[i].unit != m.Unit) {
			t.Errorf("per_layer[%d] %s/%s does not match the program's table", i, m.Name, m.Unit)
		}
		entry, ok := ladder.PerLayer[m.Name]
		if !ok {
			t.Errorf("layer metric %s missing from ladder.json", m.Name)
			continue
		}
		for _, mv := range entry.Moves {
			if !(e2eSet[mv[0]] || strings.HasPrefix(mv[0], "wall.")) || !workloadSet[mv[1]] {
				t.Errorf("layer metric %s moves unknown (%s, %s)", m.Name, mv[0], mv[1])
			}
		}
		for _, wl := range entry.MeasuredOn {
			if !workloadSet[wl] {
				t.Errorf("layer metric %s measured on unknown workload %s", m.Name, wl)
			}
		}
	}
}

// TestCompareRefusesOtherHosts checks that reports from different machines
// are not compared.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	a := report{Host: host{CPU: "cpu-a", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GitHead: "none", SourceSHA: "aaaaaaaaaaaaaaaa", Workload: "day-episodes"},
		Outcome: outcome{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"cpu_s": {Value: 2, Unit: "s"}}}}
	b := a
	b.Outcome = outcome{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"cpu_s": {Value: 1, Unit: "s"}}}
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for path, r := range map[string]report{pa: a, pb: b} {
		if err := writeReport(path, r); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareReports(&out, []string{pa, pb}); err != nil {
		t.Fatalf("same host refused: %v", err)
	}
	if !strings.Contains(out.String(), "-50.0%") {
		t.Errorf("compare output lacks the cpu_s change:\n%s", out.String())
	}
	b.Host.NProc = 4
	if err := writeReport(pb, b); err != nil {
		t.Fatal(err)
	}
	if err := compareReports(&out, []string{pa, pb}); err == nil {
		t.Fatal("reports from different hosts were compared")
	}
}
