package dse

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/approx-sched/pliant/internal/app"
	"github.com/approx-sched/pliant/internal/approx"
)

func TestDefaultOptionsMirrorPaper(t *testing.T) {
	o := DefaultOptions()
	if o.MaxInaccuracy != 5.0 {
		t.Fatalf("inaccuracy budget = %v, want the paper's 5%%", o.MaxInaccuracy)
	}
	if len(o.PerforationFactors) == 0 {
		t.Fatal("no perforation factors")
	}
}

func TestOptionsValidation(t *testing.T) {
	prof := app.Catalog()[0]
	bad := []Options{
		{MaxInaccuracy: 0, PerforationFactors: []int{2}, MaxCandidates: 10},
		{MaxInaccuracy: 5, PerforationFactors: nil, MaxCandidates: 10},
		{MaxInaccuracy: 5, PerforationFactors: []int{1}, MaxCandidates: 10},
		{MaxInaccuracy: 5, PerforationFactors: []int{2}, MaxCandidates: 0},
		{MaxInaccuracy: 5, PerforationFactors: []int{2}, MaxCandidates: 10, TimeGap: -1},
	}
	for i, o := range bad {
		if _, err := Explore(prof, o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	badProf := prof
	badProf.Sites = nil
	if _, err := Explore(badProf, DefaultOptions()); err == nil {
		t.Error("profile without sites accepted")
	}
}

func TestExploreProducesCandidatesAndSelection(t *testing.T) {
	for _, prof := range app.Catalog() {
		res, err := ExploreApp(prof)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if len(res.All) == 0 {
			t.Fatalf("%s: no candidates examined", prof.Name)
		}
		if len(res.Selected) == 0 {
			t.Fatalf("%s: no variants selected", prof.Name)
		}
		if res.App != prof.Name {
			t.Fatalf("result app %q != %q", res.App, prof.Name)
		}
	}
}

func TestSelectedVariantCountsMatchPaper(t *testing.T) {
	// Paper Sec. 3 / Fig. 4: canneal has 4 selected variants, raytrace 2,
	// Bayesian 8, SNP 5, PLSA 8.
	want := map[string]int{
		"canneal":  4,
		"raytrace": 2,
		"Bayesian": 8,
		"SNP":      5,
		"PLSA":     8,
	}
	for name, n := range want {
		prof, err := app.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExploreApp(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Selected) != n {
			t.Errorf("%s: %d selected variants, paper reports %d", name, len(res.Selected), n)
		}
	}
}

func TestAllAppsHaveTwoToEightVariants(t *testing.T) {
	// The paper's per-app selections range from 2 (raytrace) to 8
	// (Bayesian, PLSA).
	for _, prof := range app.Catalog() {
		res, err := ExploreApp(prof)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Selected); n < 2 || n > 8 {
			t.Errorf("%s: %d selected variants, want 2..8", prof.Name, n)
		}
	}
}

func TestSelectionRespectsInaccuracyBudget(t *testing.T) {
	for _, prof := range app.Catalog() {
		res, err := ExploreApp(prof)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Selected {
			if c.Effect.Inaccuracy > 5.0 {
				t.Errorf("%s: selected variant with %.2f%% inaccuracy (budget 5%%)",
					prof.Name, c.Effect.Inaccuracy)
			}
			if c.Effect.TimeScale > 1 {
				t.Errorf("%s: selected variant slower than precise (%.2f)",
					prof.Name, c.Effect.TimeScale)
			}
		}
	}
}

func TestSelectionIsOrderedFrontier(t *testing.T) {
	// Selected variants must be ordered least→most approximate: inaccuracy
	// nondecreasing, execution time strictly decreasing (pareto frontier).
	for _, prof := range app.Catalog() {
		res, err := ExploreApp(prof)
		if err != nil {
			t.Fatal(err)
		}
		sel := res.Selected
		for i := 1; i < len(sel); i++ {
			if sel[i].Effect.Inaccuracy < sel[i-1].Effect.Inaccuracy {
				t.Errorf("%s: inaccuracy not nondecreasing at %d", prof.Name, i)
			}
			if sel[i].Effect.TimeScale >= sel[i-1].Effect.TimeScale {
				t.Errorf("%s: time scale not decreasing at %d", prof.Name, i)
			}
		}
	}
}

func TestSelectionDominatesNothingEligible(t *testing.T) {
	// No examined candidate within budget may strictly dominate a selected
	// variant (faster AND more accurate) — selected points sit on the
	// frontier.
	prof, _ := app.ByName("canneal")
	res, err := ExploreApp(prof)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	for _, sel := range res.Selected {
		for _, c := range res.All {
			if c.Effect.Inaccuracy > 5.0 {
				continue
			}
			if c.Effect.TimeScale < sel.Effect.TimeScale-eps &&
				c.Effect.Inaccuracy < sel.Effect.Inaccuracy-eps {
				t.Fatalf("candidate (t=%.3f, i=%.3f) dominates selected (t=%.3f, i=%.3f)",
					c.Effect.TimeScale, c.Effect.Inaccuracy,
					sel.Effect.TimeScale, sel.Effect.Inaccuracy)
			}
		}
	}
}

func TestVariantsTableShape(t *testing.T) {
	prof, _ := app.ByName("SNP")
	res, err := ExploreApp(prof)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Variants()
	if v[0] != approx.Precise() {
		t.Fatal("variant 0 must be precise")
	}
	if len(v) != len(res.Selected)+1 {
		t.Fatalf("variants table length %d, want %d", len(v), len(res.Selected)+1)
	}
}

func TestVariantsForMemoizes(t *testing.T) {
	prof, _ := app.ByName("k-means")
	a, err := VariantsFor(prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := VariantsFor(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("memoized call differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("memoized variants differ")
		}
	}
	// Returned slices must be private copies.
	a[0].Inaccuracy = 99
	c, _ := VariantsFor(prof)
	if c[0].Inaccuracy == 99 {
		t.Fatal("VariantsFor exposes shared state")
	}
}

// A custom profile that reuses a catalog name must get its own exploration,
// not the catalog entry's memoized table, whichever of the two is looked up
// first.
func TestVariantsForCustomProfileSharingCatalogName(t *testing.T) {
	catalog, _ := app.ByName("canneal")
	custom := catalog
	custom.MaxVariants = 1
	fresh, err := ExploreApp(custom)
	if err != nil {
		t.Fatal(err)
	}
	wantCustom := fresh.Variants()
	if len(wantCustom) != 2 {
		t.Fatalf("custom canneal explores to %d entries, want precise + 1", len(wantCustom))
	}

	check := func(prof app.Profile, wantLen int) {
		t.Helper()
		got, err := VariantsFor(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != wantLen {
			t.Fatalf("MaxVariants %d: got %d entries, want %d", prof.MaxVariants, len(got), wantLen)
		}
		if wantLen == len(wantCustom) && !slices.Equal(got, wantCustom) {
			t.Fatalf("custom canneal got %v, want %v", got, wantCustom)
		}
	}
	variantsMu.Lock()
	delete(variantsCache, "canneal")
	variantsMu.Unlock()
	check(custom, 2) // before the catalog entry is memoized
	check(catalog, 5)
	check(custom, 2) // after
	check(catalog, 5)
}

func TestDownsampleKeepsEndpoints(t *testing.T) {
	mk := func(times ...float64) []Candidate {
		out := make([]Candidate, len(times))
		for i, v := range times {
			out[i].Effect.TimeScale = v
		}
		return out
	}
	pts := mk(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
	got := downsample(pts, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Effect.TimeScale != 0.9 || got[2].Effect.TimeScale != 0.3 {
		t.Fatalf("endpoints not kept: %v", got)
	}
	if len(downsample(pts, 0)) != len(pts) {
		t.Fatal("n=0 should disable downsampling")
	}
	if got := downsample(pts, 1); len(got) != 1 || got[0].Effect.TimeScale != 0.3 {
		t.Fatal("n=1 should keep the most approximate point")
	}
	if got := downsample(pts, 100); len(got) != len(pts) {
		t.Fatal("n>len should be identity")
	}
}

// Property: downsample never duplicates or reorders points.
func TestDownsampleProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%30 + 1
		k := int(kRaw)%12 + 1
		pts := make([]Candidate, n)
		for i := range pts {
			pts[i].Effect.TimeScale = 1 - float64(i)*0.01
		}
		got := downsample(pts, k)
		if len(got) > k && k > 0 {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Effect.TimeScale >= got[i-1].Effect.TimeScale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanOverheadMatchesPaper(t *testing.T) {
	// Sec. 6.2: instrumentation overhead 3.8% on average, 8.9% worst case.
	mean := app.MeanDynOverhead()
	if mean < 0.035 || mean > 0.042 {
		t.Fatalf("mean overhead %.4f, want ≈0.038", mean)
	}
	worst := 0.0
	for _, p := range app.Catalog() {
		if p.DynOverhead > worst {
			worst = p.DynOverhead
		}
	}
	if worst != 0.089 {
		t.Fatalf("worst overhead %.4f, want 0.089 (water_spatial)", worst)
	}
}
