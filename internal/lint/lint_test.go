package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/approx-sched/pliant/internal/lint"
)

// sharedLoader caches one loader (and its type-checked stdlib) across the
// test file; tests in this package run sequentially.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

func getLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		var root string
		root, loaderErr = lint.FindModuleRoot(".")
		if loaderErr != nil {
			return
		}
		loader, loaderErr = lint.NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

func loadDirs(t *testing.T, dirs ...string) []*lint.Package {
	t.Helper()
	l := getLoader(t)
	pkgs, err := l.LoadAll(dirs)
	if err != nil {
		t.Fatalf("load %v: %v", dirs, err)
	}
	return pkgs
}

func lintDirs(t *testing.T, dirs ...string) []lint.Diagnostic {
	t.Helper()
	return lint.Run(loadDirs(t, dirs...), lint.DefaultRules())
}

// want is one expectation parsed from a fixture comment of the form
//
//	// want `regexp`
//
// anchored to its file and line; the regexp matches the rendered
// "[rule] message" part of a diagnostic on that line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile("// want `([^`]*)`")

// parseWants scans every fixture file in dir (repo-relative) for want
// comments. Returned file paths are module-root-relative, matching
// Diagnostic.File.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rel := "internal/lint/" + filepath.ToSlash(path)
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp: %v", rel, n, err)
			}
			wants = append(wants, want{file: rel, line: n, re: re})
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return wants
}

// checkFixture lints one fixture package and cross-checks its diagnostics
// against the want comments, both directions: every want must be hit by a
// diagnostic on its line, and every diagnostic must be claimed by a want.
func checkFixture(t *testing.T, dir string) {
	t.Helper()
	diags := lintDirs(t, dir)
	wants := parseWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	matched := make([]bool, len(diags))
	for _, w := range wants {
		hit := false
		for i, d := range diags {
			if d.File == w.file && d.Line == w.line &&
				w.re.MatchString(fmt.Sprintf("[%s] %s", d.Rule, d.Message)) {
				matched[i] = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestWallclockFixture(t *testing.T)    { checkFixture(t, "testdata/wallclock/sim") }
func TestUnseededRandFixture(t *testing.T) { checkFixture(t, "testdata/unseededrand/dice") }
func TestMapOrderFixture(t *testing.T)     { checkFixture(t, "testdata/maporder/sched") }
func TestSpawnFixture(t *testing.T)        { checkFixture(t, "testdata/spawn/pump") }
func TestAllowFixture(t *testing.T)        { checkFixture(t, "testdata/allow/sim") }
func TestSeedflowFixture(t *testing.T)     { checkFixture(t, "testdata/seedflow/gen") }

// fixtureDirs lists every leaf fixture package under testdata.
func fixtureDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir("testdata", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// TestFixturePackagesAreDirty pins the CLI contract that pliant-lint exits
// nonzero on every fixture package: each must produce at least one
// unsuppressed diagnostic.
func TestFixturePackagesAreDirty(t *testing.T) {
	for _, dir := range fixtureDirs(t) {
		if n := len(lintDirs(t, dir)); n == 0 {
			t.Errorf("%s: fixture package is lint-clean; pliant-lint would exit 0 on it", dir)
		}
	}
}

// positionDirs are the fixture packages the position pins and the
// ordering pin lint together.
var positionDirs = []string{
	"testdata/wallclock/sim", "testdata/maporder/sched", "testdata/seedflow/gen",
}

// positionPin pins the exact file:line of one planted violation: the
// fixture and the pin must move together, so diagnostic positions cannot
// silently drift.
type positionPin struct {
	rule     string
	file     string
	line     int
	contains string
}

// checkPins reports every pin with no matching diagnostic in diags.
func checkPins(t *testing.T, diags []lint.Diagnostic, pins []positionPin) {
	t.Helper()
	for _, pin := range pins {
		found := false
		for _, d := range diags {
			if d.File == pin.file && d.Line == pin.line && d.Rule == pin.rule &&
				strings.Contains(d.Message, pin.contains) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s diagnostic for the planted violation at %s:%d", pin.rule, pin.file, pin.line)
		}
	}
}

// TestWallclockDiagnosticPosition pins the exact file:line of the planted
// time.Now in the wallclock fixture.
func TestWallclockDiagnosticPosition(t *testing.T) {
	checkPins(t, lintDirs(t, "testdata/wallclock/sim"), []positionPin{
		{"wallclock", "internal/lint/testdata/wallclock/sim/clock.go", 13, "time.Now"},
	})
}

// TestDataflowDiagnosticPositions pins one planted violation per rule that
// follows values past a single call: map-order float accumulation and seed
// flow.
func TestDataflowDiagnosticPositions(t *testing.T) {
	checkPins(t, lintDirs(t, positionDirs...), []positionPin{
		{"maporder", "internal/lint/testdata/maporder/sched/floatsum.go", 9, "float accumulation"},
		{"seedflow", "internal/lint/testdata/seedflow/gen/gen.go", 47, "rand.New"},
	})
}

// TestFindingsSortedAndOrderIndependent pins the output ordering contract:
// packages parse and check in parallel, so the runner's total (file, line,
// col, rule, message) sort is the only thing standing between pliant-lint
// and nondeterministic CI logs. Linting the same packages in reversed
// argument order must produce byte-identical findings, and the findings
// must actually be sorted.
func TestFindingsSortedAndOrderIndependent(t *testing.T) {
	fwd := lintDirs(t, positionDirs...)
	rev := make([]string, len(positionDirs))
	for i, d := range positionDirs {
		rev[len(positionDirs)-1-i] = d
	}
	bwd := lintDirs(t, rev...)
	if !reflect.DeepEqual(fwd, bwd) {
		t.Fatalf("findings depend on package argument order:\nforward:  %v\nbackward: %v", fwd, bwd)
	}
	for i := 1; i < len(fwd); i++ {
		a, b := fwd[i-1], fwd[i]
		if a.File > b.File ||
			(a.File == b.File && a.Line > b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Col > b.Col) ||
			(a.File == b.File && a.Line == b.Line && a.Col == b.Col && a.Rule > b.Rule) {
			t.Fatalf("findings not sorted by (file, line, col, rule): %v before %v", a, b)
		}
	}
	if len(fwd) == 0 {
		t.Fatal("fixture set produced no findings; the ordering pin is vacuous")
	}
}

// TestDefaultRuleCatalog pins the suite's composition and order.
func TestDefaultRuleCatalog(t *testing.T) {
	want := []string{
		"wallclock", "unseededrand", "maporder", "spawn", "seedflow",
	}
	rules := lint.DefaultRules()
	if len(rules) != len(want) {
		t.Fatalf("DefaultRules has %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r.Name() != want[i] {
			t.Errorf("DefaultRules[%d] = %s, want %s", i, r.Name(), want[i])
		}
	}
}

// TestDiagnosticFormat pins the rendered diagnostic shape the CLI and CI
// logs rely on.
func TestDiagnosticFormat(t *testing.T) {
	d := lint.Diagnostic{File: "internal/sim/engine.go", Line: 7, Col: 3,
		Rule: "wallclock", Message: "boom"}
	if got, want := d.String(), "internal/sim/engine.go:7: [wallclock] boom"; got != want {
		t.Fatalf("Diagnostic.String() = %q, want %q", got, want)
	}
}

// TestRuleScoping pins which import paths each rule patrols: internal-only,
// and for wallclock/maporder only the deterministic package set — the
// CLIs' own wall clocks (pliant-bench timings) must stay legal.
func TestRuleScoping(t *testing.T) {
	const mod = "github.com/approx-sched/pliant"
	byName := make(map[string]lint.Rule)
	for _, r := range lint.DefaultRules() {
		byName[r.Name()] = r
	}
	cases := []struct {
		rule string
		path string
		want bool
	}{
		{"wallclock", mod + "/internal/sim", true},
		{"wallclock", mod + "/internal/serve", true},
		{"wallclock", mod + "/internal/stats", false},
		{"wallclock", mod + "/cmd/pliant-bench", false},
		{"wallclock", mod + "/examples/quickstart", false},
		{"unseededrand", mod + "/internal/stats", true},
		{"unseededrand", mod + "/cmd/pliant-run", false},
		{"maporder", mod + "/internal/export", true},
		{"maporder", mod + "/internal/obs", true},
		{"maporder", mod + "/internal/app", false},
		{"maporder", mod + "/internal/stats", false},
		{"spawn", mod + "/internal/cluster", true},
		{"spawn", mod + "/cmd/pliant-served", false},
		{"seedflow", mod + "/internal/fault", true},
		{"seedflow", mod + "/cmd/pliant-run", false},
		{"seedflow", mod + "/internal/sched", true},
		{"seedflow", mod + "/examples/quickstart", false},
	}
	for _, c := range cases {
		r, ok := byName[c.rule]
		if !ok {
			t.Fatalf("rule %s missing from DefaultRules", c.rule)
		}
		if got := r.Applies(c.path); got != c.want {
			t.Errorf("%s.Applies(%s) = %v, want %v", c.rule, c.path, got, c.want)
		}
	}
}

// TestLintSelfCheck runs the full suite over the real repo and asserts the
// committed tree is lint-clean: the linter gates every future PR, and a
// new violation (or a suppression losing its reason) fails here before it
// reaches CI's dedicated lint job.
func TestLintSelfCheck(t *testing.T) {
	l := getLoader(t)
	dirs, err := l.Walk(l.Root)
	if err != nil {
		t.Fatal(err)
	}
	diags := lintDirs(t, dirs...)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("committed tree has %d lint finding(s); fix them or add a reasoned //pliant:allow", len(diags))
	}
}
