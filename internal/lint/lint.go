// Package lint is the repo's determinism invariant analyzer.
//
// Every headline result in this repo rests on one contract: scheduler runs
// are byte-identical across shard counts, with obs on or off, under fault
// injection, and daemon-vs-batch. The golden tests enforce that contract
// after the fact; this package enforces it as a machine-checked source
// property, so one stray time.Now, unseeded math/rand call, or map-order
// leak fails the build instead of a bisect session.
//
// The engine is stdlib-only — go/parser for syntax, go/types for name
// resolution, and go/importer's source importer (with graceful fallbacks)
// for stdlib type information — so the module stays dependency-free and the
// linter runs anywhere the toolchain does. Rules scope themselves by import
// path (see Rule.Applies); diagnostics render as "file:line: [rule]
// message" with paths relative to the module root.
//
// Analysis is one phase: every rule sees one package at a time. Packages
// are checked concurrently and findings land in per-package slots, so one
// total sort at the end makes output order independent of both walk and
// scheduling order. Shard-state ownership is deliberately not a lint
// property: the race detector over the short suite and the sharded goldens
// catches every planted ownership bug (DESIGN.md §17). Nor is allocation:
// each zero-allocation path is pinned by a test that counts the total
// allocations of a batch of calls, which sees amortized growth as well.
//
// A finding can be suppressed in place with a reasoned comment:
//
//	t0 = time.Now() //pliant:allow wallclock — profiler measures real runtime
//
// The comment suppresses diagnostics of the named rule on its own line and
// on the line directly below (so it can stand alone above a statement). A
// suppression without a reason is itself a diagnostic: unexplained escape
// hatches are how invariants rot.
package lint

import (
	"fmt"
	"sort"
	"sync"
)

// Diagnostic is one rule finding at a source position. File is relative to
// the module root (slash-separated), so diagnostics are stable across
// machines and usable as golden values in tests.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// String renders the canonical "file:line: [rule] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Message)
}

// Rule is one invariant analyzer. Check receives a loaded, type-checked
// package and returns raw findings; the runner handles scoping, suppression,
// and ordering.
type Rule interface {
	// Name is the short identifier used in diagnostics and in
	// //pliant:allow comments.
	Name() string
	// Doc is a one-paragraph description of the invariant, for -catalog.
	Doc() string
	// Applies reports whether the rule is in scope for a package import
	// path. Out-of-scope packages are not checked at all.
	Applies(pkgPath string) bool
	// Check analyzes one package and returns its findings.
	Check(p *Package) []Diagnostic
}

// DefaultRules returns the full analyzer suite in catalog order.
func DefaultRules() []Rule {
	return []Rule{
		ruleWallclock{},
		ruleUnseededRand{},
		ruleMapOrder{},
		ruleSpawn{},
		ruleSeedflow{},
	}
}

// Run applies rules to every package, drops findings suppressed by
// //pliant:allow comments, adds diagnostics for malformed or stale
// suppression comments, and returns the remainder sorted by file, line,
// column, rule. Packages are checked concurrently; the total sort makes the
// output independent of scheduling order.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	var wg sync.WaitGroup
	for i, p := range pkgs {
		wg.Add(1)
		//pliant:allow spawn — analyzer fan-out: per-package findings land in disjoint slots and merge after the wait
		go func(i int, p *Package) {
			defer wg.Done()
			perPkg[i] = checkPackage(p, rules)
		}(i, p)
	}
	wg.Wait()

	var out []Diagnostic
	for _, diags := range perPkg {
		out = append(out, diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// checkPackage runs every in-scope rule over one package and filters its
// findings through the package's //pliant:allow comments.
func checkPackage(p *Package, rules []Rule) []Diagnostic {
	var out []Diagnostic
	allows := collectAllows(p)
	for _, a := range allows {
		if a.Malformed != "" {
			out = append(out, Diagnostic{
				File: a.File, Line: a.Line, Col: a.Col,
				Rule:    "allow",
				Message: a.Malformed,
			})
			continue
		}
		for _, name := range a.Rules {
			if !inCatalog(name) {
				out = append(out, Diagnostic{
					File: a.File, Line: a.Line, Col: a.Col,
					Rule: "allow",
					Message: fmt.Sprintf("pliant:allow names %q, which is not a rule in the catalog; "+
						"a stale suppression guards nothing — delete it (see -catalog)", name),
				})
			}
		}
	}
	for _, r := range rules {
		if !r.Applies(p.Path) {
			continue
		}
		for _, d := range r.Check(p) {
			if suppressed(allows, d) {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

// inCatalog reports whether name is a rule in DefaultRules. Allows are
// checked against the whole catalog, not the rules selected for this run,
// so a valid wallclock allow stays quiet under -rules seedflow.
func inCatalog(name string) bool {
	for _, r := range DefaultRules() {
		if r.Name() == name {
			return true
		}
	}
	return false
}
