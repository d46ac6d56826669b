// Command pliant-lint runs the repo's determinism and hot-path invariant
// analyzers (internal/lint) over Go packages and reports violations as
// "file:line: [rule] message" lines (paths relative to the module root).
//
// The suite enforces the reproducibility contract as a source property,
// one package at a time: no wall-clock reads in virtual-time packages
// (wallclock), no global math/rand in internal/ (unseededrand), no
// map-iteration order leaking into ordered output or float sums
// (maporder), no goroutines outside the sanctioned concurrency files
// (spawn), every RNG seed derived from a Seed-named value (seedflow), and
// no allocation-forcing constructs in //pliant:hotpath functions
// (hotpathalloc). Shard-state ownership is the race detector's job, not
// this tool's. Findings are suppressed in place with reasoned
// "//pliant:allow <rule> — reason" comments; an allow naming a rule that is
// not in the catalog is itself a finding.
//
// Usage:
//
//	pliant-lint ./...                        # whole module (testdata skipped)
//	pliant-lint ./internal/sched ./internal/sim
//	pliant-lint -rules seedflow,hotpathalloc ./...
//	pliant-lint -json ./... > lint.json      # sorted diagnostics + hotpath set
//	pliant-lint -catalog                     # print the rule catalog
//
// Exit status: 0 clean, 1 diagnostics found, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	pliant "github.com/approx-sched/pliant"
	"github.com/approx-sched/pliant/internal/lint"
)

func main() {
	var (
		jsonOut     = flag.Bool("json", false, "emit diagnostics as JSON")
		ruleList    = flag.String("rules", "", "comma-separated rule names to run (default: all)")
		catalog     = flag.Bool("catalog", false, "print the rule catalog and exit")
		showVersion = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(pliant.Version())
		return
	}
	rules := lint.DefaultRules()
	if *catalog {
		for _, r := range rules {
			fmt.Printf("%-14s %s\n", r.Name(), r.Doc())
		}
		return
	}
	if *ruleList != "" {
		var err error
		rules, err = selectRules(rules, *ruleList)
		if err != nil {
			fatal(err)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var dirs []string
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if base == "" || base == "." {
				base = cwd
			}
			sub, err := loader.Walk(base)
			if err != nil {
				fatal(err)
			}
			dirs = append(dirs, sub...)
			continue
		}
		dirs = append(dirs, pat)
	}

	pkgs, err := loader.LoadAll(dirs)
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(pkgs, rules)
	if diags == nil {
		diags = []lint.Diagnostic{} // a clean tree renders as [], not null
	}
	if *jsonOut {
		names := make([]string, len(rules))
		for i, r := range rules {
			names[i] = r.Name()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Packages    int               `json:"packages"`
			Rules       []string          `json:"rules"`
			Hotpaths    []string          `json:"hotpaths"`
			Diagnostics []lint.Diagnostic `json:"diagnostics"`
		}{len(pkgs), names, lint.Hotpaths(pkgs), diags}); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
		if len(diags) > 0 {
			fmt.Fprintf(os.Stderr, "pliant-lint: %d finding(s) in %d package(s)\n",
				len(diags), len(pkgs))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// selectRules filters the catalog down to a comma-separated name list,
// preserving catalog order and rejecting unknown names.
func selectRules(all []lint.Rule, csv string) ([]lint.Rule, error) {
	byName := make(map[string]lint.Rule, len(all))
	for _, r := range all {
		byName[r.Name()] = r
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("unknown rule %q (see -catalog)", name)
		}
		want[name] = true
	}
	var out []lint.Rule
	for _, r := range all {
		if want[r.Name()] {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rules %q selects no rules", csv)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pliant-lint:", err)
	os.Exit(2)
}
