package lint

import (
	"go/ast"
	"sort"
	"strings"
)

// spawnAllowedFiles are the module-relative files sanctioned to start
// goroutines. Each one sits behind a determinism discipline: the shard
// runtime merges at the window barrier in fixed order, the serving layer's
// session pump and SSE writers touch only the serial coordinator surface,
// and the experiment runner fans out independent simulations. A `go`
// statement anywhere else is concurrency without a merge discipline — the
// precise spot where nondeterminism enters.
var spawnAllowedFiles = map[string]bool{
	"internal/sched/shard.go":         true,
	"internal/serve/session.go":       true,
	"internal/serve/sse.go":           true,
	"internal/experiments/profile.go": true,
}

// ruleSpawn confines `go` statements to the allowlisted concurrency files.
type ruleSpawn struct{}

func (ruleSpawn) Name() string { return "spawn" }

func (ruleSpawn) Doc() string {
	return "go statements only in the sanctioned concurrency files (shard " +
		"runtime, session pump, SSE, experiment runner); new " +
		"goroutines need a merge discipline, not just a waitgroup"
}

func (ruleSpawn) Applies(pkgPath string) bool {
	return hasSegment(pkgPath, "internal")
}

func (ruleSpawn) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		file, _, _ := p.RelFile(f.Pos())
		if spawnAllowedFiles[file] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			out = append(out, p.diag("spawn", gs.Pos(),
				"go statement outside the sanctioned concurrency files (%s); "+
					"route the work through the shard runtime, or "+
					"annotate a deterministic fan-out with //pliant:allow",
				strings.Join(sortedAllowFiles(), ", ")))
			return true
		})
	}
	return out
}

// sortedAllowFiles lists spawnAllowedFiles in order, keeping the diagnostic
// stable.
func sortedAllowFiles() []string {
	files := make([]string, 0, len(spawnAllowedFiles))
	for f := range spawnAllowedFiles {
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}
