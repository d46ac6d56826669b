package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// randConstructors are the generator entry points whose argument IS the
// seed (directly, or through a Source built in place). rand.NewZipf and
// friends take an already-seeded *Rand, so they are not gated here.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

// ruleSeedflow proves seed provenance: every rand.New/rand.NewSource (and
// sim.NewRNG or RNG.Reseed) argument must derive from a Seed-named value — a
// config field, a parameter, or a seed-derivation call such as sim.Mix64
// over one.
// The tracking is an intra-procedural taint walk: seeds enter functions as
// "seed"-named fields and parameters (the repo's naming convention is the
// taint source), flow through arithmetic, conversions, and local
// assignments, and must reach the constructor argument. A literal or
// wall-clock-derived seed has no such derivation and is flagged — the class
// of bug PR 9's global-rand ban cannot see, because rand.New(rand.
// NewSource(42)) is a perfectly seeded generator with a perfectly
// irreproducible provenance story.
//
// Intra-procedural suffices because the repo's seed discipline is already
// funnel-shaped: cross-function seed flow happens through named helpers
// (episodeSeed, NodeSeed, seedFor, Mix64) whose names carry the taint, so a
// function-local walk sees either a seed-named value or a seed-named call
// at every constructor site.
type ruleSeedflow struct{}

func (ruleSeedflow) Name() string { return "seedflow" }

func (ruleSeedflow) Doc() string {
	return "every rand.New/rand.NewSource/sim.NewRNG/RNG.Reseed argument must derive " +
		"from a Seed-named config field, parameter, or seed-derivation call " +
		"(sim.Mix64 of one); literal and clock-derived seeds break replay"
}

func (ruleSeedflow) Applies(pkgPath string) bool {
	return hasSegment(pkgPath, "internal")
}

func (ruleSeedflow) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, isRand := p.randConstructor(f, call)
			if !isRand {
				return true
			}
			var enclosing ast.Node
			for i := len(stack) - 1; i >= 0 && enclosing == nil; i-- {
				switch stack[i].(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					enclosing = stack[i]
				}
			}
			for _, arg := range call.Args {
				if !p.seedTainted(f, enclosing, arg, 6) {
					out = append(out, p.diag("seedflow", call.Pos(),
						"%s seeded from %q, which has no seed provenance; "+
							"derive the value from a Seed-named config field or parameter (via sim.Mix64)",
						name, types.ExprString(arg)))
				}
			}
			return true
		})
	}
	return out
}

// randConstructor reports whether call constructs a seeded generator, and
// names it for the diagnostic: math/rand's New* family (v1 and v2),
// sim.NewRNG, whether package-qualified or called from inside sim itself,
// and the in-place RNG.Reseed.
func (p *Package) randConstructor(f *ast.File, call *ast.CallExpr) (string, bool) {
	switch fn := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn.Sel.Name == "Reseed" && p.isSimRNG(fn.X) {
			return "RNG.Reseed", true
		}
		x, ok := fn.X.(*ast.Ident)
		if !ok {
			return "", false
		}
		switch path := p.PkgQualifier(f, x); path {
		case "math/rand", "math/rand/v2":
			if randConstructors[fn.Sel.Name] {
				return x.Name + "." + fn.Sel.Name, true
			}
		default:
			if fn.Sel.Name == "NewRNG" && hasSegment(path, "sim") &&
				strings.HasPrefix(path, p.loader.Module+"/") {
				return x.Name + ".NewRNG", true
			}
		}
	case *ast.Ident:
		if fn.Name == "NewRNG" && hasSegment(p.Path, "sim") {
			return "NewRNG", true
		}
	}
	return "", false
}

// isSimRNG reports whether e is a sim.RNG or a pointer to one: the receiver
// of Reseed, the in-place form of sim.NewRNG.
func (p *Package) isSimRNG(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "RNG" || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return hasSegment(path, "sim") && strings.HasPrefix(path, p.loader.Module+"/")
}

// seedTainted reports whether e derives from a seed. Taint sources are
// values and callees whose names contain "seed" (the config fields,
// parameters, and derivation helpers of the repo's seed discipline); taint
// flows through arithmetic, conversions, indexing, nested rand-constructor
// calls, Mix64/Split-style mixers (any argument tainted suffices), and
// local assignments inside the enclosing function. depth bounds the
// assignment-chasing recursion.
func (p *Package) seedTainted(f *ast.File, enclosing ast.Node, e ast.Expr, depth int) bool {
	if depth <= 0 {
		return false
	}
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if nameHasSeed(e.Name) {
			return true
		}
		return p.localSeedTainted(f, enclosing, e, depth)
	case *ast.SelectorExpr:
		return nameHasSeed(e.Sel.Name) || p.seedTainted(f, enclosing, e.X, depth-1)
	case *ast.BinaryExpr:
		return p.seedTainted(f, enclosing, e.X, depth-1) ||
			p.seedTainted(f, enclosing, e.Y, depth-1)
	case *ast.UnaryExpr:
		return p.seedTainted(f, enclosing, e.X, depth-1)
	case *ast.StarExpr:
		return p.seedTainted(f, enclosing, e.X, depth-1)
	case *ast.IndexExpr:
		return p.seedTainted(f, enclosing, e.X, depth-1)
	case *ast.CallExpr:
		fun := unparen(e.Fun)
		// A conversion propagates the taint of its operand.
		if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && p.seedTainted(f, enclosing, e.Args[0], depth-1)
		}
		// Seed-derivation helpers taint by name; mixers and nested rand
		// constructors taint when any argument does.
		if name := calleeName(e); name != "" {
			if nameHasSeed(name) {
				return true
			}
			if name == "Mix64" || name == "Split" || randConstructors[name] {
				for _, arg := range e.Args {
					if p.seedTainted(f, enclosing, arg, depth-1) {
						return true
					}
				}
			}
		}
	}
	return false
}

func nameHasSeed(name string) bool {
	return strings.Contains(strings.ToLower(name), "seed")
}

// localSeedTainted chases a local identifier to its assignments inside the
// enclosing function: the variable is tainted if any value assigned to it
// is.
func (p *Package) localSeedTainted(f *ast.File, enclosing ast.Node, id *ast.Ident, depth int) bool {
	if enclosing == nil {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	tainted := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				lid, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				lobj := p.Info.Defs[lid]
				if lobj == nil {
					lobj = p.Info.Uses[lid]
				}
				if lobj == obj && p.seedTainted(f, enclosing, n.Rhs[i], depth-1) {
					tainted = true
					return false
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					continue
				}
				if p.Info.Defs[name] == obj && p.seedTainted(f, enclosing, n.Values[i], depth-1) {
					tainted = true
					return false
				}
			}
		}
		return true
	})
	return tainted
}
