package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// orderedSegments extends the virtual-time set with the packages whose
// bytes ARE the contract: the exporters and the obs emitters. A map-range
// feeding either is the classic "works on my machine, differs per process"
// reproducibility bug.
var orderedSegments = append([]string{"export", "obs"}, virtualTimeSegments...)

// emitPrefixes match callee names that move data toward an output: if one
// runs inside a map-range, map iteration order becomes output byte order.
var emitPrefixes = []string{"emit", "export", "write", "print", "fprint", "encode", "flush"}

// ruleMapOrder flags `range` over a map in deterministic packages when the
// loop body leaks iteration order into something ordered: appending to a
// slice, writing a slice element, accumulating a string or a float, or
// calling an emit/export/write function. Map iteration order is
// deliberately randomized per process, so any of these turns a pinned
// golden into a coin flip. Float accumulation is a sink like the others:
// float addition does not associate, so `sum += v` over a map produces
// different last bits from process to process.
//
// Two shapes stay legal because they are order-independent or are the
// sanctioned fix itself: writes keyed back into a map
// (m2[k] = append(m2[k], v) builds per-key state, not a sequence), and the
// canonical collect-then-sort idiom — a loop whose entire body appends only
// the key to a slice, in a function that also sorts. Integer sums stay
// legal too: integer addition associates.
type ruleMapOrder struct{}

func (ruleMapOrder) Name() string { return "maporder" }

func (ruleMapOrder) Doc() string {
	return "no range over a map that feeds ordered output (append, slice " +
		"write, string or float accumulation, emit/export calls) in " +
		"deterministic packages; collect keys and sort first"
}

func (ruleMapOrder) Applies(pkgPath string) bool {
	return hasSegment(pkgPath, "internal") &&
		hasAnySegment(pkgPath, orderedSegments)
}

func (ruleMapOrder) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !p.isMapType(rs.X) {
				return true
			}
			effect := p.orderEffect(rs)
			if effect == "" {
				return true
			}
			if isKeyCollection(rs) && sortsInEnclosingFunc(p, f, stack) {
				return true
			}
			out = append(out, p.diag("maporder", rs.Pos(),
				"range over map feeds ordered output (%s in the loop body); "+
					"map iteration order is randomized per process — collect keys, sort, then iterate",
				effect))
			return true
		})
	}
	return out
}

func (p *Package) isMapType(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// orderEffect scans the loop body for the first order-sensitive effect and
// names it for the diagnostic; "" means the body is order-clean.
func (p *Package) orderEffect(rs *ast.RangeStmt) string {
	var effect string
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && p.isSliceIndex(ix) {
					effect = "slice element write"
					return false
				}
				if n.Tok == token.ADD_ASSIGN && p.isStringExpr(lhs) {
					effect = "string accumulation"
					return false
				}
				if i < len(n.Rhs) && isAppendCall(n.Rhs[i]) && !p.isMapIndexExpr(lhs) {
					effect = "append"
					return false
				}
			}
			if acc, ok := p.floatAccumTarget(n); ok {
				effect = fmt.Sprintf("float accumulation into %q", types.ExprString(acc))
				return false
			}
		case *ast.CallExpr:
			if name := calleeName(n); name != "" {
				lower := strings.ToLower(name)
				for _, pre := range emitPrefixes {
					if strings.HasPrefix(lower, pre) {
						effect = "call to " + name
						return false
					}
				}
			}
		}
		return true
	})
	return effect
}

// floatAccumTarget reports whether as is a float accumulation — `x += e`,
// `x -= e`, or `x = x ± e` — returning the accumulator expression.
func (p *Package) floatAccumTarget(as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	lhs := as.Lhs[0]
	if !p.isFloatExpr(lhs) {
		return nil, false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		return lhs, true
	case token.ASSIGN:
		bin, ok := unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return nil, false
		}
		want := types.ExprString(lhs)
		if types.ExprString(unparen(bin.X)) == want || types.ExprString(unparen(bin.Y)) == want {
			return lhs, true
		}
	}
	return nil, false
}

func (p *Package) isFloatExpr(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func (p *Package) isSliceIndex(ix *ast.IndexExpr) bool {
	t := p.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func (p *Package) isMapIndexExpr(e ast.Expr) bool {
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	t := p.TypeOf(ix.X)
	if t == nil {
		return false
	}
	_, ok = t.Underlying().(*types.Map)
	return ok
}

func (p *Package) isStringExpr(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isAppendCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "append"
}

func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isKeyCollection reports whether the loop body is exactly the canonical
// key harvest: one statement appending only the range key to a slice.
func isKeyCollection(rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isAppendCall(as.Rhs[0]) {
		return false
	}
	call := as.Rhs[0].(*ast.CallExpr)
	if len(call.Args) != 2 || call.Ellipsis != token.NoPos && call.Ellipsis.IsValid() {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

// sortsInEnclosingFunc reports whether the function enclosing the node at
// the top of stack also calls into sort/slices (or anything named *sort*),
// which sanctions the collect-then-sort idiom.
func sortsInEnclosingFunc(p *Package, f *ast.File, stack []ast.Node) bool {
	var fn ast.Node
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn = stack[i]
		}
		if fn != nil {
			break
		}
	}
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok {
				switch p.PkgQualifier(f, x) {
				case "sort", "slices":
					found = true
					return false
				}
			}
		}
		if name := calleeName(call); strings.Contains(strings.ToLower(name), "sort") {
			found = true
			return false
		}
		return true
	})
	return found
}
