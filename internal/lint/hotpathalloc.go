package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ruleHotpathAlloc is the source-level half of the zero-allocation gate.
// Functions annotated //pliant:hotpath are the proven 0-alloc paths — the
// sim typed-event dispatch, the stats histogram Record, cluster.Telemetry.
// Observe, the energy accumulator, the service request path — each pinned
// at runtime by a testing.AllocsPerRun test. The pins cannot see amortized
// growth: AllocsPerRun divides total allocations by runs as integers, so a
// growing append that allocates 11 times over 1000 runs reads as 0 and the
// pin passes. This rule flags the allocation-forcing constructs themselves,
// at the line that introduces them, whether they allocate every call or
// once in a hundred:
//
//   - make/new and slice/map composite literals (always allocate when they
//     escape, and a hot path should not be constructing containers at all);
//   - composite literals with their address taken (&T{} escapes);
//   - append, unless in the explicit reuse form append(x[:0], ...) — any
//     other append may grow its backing array;
//   - string concatenation and string<->[]byte conversions;
//   - fmt.* calls (interface boxing allocates even when the verb doesn't);
//   - function literals (closures allocate their capture records).
//
// A construct the compiler provably keeps on the stack, or a cap-guarded
// append that never grows, can carry a reasoned //pliant:allow
// hotpathalloc. The pins and the rule cover each other: the pin catches
// per-call allocations the rule's grammar misses (escape through an
// interface, a callee that allocates), the rule catches amortized growth
// the pin truncates to zero.
type ruleHotpathAlloc struct{}

// hotpathDirective is the annotation marking a function as a proven
// zero-allocation path; the rule gates its body and Hotpaths reports the
// annotated set.
const hotpathDirective = "pliant:hotpath"

func (ruleHotpathAlloc) Name() string { return "hotpathalloc" }

func (ruleHotpathAlloc) Doc() string {
	return "functions annotated //pliant:hotpath must avoid allocation-" +
		"forcing constructs: make/new, escaping composite literals, " +
		"growing append, string concat, fmt calls, and closures"
}

func (ruleHotpathAlloc) Applies(pkgPath string) bool {
	return hasSegment(pkgPath, "internal")
}

func (ruleHotpathAlloc) Check(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpathDirective(fd.Doc) {
				continue
			}
			out = append(out, p.checkHotpathBody(f, fd)...)
		}
	}
	return out
}

// Hotpaths returns the sorted keys ("pkgpath.Func" or "pkgpath.Type.Method")
// of every //pliant:hotpath-annotated function in pkgs: the set the CLI's
// -json report publishes and CI asserts is non-empty.
func Hotpaths(pkgs []*Package) []string {
	out := []string{} // never nil: -json renders an empty set as [], not null
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasHotpathDirective(fd.Doc) {
					continue
				}
				key := p.Path + "."
				if fd.Recv != nil && len(fd.Recv.List) > 0 {
					key += recvTypeName(fd.Recv.List[0].Type) + "."
				}
				out = append(out, key+fd.Name.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// hasHotpathDirective reports whether the doc group carries
// //pliant:hotpath. Directive comments are read raw (CommentGroup.Text
// strips them).
func hasHotpathDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, cmt := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cmt.Text, "//"))
		if strings.HasPrefix(text, hotpathDirective) {
			return true
		}
	}
	return false
}

// recvTypeName names a method receiver's base type: T for T, *T, and T[P].
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(e.X)
	}
	return "?"
}

func (p *Package) checkHotpathBody(f *ast.File, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	name := fd.Name.Name
	flag := func(pos token.Pos, format string, args ...any) {
		args = append([]any{name}, args...)
		out = append(out, p.diag("hotpathalloc", pos, "hotpath %s "+format, args...))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			flag(n.Pos(), "contains a function literal; closures allocate their capture record")
			return false
		case *ast.CallExpr:
			p.checkHotpathCall(f, n, flag)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					flag(n.Pos(), "takes the address of a composite literal; &T{} escapes to the heap")
					return false // the literal itself is already covered
				}
			}
			return true
		case *ast.CompositeLit:
			if p.isSliceOrMapLit(n) {
				flag(n.Pos(), "builds a %s literal; container literals allocate", litKind(p, n))
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD && p.isStringExpr(n.X) {
				flag(n.Pos(), "concatenates strings; string + allocates the result")
			}
			return true
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && p.isStringExpr(n.Lhs[0]) {
				flag(n.Pos(), "accumulates a string with +=; string append allocates")
			}
			return true
		}
		return true
	})
	return out
}

// checkHotpathCall flags allocating call forms: builtins, fmt, conversions.
func (p *Package) checkHotpathCall(f *ast.File, call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	fun := unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		switch fn.Name {
		case "make":
			flag(call.Pos(), "calls make; hot paths must reuse preallocated buffers")
		case "new":
			flag(call.Pos(), "calls new; hot paths must reuse preallocated state")
		case "append":
			if !isReuseAppend(call) {
				flag(call.Pos(), "appends outside the append(x[:0], ...) reuse form; append may grow its backing array")
			}
		}
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok && p.PkgQualifier(f, x) == "fmt" {
			flag(call.Pos(), "calls fmt.%s; fmt boxes its operands into interfaces", fn.Sel.Name)
		}
	}
	// string <-> byte/rune slice conversions copy their operand.
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := p.TypeOf(fun), p.TypeOf(call.Args[0])
		if to != nil && from != nil && !types.Identical(to, from) &&
			(isStringType(to) && isByteSliceType(from) || isByteSliceType(to) && isStringType(from)) {
			flag(call.Pos(), "converts between string and byte slice; the conversion copies")
		}
	}
}

// isReuseAppend recognizes append(x[:0], ...): appending into an existing
// backing array from length zero, the sanctioned reuse idiom.
func isReuseAppend(call *ast.CallExpr) bool {
	if len(call.Args) < 1 {
		return false
	}
	se, ok := unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || se.Low != nil {
		return false
	}
	high, ok := se.High.(*ast.BasicLit)
	return ok && high.Value == "0"
}

func (p *Package) isSliceOrMapLit(cl *ast.CompositeLit) bool {
	t := p.TypeOf(cl)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func litKind(p *Package, cl *ast.CompositeLit) string {
	t := p.TypeOf(cl)
	if t == nil {
		return "container"
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "container"
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSliceType(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}
