package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the dataflow half of the analyzer: a two-phase fact engine.
//
// Phase 1 computes, per package and in parallel, a FuncFact for every
// function declaration and function literal: its static call edges, the
// interface methods it invokes, the goroutines it launches, the function
// values it references, and whether it carries a //pliant:hotpath
// annotation. Facts are pure per-package data — no rule logic — so they are
// computed once and shared by every rule that needs them.
//
// Phase 2 propagates one cross-package property over the fact cache: the
// shard-parallel set, the functions that can execute on a goroutine sharing
// a live run with other goroutines. Roots are the call targets of `go`
// statements, excluding the run-exclusive spawn sites (the serving layer's
// session pump and SSE writers, and the experiment runner's workers), where
// each goroutine owns its entire object graph and races with nothing. From
// the roots the set closes over:
//
//   - static call edges (module-internal only);
//   - `go` statements and function literals inside parallel functions
//     (a literal born in a parallel context runs in it);
//   - referenced function values (a parallel function holding tel.Observe
//     as a callback will invoke it in-context);
//   - interface dispatch, by method name: when a parallel function invokes
//     a method through an interface value, every module method with that
//     name joins the set (this is how sim.Engine.Run's h.OnEvent dispatch
//     inside a shard's episodes reaches service.Instance.OnEvent and
//     client.Generator.OnEvent);
//   - higher-order calls: when a function's func-typed parameter is invoked
//     from a parallel context, the function values passed as arguments at
//     its call sites join the set. experiments.Profile.forEach has this
//     shape: its workers invoke the fn parameter, so were its spawn a root,
//     the closures handed to it would be classified without forEach itself
//     being parallel — its sequential workers<=1 fallback stays serial.
//
// The closure is an over-approximation by construction: it can classify a
// serial caller of a dual-use function as parallel, never the reverse.
// Rules that consume it therefore only flag operations that are unsafe
// *if* the function runs in parallel, and every flag can carry a reasoned
// //pliant:allow.

// runExclusiveSpawnFiles are the sanctioned `go` statements whose goroutines
// exclusively own everything they touch: one session pump per serve session
// (the pump owns its Runner), one SSE writer per subscriber, one experiment
// per worker. They are excluded from the shard-parallel roots; the remaining
// spawn sites — the shard runtime and the cluster node fan-out — share one
// live run across goroutines.
var runExclusiveSpawnFiles = map[string]bool{
	"internal/serve/session.go":       true,
	"internal/serve/sse.go":           true,
	"internal/experiments/profile.go": true,
}

// hotpathDirective is the annotation marking a function as a proven
// zero-allocation path; the hotpathalloc rule gates its body and the CLI
// reports the annotated set.
const hotpathDirective = "pliant:hotpath"

// FuncFact is the per-function unit of the fact cache.
type FuncFact struct {
	// Key identifies the function across packages:
	// "pkgpath.Func", "pkgpath.Type.Method", or "parentKey$N" for the N-th
	// function literal inside parent (lexical order).
	Key  string
	File string // module-relative
	Line int

	// Hotpath marks a //pliant:hotpath annotation on the declaration.
	Hotpath bool
	// IsMethod marks declarations with a receiver.
	IsMethod bool

	// Calls lists statically resolved module-internal callees.
	Calls []string
	// IfaceCalls lists method names invoked through interface values.
	IfaceCalls []string
	// Spawns lists call targets of `go` statements in this function.
	Spawns []string
	// Refs lists module-internal functions referenced as values (callbacks,
	// method values, literals handed to unresolved callees) rather than
	// called directly.
	Refs []string
	// Lits lists the keys of function literals declared in this function.
	Lits []string
	// InvokesParamsOf lists keys of declarations whose func-typed
	// parameters this function invokes (its own key, or — for a literal
	// calling a captured parameter — the enclosing declaration's).
	InvokesParamsOf []string

	body   ast.Node
	file   *ast.File
	pkg    *Package
	parent *FuncFact // enclosing function for literals, nil for decls

	recvObj   types.Object
	paramObjs map[types.Object]bool
}

// PackageFacts is phase 1's output for one package.
type PackageFacts struct {
	Path  string
	Funcs map[string]*FuncFact

	// argEdges are (callee key, function-valued argument key) pairs seen at
	// call sites in this package; the FactSet merges them globally.
	argEdges [][2]string
}

// FactSet is the cross-package fact cache plus the propagated
// shard-parallel classification.
type FactSet struct {
	byPkg map[string]*PackageFacts
	funcs map[string]*FuncFact

	// methodIndex maps a method name to every module method bearing it —
	// the interface-dispatch approximation.
	methodIndex map[string][]string

	// argEdges maps a declaration key to the function-valued argument keys
	// passed at its call sites anywhere in the loaded set.
	argEdges map[string][]string

	parallel map[string]bool
	roots    []string

	// crossSpawn marks keys whose body executes on a different goroutine
	// than their lexical parent: `go` statement targets, and function
	// values handed to higher-order invokers (which may run them from any
	// worker). A literal that is parallel but NOT in this set merely
	// inherited the classification from its enclosing function — it runs
	// synchronously on the parent's goroutine, so its captures are
	// frame-private.
	crossSpawn map[string]bool
}

// ComputeFacts runs phase 1 over pkgs in parallel and phase 2's
// propagation, returning the complete fact set.
func ComputeFacts(pkgs []*Package) *FactSet {
	fs := &FactSet{
		byPkg:       make(map[string]*PackageFacts, len(pkgs)),
		funcs:       make(map[string]*FuncFact),
		methodIndex: make(map[string][]string),
		argEdges:    make(map[string][]string),
		parallel:    make(map[string]bool),
		crossSpawn:  make(map[string]bool),
	}
	results := make([]*PackageFacts, len(pkgs))
	var wg sync.WaitGroup
	for i, p := range pkgs {
		wg.Add(1)
		//pliant:allow spawn — analyzer fan-out: per-package facts land in disjoint slots and merge after the wait
		go func(i int, p *Package) {
			defer wg.Done()
			results[i] = computePackageFacts(p)
		}(i, p)
	}
	wg.Wait()
	for _, pf := range results {
		fs.byPkg[pf.Path] = pf
	}
	fs.index()
	fs.propagate()
	return fs
}

// Pkg returns the facts for one package path, or nil.
func (fs *FactSet) Pkg(path string) *PackageFacts { return fs.byPkg[path] }

// IsParallel reports whether key is in the shard-parallel set.
func (fs *FactSet) IsParallel(key string) bool { return fs.parallel[key] }

// CrossesSpawn reports whether key's body runs on a different goroutine
// than its lexical parent (it is a `go` target or a higher-order argument).
func (fs *FactSet) CrossesSpawn(key string) bool { return fs.crossSpawn[key] }

// Hotpaths returns the sorted keys of every //pliant:hotpath-annotated
// function in the loaded set.
func (fs *FactSet) Hotpaths() []string {
	out := []string{} // never nil: -json renders an empty set as [], not null
	for k, ff := range fs.funcs {
		if ff.Hotpath {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ParallelFuncs returns the sorted shard-parallel set restricted to
// functions the loaded set declares (external keys from unresolved edges
// are dropped).
func (fs *FactSet) ParallelFuncs() []string {
	var out []string
	for k := range fs.funcs {
		if fs.parallel[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// index merges per-package facts into the global tables and collects the
// shard-parallel roots, in sorted package order for determinism.
func (fs *FactSet) index() {
	paths := make([]string, 0, len(fs.byPkg))
	for path := range fs.byPkg {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pf := fs.byPkg[path]
		for _, e := range pf.argEdges {
			fs.argEdges[e[0]] = append(fs.argEdges[e[0]], e[1])
		}
		keys := make([]string, 0, len(pf.Funcs))
		for k := range pf.Funcs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ff := pf.Funcs[k]
			fs.funcs[k] = ff
			if ff.IsMethod {
				name := k[strings.LastIndex(k, ".")+1:]
				fs.methodIndex[name] = append(fs.methodIndex[name], k)
			}
			for _, s := range ff.Spawns {
				fs.crossSpawn[s] = true
			}
			if !runExclusiveSpawnFiles[ff.File] {
				fs.roots = append(fs.roots, ff.Spawns...)
			}
		}
	}
}

// propagate closes the shard-parallel set over the edge kinds described in
// the file comment, iterating the higher-order argument edges to a
// fixpoint.
func (fs *FactSet) propagate() {
	fs.mark(fs.roots...)
	for changed := true; changed; {
		changed = false
		for k, ff := range fs.funcs {
			if !fs.parallel[k] {
				continue
			}
			for _, decl := range ff.InvokesParamsOf {
				for _, arg := range fs.argEdges[decl] {
					// The invoker may run the argument from any of its
					// worker goroutines, so the argument crosses a spawn
					// boundary even without a lexical `go` statement.
					fs.crossSpawn[arg] = true
					if !fs.parallel[arg] {
						fs.mark(arg)
						changed = true
					}
				}
			}
		}
	}
}

// mark adds keys and their first-order closure to the parallel set.
func (fs *FactSet) mark(keys ...string) {
	queue := append([]string(nil), keys...)
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if fs.parallel[k] {
			continue
		}
		fs.parallel[k] = true
		ff := fs.funcs[k]
		if ff == nil {
			continue // external or unresolved: no body to expand
		}
		queue = append(queue, ff.Calls...)
		queue = append(queue, ff.Spawns...)
		queue = append(queue, ff.Refs...)
		queue = append(queue, ff.Lits...)
		for _, m := range ff.IfaceCalls {
			queue = append(queue, fs.methodIndex[m]...)
		}
	}
}

// DebugDump renders the fact cache deterministically: packages and function
// keys sorted, one line per function with its classification and edges.
func (fs *FactSet) DebugDump(w io.Writer) {
	paths := make([]string, 0, len(fs.byPkg))
	for path := range fs.byPkg {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		pf := fs.byPkg[path]
		fmt.Fprintf(w, "package %s\n", path)
		keys := make([]string, 0, len(pf.Funcs))
		for k := range pf.Funcs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ff := pf.Funcs[k]
			var marks []string
			if ff.Hotpath {
				marks = append(marks, "hotpath")
			}
			if fs.parallel[k] {
				marks = append(marks, "parallel")
			}
			fmt.Fprintf(w, "  %s", k)
			if len(marks) > 0 {
				fmt.Fprintf(w, " [%s]", strings.Join(marks, ","))
			}
			fmt.Fprintln(w)
			dumpEdges(w, "calls", ff.Calls)
			dumpEdges(w, "iface", ff.IfaceCalls)
			dumpEdges(w, "spawns", ff.Spawns)
			dumpEdges(w, "refs", ff.Refs)
		}
	}
}

func dumpEdges(w io.Writer, label string, edges []string) {
	if len(edges) == 0 {
		return
	}
	sorted := append([]string(nil), edges...)
	sort.Strings(sorted)
	fmt.Fprintf(w, "    %s: %s\n", label, strings.Join(sorted, " "))
}

// ---------------------------------------------------------------------------
// Phase 1: per-package fact computation.

// factsCollector accumulates one package's facts. Its scratch lives in
// depth-1 fields of the collector itself — ComputeFacts runs one collector
// per package goroutine, and the shard ownership discipline this analyzer
// enforces (sharedstate) applies to its own fan-out: each goroutine
// mutates only its collector and publishes a PackageFacts once, into a
// disjoint slot, at the end.
type factsCollector struct {
	p        *Package
	funcs    map[string]*FuncFact
	argEdges [][2]string
}

func computePackageFacts(p *Package) *PackageFacts {
	c := &factsCollector{p: p, funcs: make(map[string]*FuncFact)}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ff := c.newDeclFact(f, fd)
			c.walk(ff, fd.Body)
		}
	}
	return &PackageFacts{Path: p.Path, Funcs: c.funcs, argEdges: c.argEdges}
}

// declKey derives the cross-package key of a declared function.
func (c *factsCollector) declKey(fd *ast.FuncDecl) string {
	if fn, ok := c.p.Info.Defs[fd.Name].(*types.Func); ok {
		if k := typeFuncKey(fn); k != "" {
			return k
		}
	}
	// Syntactic fallback for partially checked files.
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return c.p.Path + "." + recvTypeName(fd.Recv.List[0].Type) + "." + fd.Name.Name
	}
	return c.p.Path + "." + fd.Name.Name
}

// typeFuncKey renders a *types.Func as "pkgpath.Func" or
// "pkgpath.Type.Method"; "" for functions without a package (builtins).
func typeFuncKey(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

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

func (c *factsCollector) newDeclFact(f *ast.File, fd *ast.FuncDecl) *FuncFact {
	file, line, _ := c.p.RelFile(fd.Pos())
	ff := &FuncFact{
		Key:       c.declKey(fd),
		File:      file,
		Line:      line,
		Hotpath:   hasHotpathDirective(fd.Doc),
		IsMethod:  fd.Recv != nil,
		body:      fd.Body,
		file:      f,
		pkg:       c.p,
		paramObjs: make(map[types.Object]bool),
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		ff.recvObj = c.p.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	collectParamObjs(c.p, fd.Type, ff.paramObjs)
	c.funcs[ff.Key] = ff
	return ff
}

func (c *factsCollector) newLitFact(parent *FuncFact, lit *ast.FuncLit) *FuncFact {
	file, line, _ := c.p.RelFile(lit.Pos())
	ff := &FuncFact{
		Key:       parent.Key + "$" + strconv.Itoa(len(parent.Lits)+1),
		File:      file,
		Line:      line,
		body:      lit.Body,
		file:      parent.file,
		pkg:       c.p,
		parent:    parent,
		paramObjs: make(map[types.Object]bool),
	}
	collectParamObjs(c.p, lit.Type, ff.paramObjs)
	parent.Lits = append(parent.Lits, ff.Key)
	c.funcs[ff.Key] = ff
	return ff
}

func collectParamObjs(p *Package, ft *ast.FuncType, into map[types.Object]bool) {
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj, ok := p.Info.Defs[name]; ok {
					into[obj] = true
				}
			}
		}
	}
	add(ft.Params)
	add(ft.Results)
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

// unparen strips parentheses. (ast.Unparen postdates this module's language
// version.)
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// walk collects ff's edges from body. Function literals get their own facts
// and are walked separately — their edges belong to them, not to ff.
func (c *factsCollector) walk(ff *FuncFact, body ast.Node) {
	goCalls := make(map[*ast.CallExpr]bool)
	funExprs := make(map[ast.Expr]bool)
	litFacts := make(map[*ast.FuncLit]*FuncFact)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lf, ok := litFacts[n]
			if !ok {
				lf = c.newLitFact(ff, n)
			}
			c.walk(lf, n.Body)
			return false
		case *ast.GoStmt:
			goCalls[n.Call] = true
			return true
		case *ast.CallExpr:
			c.call(ff, n, goCalls[n], funExprs, litFacts)
			return true
		case *ast.SelectorExpr:
			if !funExprs[n] && !funExprs[ast.Expr(n.Sel)] {
				if key := c.funcValueKey(n.Sel); key != "" {
					ff.Refs = append(ff.Refs, key)
				}
			}
			funExprs[ast.Expr(n.Sel)] = true
			return true
		case *ast.Ident:
			if !funExprs[n] {
				if key := c.funcValueKey(n); key != "" {
					ff.Refs = append(ff.Refs, key)
				}
			}
			return true
		}
		return true
	})
}

// call records one call expression's edges on ff.
func (c *factsCollector) call(ff *FuncFact, call *ast.CallExpr, isGo bool, funExprs map[ast.Expr]bool, litFacts map[*ast.FuncLit]*FuncFact) {
	record := func(key string) {
		if key == "" {
			return
		}
		if isGo {
			ff.Spawns = append(ff.Spawns, key)
		} else {
			ff.Calls = append(ff.Calls, key)
		}
	}

	fun := unparen(call.Fun)
	funExprs[fun] = true
	calleeKey := ""
	switch fn := fun.(type) {
	case *ast.FuncLit:
		lf := c.newLitFact(ff, fn)
		litFacts[fn] = lf
		record(lf.Key)
	case *ast.Ident:
		switch obj := c.p.Info.Uses[fn].(type) {
		case *types.Func:
			calleeKey = moduleKey(c.p, obj)
			record(calleeKey)
		case *types.Var:
			// Invoking a variable of function type: if it is a parameter of
			// this function or an enclosing one, argument edges at the
			// declaring function's call sites feed this invocation.
			if _, ok := obj.Type().Underlying().(*types.Signature); ok {
				for f := ff; f != nil; f = f.parent {
					if f.paramObjs[obj] {
						ff.InvokesParamsOf = append(ff.InvokesParamsOf, f.Key)
						break
					}
				}
			}
		}
	case *ast.SelectorExpr:
		funExprs[ast.Expr(fn.Sel)] = true
		if sel, ok := c.p.Info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				ff.IfaceCalls = append(ff.IfaceCalls, fn.Sel.Name)
			} else if fn2, ok := sel.Obj().(*types.Func); ok {
				calleeKey = moduleKey(c.p, fn2)
				record(calleeKey)
			}
		} else if fn2, ok := c.p.Info.Uses[fn.Sel].(*types.Func); ok {
			calleeKey = moduleKey(c.p, fn2)
			record(calleeKey)
		}
	}

	// Function-valued arguments become propagation edges at the callee (or
	// plain refs of this function when the callee is unresolved).
	for _, arg := range call.Args {
		switch a := unparen(arg).(type) {
		case *ast.FuncLit:
			lf := c.newLitFact(ff, a)
			litFacts[a] = lf
			if calleeKey != "" {
				c.argEdges = append(c.argEdges, [2]string{calleeKey, lf.Key})
			} else {
				ff.Refs = append(ff.Refs, lf.Key)
			}
		case *ast.Ident:
			if key := c.funcValueKey(a); key != "" && calleeKey != "" {
				c.argEdges = append(c.argEdges, [2]string{calleeKey, key})
			}
		case *ast.SelectorExpr:
			if key := c.funcValueKey(a.Sel); key != "" && calleeKey != "" {
				c.argEdges = append(c.argEdges, [2]string{calleeKey, key})
			}
		}
	}
}

// funcValueKey resolves an identifier used as a value to a module-internal
// function key, or "".
func (c *factsCollector) funcValueKey(id *ast.Ident) string {
	if fn, ok := c.p.Info.Uses[id].(*types.Func); ok {
		return moduleKey(c.p, fn)
	}
	return ""
}

// moduleKey returns fn's key when it belongs to this module, else "".
func moduleKey(p *Package, fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	mod := p.loader.Module
	if pkg.Path() != mod && !strings.HasPrefix(pkg.Path(), mod+"/") {
		return ""
	}
	return typeFuncKey(fn)
}
