package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package: the unit a Rule checks.
// Type-checking is best-effort — TypeErrs collects whatever go/types could
// not resolve and rules degrade gracefully — because a linter that refuses
// to run on imperfect input protects nothing.
type Package struct {
	Path  string // import path, e.g. github.com/approx-sched/pliant/internal/sim
	Dir   string // absolute directory
	Name  string // package name from source
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by filename
	Info  *types.Info
	Pkg   *types.Package // may be incomplete if imports failed
	// TypeErrs records type-check problems. They are advisory: rules that
	// need type information fall back to syntactic resolution where safe.
	TypeErrs []error

	loader *Loader
}

// Loader parses and type-checks packages of one module. Stdlib imports
// resolve through go/importer's source importer (reads GOROOT/src, present
// with every toolchain), falling back to the compiler importer and finally
// to an empty stub package — so environment quirks degrade type fidelity
// instead of failing the lint run. Intra-module imports resolve recursively
// through the loader itself, giving rules real types for the repo's own
// declarations.
type Loader struct {
	Root   string // absolute module root (directory containing go.mod)
	Module string // module path from go.mod

	fset    *token.FileSet
	pkgs    map[string]*Package // by import path
	stdSrc  types.Importer
	stdBin  types.Importer
	stubs   map[string]*types.Package
	loading map[string]bool // cycle guard

	// parsed holds files pre-parsed by LoadAll's concurrent parse phase,
	// keyed by absolute path; loadPath consumes it before falling back to
	// parsing inline. Filled only between LoadAll's two phases, read only
	// from the sequential type-check phase.
	parsed    map[string]*ast.File
	parseErrs map[string]error
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// NewLoader creates a loader rooted at the module directory root, reading
// the module path from its go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:      abs,
		Module:    mod,
		fset:      fset,
		pkgs:      make(map[string]*Package),
		stdSrc:    importer.ForCompiler(fset, "source", nil),
		stdBin:    importer.Default(),
		stubs:     make(map[string]*types.Package),
		loading:   make(map[string]bool),
		parsed:    make(map[string]*ast.File),
		parseErrs: make(map[string]error),
	}, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Walk returns every package directory under base (inclusive) that contains
// at least one non-test Go file, in lexical order — the "./..." expansion.
// Like the go tool, it skips testdata, vendor, hidden, and underscore
// directories; explicit Load calls can still target those.
func (l *Loader) Walk(base string) ([]string, error) {
	abs, err := filepath.Abs(base)
	if err != nil {
		return nil, err
	}
	var dirs []string
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs {
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isLintedFile(e.Name()) {
			return true
		}
	}
	return false
}

// isLintedFile reports whether name is a non-test Go source file. Test
// files are exempt from the invariants: tests may legitimately use wall
// clocks for deadlines and the go tool never links them into the binaries
// whose determinism the rules protect.
func isLintedFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// LoadAll loads every directory in dirs: all source files parse concurrently
// first (token.FileSet is synchronized, and parsing dominates load time),
// then packages type-check sequentially in the given order so import
// resolution and diagnostics stay deterministic. The resulting package order
// matches dirs; finding order is nondeterministic only until Run's total
// sort.
func (l *Loader) LoadAll(dirs []string) ([]*Package, error) {
	var paths []string
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		ents, err := os.ReadDir(abs)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			if !e.IsDir() && isLintedFile(e.Name()) {
				paths = append(paths, filepath.Join(abs, e.Name()))
			}
		}
	}

	files := make([]*ast.File, len(paths))
	errs := make([]error, len(paths))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(paths) {
		workers = len(paths)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//pliant:allow spawn — parse fan-out: workers fill disjoint slots of files/errs and exit before the merge
		go func() {
			defer wg.Done()
			for i := range next {
				files[i], errs[i] = parser.ParseFile(l.fset, paths[i], nil, parser.ParseComments)
			}
		}()
	}
	for i := range paths {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, path := range paths {
		l.parsed[path] = files[i]
		l.parseErrs[path] = errs[i]
	}

	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		p, err := l.Load(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: load %s: %w", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load parses and type-checks the package in dir. Results are cached by
// import path, so loading a package that imports an already-loaded one is
// cheap and all packages share one FileSet.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	path := l.Module
	if rel != "." {
		path = l.Module + "/" + filepath.ToSlash(rel)
	}
	return l.loadPath(path, abs)
}

func (l *Loader) loadPath(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isLintedFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	sort.Strings(names)

	p := &Package{Path: path, Dir: dir, Fset: l.fset, loader: l}
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, pre := l.parsed[full]
		err := l.parseErrs[full]
		if !pre {
			f, err = parser.ParseFile(l.fset, full, nil, parser.ParseComments)
		}
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if p.Name == "" {
			p.Name = f.Name.Name
		}
		if f.Name.Name != p.Name {
			// Mixed package clauses in one directory: the go tool would
			// refuse; we lint the majority package and note the rest.
			p.TypeErrs = append(p.TypeErrs,
				fmt.Errorf("%s: package %s conflicts with %s", name, f.Name.Name, p.Name))
			continue
		}
		p.Files = append(p.Files, f)
	}

	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    (*loaderImporter)(l),
		FakeImportC: true,
		Error:       func(err error) { p.TypeErrs = append(p.TypeErrs, err) },
	}
	l.loading[path] = true
	p.Pkg, _ = conf.Check(path, l.fset, p.Files, p.Info) // errors collected above
	delete(l.loading, path)

	l.pkgs[path] = p
	return p, nil
}

// loaderImporter adapts the Loader to types.Importer: module-internal paths
// load recursively from source, everything else tries the stdlib source
// importer, then the compiler importer, then an empty stub.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		if l.loading[path] {
			return l.stub(path), nil // import cycle: let go/types report it
		}
		rel := strings.TrimPrefix(path, l.Module)
		rel = strings.TrimPrefix(rel, "/")
		p, err := l.loadPath(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return l.stub(path), nil
		}
		return p.Pkg, nil
	}
	if p, err := l.stdSrc.Import(path); err == nil && p != nil {
		return p, nil
	}
	if p, err := l.stdBin.Import(path); err == nil && p != nil {
		return p, nil
	}
	return l.stub(path), nil
}

// stub returns an empty, complete package so type-checking can proceed;
// every reference into it becomes a recorded type error rather than a halt.
func (l *Loader) stub(path string) *types.Package {
	if p, ok := l.stubs[path]; ok {
		return p
	}
	name := path[strings.LastIndex(path, "/")+1:]
	if strings.HasPrefix(name, "v") && len(name) > 1 && name[1] >= '0' && name[1] <= '9' {
		// math/rand/v2 and friends: the package name is the parent element.
		trimmed := path[:strings.LastIndex(path, "/")]
		name = trimmed[strings.LastIndex(trimmed, "/")+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	l.stubs[path] = p
	return p
}

// RelFile returns pos's file path relative to the module root,
// slash-separated, with the position's line and column.
func (p *Package) RelFile(pos token.Pos) (file string, line, col int) {
	ps := p.Fset.Position(pos)
	rel, err := filepath.Rel(p.loader.Root, ps.Filename)
	if err != nil {
		rel = ps.Filename
	}
	return filepath.ToSlash(rel), ps.Line, ps.Column
}

// diag builds a Diagnostic for rule at pos.
func (p *Package) diag(rule string, pos token.Pos, format string, args ...any) Diagnostic {
	file, line, col := p.RelFile(pos)
	return Diagnostic{
		File: file, Line: line, Col: col,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}

// PkgQualifier resolves ident as a package qualifier: if ident names an
// imported package in scope at its use, it returns that package's import
// path. Resolution is primarily through go/types (so locals shadowing a
// package name are never misread); if type information is missing for the
// identifier — a partially checked file — it falls back to the file's
// import table, which can only overmatch in the shadowing case type info
// would have caught.
func (p *Package) PkgQualifier(f *ast.File, ident *ast.Ident) string {
	if obj, ok := p.Info.Uses[ident]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // a variable, type, or function: not a package qualifier
	}
	// No type info at all for this identifier: syntactic fallback.
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == ident.Name {
			return path
		}
	}
	return ""
}

// TypeOf returns the static type of e, or nil when unknown.
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
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

// pathSegments splits an import path into its elements.
func pathSegments(path string) []string {
	return strings.Split(path, "/")
}

// hasSegment reports whether any element of path equals seg.
func hasSegment(path, seg string) bool {
	for _, s := range pathSegments(path) {
		if s == seg {
			return true
		}
	}
	return false
}

// hasAnySegment reports whether any element of path is in segs.
func hasAnySegment(path string, segs []string) bool {
	for _, s := range pathSegments(path) {
		for _, want := range segs {
			if s == want {
				return true
			}
		}
	}
	return false
}
