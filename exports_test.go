package perpos_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported identifiers under internal/ that nothing
// outside their own package's tests uses yet, each with the reason it
// stays exported.
var keptExports = map[string]string{
	"positioning.Provider.NotifyRoomChange": "the paper's PL API: JSR-179-style room-change notification",
	"runtime.Session.Adapt":                 "the PSL edit entry point: one application adapting its own live session",
	"cluster.Router.Move":                   "the handoff seam that TestMove*, CI's cluster-chaos job and BenchmarkClusterHandoff drive",
	"remote.Server.Errs":                    "reads the decode and inject errors of a remote peer's server",
}

// TestEveryExportHasACaller fails when an exported name declared in a
// non-test file under internal/ has no caller. Such a name is dead API,
// to delete, or test-only API, to unexport. keptExports lists the
// exceptions with their reasons. The scan type-checks the module, its
// commands and examples and the perfbench module, and resolves every
// use to the declaration it names, so a name that another declaration
// shares hides nothing. A package-level name or a method counts as
// called when a non-test file or another package's tests use it; a
// method also counts when its receiver implements an interface that has
// the method. An exported field of a named struct type counts only when
// a non-test file reads or writes it.
func TestEveryExportHasACaller(t *testing.T) {
	unused := uncalledExports(t, ".")
	for _, key := range unused {
		if _, ok := keptExports[key]; !ok {
			t.Errorf("%s is exported but no program uses it: delete or unexport it, or list it in keptExports with a reason", key)
		}
	}
	for key := range keptExports {
		if !slices.Contains(unused, key) {
			t.Errorf("keptExports lists %s, which is gone or has a caller now: drop the entry", key)
		}
	}
}

// TestExportScanResolvesTypes runs the scan on testdata/exports, whose
// one package declares what a scan that matches names, not types,
// misses or flags wrongly: two types sharing a method name with only one
// of the two called, a method reached only through an interface, a
// String method only fmt calls, and a field only a JSON decode sets.
func TestExportScanResolvesTypes(t *testing.T) {
	got := uncalledExports(t, filepath.Join("testdata", "exports"))
	want := []string{"shapes.Config.Unread", "shapes.Square.Scale"}
	if !slices.Equal(got, want) {
		t.Errorf("uncalled exports = %v, want %v", got, want)
	}
}

// uncalledExports type-checks every package under root, skipping
// testdata and dot directories, and returns the sorted keys (pkg.Name,
// pkg.Type.Method or pkg.Type.Field) of the exports declared in non-test
// files under root's internal/ that have no use.
func uncalledExports(t *testing.T, root string) []string {
	t.Helper()
	s, err := loadScan(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkAll(); err != nil {
		t.Fatal(err)
	}

	// A declaration is known by its position, which every compile of its
	// file shares. codeUses holds the declarations non-test code uses;
	// testUses holds the directories whose tests use each declaration.
	codeUses := map[token.Pos]bool{}
	for _, obj := range s.base.info.Uses {
		codeUses[origin(obj).Pos()] = true
	}
	methods, err := s.interfaceMethods()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range methods {
		codeUses[m.Pos()] = true
	}
	testUses := map[token.Pos]map[string]bool{}
	for id, obj := range s.tests.Uses {
		file := s.fset.File(id.Pos()).Name()
		if !strings.HasSuffix(file, "_test.go") {
			continue
		}
		pos := origin(obj).Pos()
		if testUses[pos] == nil {
			testUses[pos] = map[string]bool{}
		}
		testUses[pos][s.dirOf(file)] = true
	}

	var unused []string
	for _, d := range s.exports() {
		used := codeUses[d.obj.Pos()]
		if v, ok := d.obj.(*types.Var); !ok || !v.IsField() {
			for dir := range testUses[d.obj.Pos()] {
				used = used || dir != d.dir
			}
		}
		if !used {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	return unused
}

// origin returns the generic declaration an instantiated method or field
// comes from, and any other object as it is.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportScan holds every Go file under one root, parsed once, and what
// type-checking them resolves.
type exportScan struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*srcPkg // by import path
	base  *world
	tests *types.Info // the uses the test builds resolve
}

// srcPkg is the Go files of one directory, split as go test compiles
// them: the package's own files, its in-package tests and its external
// (package x_test) tests.
type srcPkg struct {
	dir                 string // slash-separated, relative to the root
	code, tests, xtests []*ast.File
}

// loadScan parses the Go files under root that go/build's rules select
// for this platform. A directory's import path is root's module path
// joined with the directory, which holds for perfbench too: its module
// is perpos/perfbench. The standard library is imported from its
// export data, which one go list call locates for every package the
// files import; go/importer alone would run go list once per package.
func loadScan(root string) (*exportScan, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			module = f[1]
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s declares no module", filepath.Join(root, "go.mod"))
	}
	fset := token.NewFileSet()
	s := &exportScan{
		root:  root,
		fset:  fset,
		pkgs:  map[string]*srcPkg{},
		tests: &types.Info{Uses: map[*ast.Ident]types.Object{}},
	}
	s.base = &world{s: s, info: &types.Info{Uses: map[*ast.Ident]types.Object{}}, built: map[string]*types.Package{}}
	imports := map[string]bool{}
	for p := range stdInterfaces {
		imports[p] = true
	}
	err = filepath.WalkDir(root, func(file string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if file != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(file), e.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := s.dirOf(file)
		p := s.pkgs[path.Join(module, dir)]
		if p == nil {
			p = &srcPkg{dir: dir}
			s.pkgs[path.Join(module, dir)] = p
		}
		switch {
		case !strings.HasSuffix(file, "_test.go"):
			p.code = append(p.code, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range imports {
		if s.pkgs[p] == nil {
			args = append(args, p)
		}
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, " ")
		exports[p] = file
	}
	s.std = importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if exports[p] == "" {
			return nil, fmt.Errorf("no export data for %q", p)
		}
		return os.Open(exports[p])
	})
	return s, nil
}

// dirOf returns a file's directory, slash-separated and relative to the
// root.
func (s *exportScan) dirOf(file string) string {
	dir, err := filepath.Rel(s.root, filepath.Dir(file))
	if err != nil {
		panic(err) // every file the scan holds lies under its root
	}
	return filepath.ToSlash(dir)
}

// checkAll type-checks every package as go build does, then its tests
// as go test does.
func (s *exportScan) checkAll() error {
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		src := s.pkgs[p]
		if len(src.code) > 0 {
			if _, err := s.base.Import(p); err != nil {
				return err
			}
		}
		if len(src.tests) == 0 && len(src.xtests) == 0 {
			continue
		}
		w := &world{s: s, test: p, info: s.tests, built: map[string]*types.Package{}}
		if len(src.code)+len(src.tests) > 0 {
			if _, err := w.Import(p); err != nil {
				return err
			}
		}
		if len(src.xtests) > 0 {
			if _, err := w.check(p+"_test", src.xtests); err != nil {
				return err
			}
		}
	}
	return nil
}

// world is one build's set of compiled packages. The base world compiles
// each package from its own files. The world of one package's tests
// compiles that package with its in-package tests, and recompiles
// against it every package that imports it, so that its external tests
// see one type for each name, as under go test; it takes every other
// package from the base world.
type world struct {
	s     *exportScan
	test  string // import path of the package under test, or ""
	info  *types.Info
	built map[string]*types.Package
}

// Import implements types.Importer.
func (w *world) Import(p string) (*types.Package, error) {
	if pkg, ok := w.built[p]; ok {
		return pkg, nil
	}
	src := w.s.pkgs[p]
	if src == nil {
		return w.s.std.Import(p)
	}
	files := src.code
	if p == w.test {
		files = append(files[:len(files):len(files)], src.tests...)
	} else if w.test != "" {
		pkg, err := w.s.base.Import(p)
		if err != nil || !w.s.imports(pkg, w.test, map[string]bool{}) {
			return pkg, err
		}
	}
	pkg, err := w.check(p, files)
	w.built[p] = pkg
	return pkg, err
}

func (w *world) check(p string, files []*ast.File) (*types.Package, error) {
	conf := types.Config{Importer: w}
	return conf.Check(p, w.s.fset, files, w.info)
}

// imports reports whether pkg imports the package at path, directly or
// through other packages under the root.
func (s *exportScan) imports(pkg *types.Package, path string, seen map[string]bool) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path {
			return true
		}
		if s.pkgs[imp.Path()] != nil && !seen[imp.Path()] {
			seen[imp.Path()] = true
			if s.imports(imp, path, seen) {
				return true
			}
		}
	}
	return false
}

// exportDecl is one exported name declared in a non-test file under
// internal/.
type exportDecl struct {
	obj types.Object
	dir string
	key string // pkg.Name, or pkg.Type.Member for a method or field
}

// exports lists the exported package-level names, methods and fields of
// named struct types declared in non-test files under internal/. An
// embedded field is left out: promotion uses it without naming it.
func (s *exportScan) exports() []exportDecl {
	var decls []exportDecl
	for p, src := range s.pkgs {
		pkg := s.base.built[p]
		if pkg == nil || !strings.HasPrefix(src.dir, "internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				decls = append(decls, exportDecl{obj, src.dir, pkg.Name() + "." + name})
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			member := func(m types.Object) {
				if m.Exported() {
					decls = append(decls, exportDecl{m, src.dir, pkg.Name() + "." + name + "." + m.Name()})
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				member(named.Method(i))
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if !st.Field(i).Embedded() {
						member(st.Field(i))
					}
				}
			}
		}
	}
	return decls
}

// stdInterfaces are the interfaces, beside error, that the standard
// library calls without the code naming them, by package.
var stdInterfaces = map[string][]string{
	"fmt":           {"Stringer"},
	"encoding":      {"TextMarshaler", "TextUnmarshaler", "BinaryMarshaler", "BinaryUnmarshaler"},
	"encoding/json": {"Marshaler", "Unmarshaler"},
}

// interfaceMethods returns the methods that an interface can call: for
// each non-generic named type of the non-test code whose pointer
// implements an interface that non-test code names, error or one of
// stdInterfaces, the methods it implements that interface with.
func (s *exportScan) interfaceMethods() ([]*types.Func, error) {
	named := []types.Object{types.Universe.Lookup("error")}
	for _, obj := range s.base.info.Uses {
		if _, ok := obj.(*types.TypeName); ok {
			named = append(named, obj)
		}
	}
	for path, names := range stdInterfaces {
		pkg, err := s.std.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			named = append(named, pkg.Scope().Lookup(name))
		}
	}
	ifaces := map[*types.Interface]bool{}
	for _, obj := range named {
		if n, ok := obj.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
			if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
	}

	var methods []*types.Func
	for _, pkg := range s.base.built {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(n)
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, it.Method(i).Pkg(), it.Method(i).Name())
					methods = append(methods, m.(*types.Func).Origin())
				}
			}
		}
	}
	return methods, nil
}
