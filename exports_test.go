package perpos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports are the exported identifiers under internal/ that nothing
// outside their own package's tests names yet, each with the reason it
// stays exported.
var keptExports = map[string]string{
	"positioning.Provider.NotifyRoomChange": "the paper's PL API: JSR-179-style room-change notification",
	"runtime.Session.Adapt":                 "the PSL edit entry point: one application adapting its own live session",
	"cluster.Router.Move":                   "the handoff seam that TestMove*, CI's cluster-chaos job and BenchmarkClusterHandoff drive",
	// The remote uplink's knobs are the only feed of the metrics hub's
	// remote.* rows; wiring those rows or deleting them is its own change.
	"remote.WithUplinkMetrics":    "publishes the uplink's sent/dropped counters and backoff into the hub's remote.* rows",
	"remote.WithUplinkBackoff":    "bounds the redial backoff the hub's remote backoff row reports",
	"remote.WithUplinkJitterSeed": "seeds the redial jitter, so the remote.* rows replay in tests",
	"remote.Uplink.Backoff":       "reads the redial backoff the hub's remote backoff row reports",
	"remote.Server.Errs":          "reads the decode and inject errors of a remote peer's server",
}

// exportDecl is one exported identifier declared under internal/.
type exportDecl struct {
	ident *ast.Ident
	dir   string
	key   string // pkg.Name, or pkg.Type.Method for a method
	use   string // what a use is noted under: dir.Name, or a method's Name
}

// TestEveryExportHasACaller fails when an exported identifier declared
// in a non-test file under internal/ has no caller: no non-test file of
// the module or of perfbench names it, and no other package's tests do.
// Such an identifier is dead API, to delete, or test-only API, to
// unexport. keptExports lists the exceptions with their reasons. A
// package-level name is matched through its package: bare inside the
// package, as pkg.Name through an import of the package outside it, so
// a name that another identifier shares does not hide it. A method is
// matched by its bare name, since the scan does not resolve types: it
// misses some dead methods and never flags a live one.
func TestEveryExportHasACaller(t *testing.T) {
	files := parseModule(t)

	var decls []exportDecl
	for path, f := range files {
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, "_test.go") || !strings.HasPrefix(dir, "internal/") {
			continue
		}
		add := func(id *ast.Ident, recv string) {
			if !id.IsExported() {
				return
			}
			key, use := f.Name.Name+"."+id.Name, dir+"."+id.Name
			if recv != "" {
				key, use = f.Name.Name+"."+recv+"."+id.Name, id.Name
			}
			decls = append(decls, exportDecl{ident: id, dir: dir, key: key, use: use})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, recvName(d))
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "")
						}
					}
				}
			}
		}
	}

	declared := make(map[*ast.Ident]bool, len(decls))
	for _, d := range decls {
		declared[d.ident] = true
	}
	// Every identifier is noted under its bare name, for methods, and a
	// package-level name also as "dir.Name", dir being the directory of
	// the package it names.
	codeUses := map[string]bool{}            // use -> some non-test file has it
	testUses := map[string]map[string]bool{} // use -> dirs whose tests have it
	for path, f := range files {
		dir := filepath.ToSlash(filepath.Dir(path))
		test := strings.HasSuffix(path, "_test.go")
		note := func(use string) {
			if !test {
				codeUses[use] = true
				return
			}
			if testUses[use] == nil {
				testUses[use] = map[string]bool{}
			}
			testUses[use][dir] = true
		}
		imports := map[string]string{} // local name -> directory
		for _, imp := range f.Imports {
			rel, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "perpos/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					note(imports[x.Name] + "." + n.Sel.Name)
				}
			case *ast.Ident:
				if declared[n] {
					return true
				}
				note(n.Name)
				if !selected[n] {
					note(dir + "." + n.Name)
				}
			}
			return true
		})
	}
	used := func(d exportDecl) bool {
		if codeUses[d.use] {
			return true
		}
		for dir := range testUses[d.use] {
			if dir != d.dir {
				return true
			}
		}
		return false
	}

	var unused []string
	for _, d := range decls {
		if !used(d) {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		if _, ok := keptExports[key]; !ok {
			t.Errorf("%s is exported but has no caller: delete or unexport it, or list it in keptExports with a reason", key)
		}
	}
	for key := range keptExports {
		if i := sort.SearchStrings(unused, key); i == len(unused) || unused[i] != key {
			t.Errorf("keptExports lists %s, which is gone or has a caller now: drop the entry", key)
		}
	}
}

// recvName returns a method's receiver type name, or "" for a function.
func recvName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// parseModule parses every Go file of the repository by path,
// perfbench's module included, skipping testdata and dot directories.
func parseModule(t *testing.T) map[string]*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files[path] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
