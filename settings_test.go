package perpos_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keptSettings are the fields of settings types that nothing sets yet,
// each with the reason it stays.
var keptSettings = map[string]string{
	"cluster.NodeConfig.Addr":    "a listen address: a deployment names its port, tests and the demo listen on an ephemeral one",
	"config.CheckpointDef.Fsync": "makes checkpoints durable across an OS crash, at a throughput cost no shipped definition pays",
	"config.RuleDef.Group":       "ROADMAP item 6's outdoor handover shares a conflict group with provider-swap",
	"config.RuleDef.Priority":    "orders ROADMAP item 6's outdoor handover against provider-swap within their conflict group",
}

// TestEverySettingHasACaller fails when a field of a settings type
// under internal/ is set by nothing but its own type's methods: such a
// setting has one value in use and is a constant. A settings type is an
// exported struct named *Config, *Policy, *Options, *Deps or *Def, or
// config.Pipeline, rules.Rule or rules.Guard. A field counts as set
// when code outside its type's methods writes it, tests included, or
// when a definition under examples/configs/, read as a config.Pipeline,
// sets its key in an object of the field's type. keptSettings lists the
// exceptions with their reasons.
func TestEverySettingHasACaller(t *testing.T) {
	unset := unsetSettings(t, ".", "config.Pipeline")
	for _, key := range unset {
		if _, ok := keptSettings[key]; !ok {
			t.Errorf("%s is a setting that nothing sets: fold it into a constant, or list it in keptSettings with a reason", key)
		}
	}
	for key := range keptSettings {
		if !slices.Contains(unset, key) {
			t.Errorf("keptSettings lists %s, which is gone or is set now: drop the entry", key)
		}
	}
}

// TestSettingScanFindsWrites runs the setting scan on testdata/exports,
// whose shapes package declares a field only its type's withDefaults
// writes, a field only a test writes, and json keys that a program or a
// test decodes but no definition under examples/configs/ sets.
func TestSettingScanFindsWrites(t *testing.T) {
	got := unsetSettings(t, filepath.Join("testdata", "exports"), "shapes.Config")
	want := []string{"shapes.Config.Limit", "shapes.Config.Unread", "shapes.RateConfig.Burst"}
	if !slices.Equal(got, want) {
		t.Errorf("unset settings = %v, want %v", got, want)
	}
}

// settingsType reports whether a type declared under internal/ is a
// settings type.
func settingsType(pkg, name string) bool {
	switch pkg + "." + name {
	case "config.Pipeline", "rules.Rule", "rules.Guard":
		return true
	}
	for _, suffix := range []string{"Config", "Policy", "Options", "Deps", "Def"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// settingField is one field of a settings type.
type settingField struct {
	key   string    // pkg.Type.Field
	owner token.Pos // the settings type's declaration
}

// unsetSettings type-checks every package under root as
// uncalledExports does and returns the sorted keys of the settings
// fields that nothing sets. schema (pkg.Type) is the type the
// definitions under root's examples/configs/ decode into.
func unsetSettings(t *testing.T, root, schema string) []string {
	t.Helper()
	s, err := loadScan(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkAll(); err != nil {
		t.Fatal(err)
	}
	fields := s.settingFields()
	set := map[token.Pos]bool{}
	for _, src := range s.pkgs {
		for _, files := range [][]*ast.File{src.code, src.tests, src.xtests} {
			for _, f := range files {
				s.fieldWrites(f, fields, set)
			}
		}
	}
	if err := s.definitionWrites(filepath.Join(root, "examples", "configs"), schema, set); err != nil {
		t.Fatal(err)
	}
	var unset []string
	for pos, f := range fields {
		if !set[pos] {
			unset = append(unset, f.key)
		}
	}
	sort.Strings(unset)
	return unset
}

// settingFields returns the exported, non-embedded fields of the
// settings types declared in non-test files under internal/, by the
// field's position.
func (s *exportScan) settingFields() map[token.Pos]settingField {
	fields := map[token.Pos]settingField{}
	for p, src := range s.pkgs {
		pkg := s.base.built[p]
		if pkg == nil || !strings.HasPrefix(src.dir, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !settingsType(pkg.Name(), name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() {
					fields[f.Pos()] = settingField{pkg.Name() + "." + name + "." + f.Name(), tn.Pos()}
				}
			}
		}
	}
	return fields
}

// fieldWrites marks in set the settings fields that f writes outside
// the methods of the field's own type: a key of a composite literal,
// the target of an assignment or an increment, and an operand of &.
func (s *exportScan) fieldWrites(f *ast.File, fields map[token.Pos]settingField, set map[token.Pos]bool) {
	for _, decl := range f.Decls {
		recv := token.NoPos
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				if obj := s.use(id); obj != nil {
					recv = obj.Pos()
				}
			}
		}
		// mark records a write of the field id names, unless it is in a
		// method of the field's own type.
		mark := func(id *ast.Ident) {
			if obj := s.use(id); obj != nil {
				pos := origin(obj).Pos()
				if fd, ok := fields[pos]; ok && fd.owner != recv {
					set[pos] = true
				}
			}
		}
		// write marks every field a write to e changes: x.A.B = v
		// writes B and, in place, A.
		write := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					mark(x.Sel)
					e = x.X
				default:
					return
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					mark(id)
				}
			}
			return true
		})
	}
}

// use returns the object an identifier names in whichever build
// compiled its file.
func (s *exportScan) use(id *ast.Ident) types.Object {
	if obj := s.base.info.Uses[id]; obj != nil {
		return obj
	}
	return s.tests.Uses[id]
}

// definitionWrites marks in set the fields that the JSON definitions in
// dir set, reading each as a value of the schema type (pkg.Type).
func (s *exportScan) definitionWrites(dir, schema string, set map[token.Pos]bool) error {
	pkgName, typeName, _ := strings.Cut(schema, ".")
	var root types.Type
	for _, pkg := range s.base.built {
		if pkg.Name() == pkgName && pkg.Scope().Lookup(typeName) != nil {
			root = pkg.Scope().Lookup(typeName).Type()
		}
	}
	if root == nil {
		return fmt.Errorf("no schema type %s", schema)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		markDecoded(root, v, set)
	}
	return nil
}

// markDecoded marks in set the struct fields that decoding the JSON
// value v into type t sets, as encoding/json matches keys: a field's
// json tag names its key, an untagged field's name does, and an
// embedded struct's fields are the outer object's.
func markDecoded(t types.Type, v any, set map[token.Pos]bool) {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		markDecoded(u.Elem(), v, set)
	case *types.Slice:
		if arr, ok := v.([]any); ok {
			for _, x := range arr {
				markDecoded(u.Elem(), x, set)
			}
		}
	case *types.Map:
		if obj, ok := v.(map[string]any); ok {
			for _, x := range obj {
				markDecoded(u.Elem(), x, set)
			}
		}
	case *types.Struct:
		obj, ok := v.(map[string]any)
		if !ok {
			return
		}
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if f.Embedded() {
				markDecoded(f.Type(), v, set)
				continue
			}
			key, _, _ := strings.Cut(reflect.StructTag(u.Tag(i)).Get("json"), ",")
			switch key {
			case "-":
				continue
			case "":
				key = f.Name()
			}
			for k, x := range obj {
				if strings.EqualFold(k, key) {
					set[f.Pos()] = true
					markDecoded(f.Type(), x, set)
				}
			}
		}
	}
}
