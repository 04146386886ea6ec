package experiments

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// goRunRef matches `go run ./<path>` in a document.
	goRunRef = regexp.MustCompile("go run \\./([A-Za-z0-9_./-]+)")
	// runFlagRef matches an experiment id cited as `-run <id>`. Ids are
	// lower-case, so `go test -run TestX` and quoted patterns never match;
	// neither does "re-run".
	runFlagRef = regexp.MustCompile("(?:^|[\\s`(])-run ([a-z][a-z0-9_]*)(?:$|[\\s`),.;])")
	// identRef matches a backticked `pkg.Name` or `pkg.Type.Member`,
	// optionally written as a call with no arguments. The repo's identifiers
	// have no underscores, so a benchmark metric (`hls.bytes_per_op`) does
	// not match.
	identRef = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?(?:\\(\\))?`")
)

// docs are the top-level documents both doc tests read.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// TestDocsNameLiveEntryPoints: every `go run ./<path>` in the top-level docs
// names a directory holding a main package, and every experiment id cited as
// `-run <id>` is registered — a deleted program or id cannot stay documented.
func TestDocsNameLiveEntryPoints(t *testing.T) {
	const root = "../.."
	known := map[string]bool{"all": true}
	for _, id := range IDs() {
		known[id] = true
	}
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		programs := 0
		for _, m := range goRunRef.FindAllSubmatch(text, -1) {
			programs++
			dir := filepath.Join(root, filepath.FromSlash(string(m[1])))
			if pkg, err := build.ImportDir(dir, 0); err != nil || pkg.Name != "main" {
				t.Errorf("%s: `go run ./%s` names no main package (%v)", doc, m[1], err)
			}
		}
		for _, m := range runFlagRef.FindAllSubmatch(text, -1) {
			if !known[string(m[1])] {
				t.Errorf("%s: `-run %s` is not a registered experiment id", doc, m[1])
			}
		}
		if doc == "README.md" && programs == 0 {
			t.Errorf("README.md: no `go run` command found; the pattern no longer matches the docs")
		}
	}
}

// TestDocsNameLiveIdentifiers: every backticked `pkg.Name` or
// `pkg.Type.Member` in the top-level docs, where pkg is a directory under
// internal/, names a function, type, variable or constant declared in a
// non-test file of that package — and Member a method, field or interface
// method of that type — so a deleted or renamed identifier cannot stay
// documented.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	const root = "../.."
	pkgs := map[string]map[string]map[string]bool{}
	for _, doc := range docs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		refs := 0
		for _, m := range identRef.FindAllSubmatch(text, -1) {
			pkg, name, member := string(m[1]), string(m[2]), string(m[3])
			if name == "go" && member == "" {
				continue // a file name
			}
			decls, ok := pkgs[pkg]
			if !ok {
				dir := filepath.Join(root, "internal", pkg)
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					continue // not an internal package: a file name, a host, a flag
				}
				if decls, err = declared(dir); err != nil {
					t.Fatal(err)
				}
				pkgs[pkg] = decls
			}
			refs++
			members, ok := decls[name]
			switch {
			case !ok:
				t.Errorf("%s: %s names nothing declared in internal/%s", doc, m[0], pkg)
			case member != "" && !members[member]:
				t.Errorf("%s: %s: internal/%s declares no %s.%s", doc, m[0], pkg, name, member)
			}
		}
		if doc == "DESIGN.md" && refs == 0 {
			t.Errorf("DESIGN.md: no backticked identifier found; the pattern no longer matches the docs")
		}
	}
}

// declared maps every package-level name declared in dir's non-test Go files
// to the methods, fields and interface methods it has (none for a function,
// variable or constant).
func declared(dir string) (map[string]map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	decls := map[string]map[string]bool{}
	add := func(name, member string) {
		if decls[name] == nil {
			decls[name] = map[string]bool{}
		}
		if member != "" {
			decls[name][member] = true
		}
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, "")
				} else {
					add(typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add(n.Name, "")
						}
					case *ast.TypeSpec:
						add(spec.Name.Name, "")
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							if len(field.Names) == 0 {
								add(spec.Name.Name, typeName(field.Type)) // embedded
							}
							for _, n := range field.Names {
								add(spec.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return decls, nil
}

// typeName is the name of the type a receiver or embedded field refers to:
// T for T, *T, pkg.T and T[P].
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	}
	return ""
}
