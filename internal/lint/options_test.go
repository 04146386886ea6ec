package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedOptions is the pinned count of exported fields in the tree's
// exported *Config and *Options structs (non-test files outside bench/ and
// testdata/). It is the option surface ROADMAP's SURFACE item cuts: a cut
// lowers it, a new option raises it, and either is a one-line diff here.
const exportedOptions = 159

// TestExportedOptionCount pins the option surface to exportedOptions and, on
// a mismatch or under -v, prints every struct's count so the diff names what
// moved.
func TestExportedOptionCount(t *testing.T) {
	root := filepath.Join("..", "..")
	counts := make(map[string]int)
	total := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() ||
				!(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fields := 0
			for _, field := range st.Fields.List {
				for _, name := range fieldNames(field) {
					if ast.IsExported(name) {
						fields++
					}
				}
			}
			counts[filepath.ToSlash(rel)+"."+ts.Name.Name] = fields
			total += fields
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() || total != exportedOptions {
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "\n  %s: %d", name, counts[name])
		}
		t.Logf("exported options (%d) per struct:%s", total, b.String())
	}
	if total != exportedOptions {
		t.Errorf("exported options = %d, pinned %d", total, exportedOptions)
	}
}

// fieldNames is a struct field's names; an embedded field is named by its
// type.
func fieldNames(f *ast.Field) []string {
	if len(f.Names) > 0 {
		names := make([]string, len(f.Names))
		for i, id := range f.Names {
			names[i] = id.Name
		}
		return names
	}
	typ := f.Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.Ident:
		return []string{x.Name}
	case *ast.SelectorExpr:
		return []string{x.Sel.Name}
	}
	return nil
}
