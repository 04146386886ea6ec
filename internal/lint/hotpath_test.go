package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestHotpathsNameTheirBudget holds every //livesim:hotpath directive under
// internal/ to its contract: the directive names a test in the same
// package's _test.go files, and that test calls testing.AllocsPerRun. The
// escape pass sees what the compiler reports; the named budget is what sees
// every other allocation, so a hot path without one is guarded by half a
// mechanism.
func TestHotpathsNameTheirBudget(t *testing.T) {
	hotpaths := 0
	err := filepath.WalkDir("..", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		fset := token.NewFileSet()
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return err
		}
		budgets := make(map[string]bool) // test name → calls AllocsPerRun
		var hot []*ast.FuncDecl
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				switch {
				case !ok || fd.Body == nil:
				case strings.HasSuffix(name, "_test.go"):
					budgets[fd.Name.Name] = callsAllocsPerRun(fd.Body)
				case isHotpath(fd):
					hot = append(hot, fd)
				}
			}
		}
		for _, fd := range hot {
			hotpaths++
			pos := fset.Position(fd.Pos())
			test := hotpathBudget(fd)
			pins, found := budgets[test]
			switch {
			case test == "":
				t.Errorf("%s: //%s on %s names no budget test", pos, hotpathDirective, fd.Name.Name)
			case !found:
				t.Errorf("%s: %s's budget test %s is not in %s's _test.go files", pos, fd.Name.Name, test, dir)
			case !pins:
				t.Errorf("%s: %s's budget test %s never calls testing.AllocsPerRun", pos, fd.Name.Name, test)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hotpaths == 0 {
		t.Fatal("found no //livesim:hotpath functions under internal/")
	}
}

// hotpathBudget returns the test name a function's directive carries.
func hotpathBudget(fn *ast.FuncDecl) string {
	for _, c := range fn.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, "//"+hotpathDirective); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				return fields[0]
			}
		}
	}
	return ""
}

func callsAllocsPerRun(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "AllocsPerRun" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "testing" {
				found = true
			}
		}
		return !found
	})
	return found
}
