// Package loader type-checks this module's packages for the lint suite
// without golang.org/x/tools/go/packages (unavailable offline). It shells
// out to `go list -export -json -deps`, which compiles dependencies into the
// build cache and reports the export-data file of every package in the
// import graph; the module's own packages are then parsed from source and
// type-checked with the standard library's gc-export-data importer.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Files      []string // absolute paths of the non-test Go files, Syntax order
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// Program is one load: the type-checked module packages the patterns matched
// and the export-data file of every package in their import graph (what the
// type checker imported, and what the escape pass hands the compiler as its
// importcfg).
type Program struct {
	Packages []*Package        // dependencies first
	Exports  map[string]string // import path → gc export-data file
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// list runs `go list -e -export -json -deps` in dir and decodes the JSON
// stream: every package in the import graph of patterns, dependencies first,
// each with the path of its gc export-data file.
func list(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Load lists patterns relative to dir ("./..." for a module; an explicit
// directory for an analysistest fixture under testdata, which the go tool
// only skips when expanding wildcards) and returns the type-checked module
// packages in dependency order. Dependencies — standard library included —
// are imported from export data, so no source beyond the matched packages'
// own is parsed. This is the only `go list` of a run.
func Load(dir string, patterns ...string) (*Program, error) {
	lps, err := list(dir, patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{Exports: make(map[string]string, len(lps))}
	for _, lp := range lps {
		if lp.Export != "" {
			prog.Exports[lp.ImportPath] = lp.Export
		}
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := prog.Exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	for _, lp := range lps {
		if lp.DepOnly || lp.Standard {
			continue
		}
		if lp.Error != nil { // before the no-files skip: a mistyped pattern is an error package with no files
			return nil, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg := &Package{ImportPath: lp.ImportPath, Dir: lp.Dir, Fset: fset, TypesInfo: newInfo()}
		for _, f := range lp.GoFiles {
			path := filepath.Join(lp.Dir, f)
			af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, path)
			pkg.Syntax = append(pkg.Syntax, af)
		}
		conf := &types.Config{Importer: imp}
		if pkg.Types, err = conf.Check(lp.ImportPath, fset, pkg.Syntax, pkg.TypesInfo); err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	if len(prog.Packages) == 0 {
		return nil, fmt.Errorf("patterns %q matched no packages", patterns)
	}
	return prog, nil
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
