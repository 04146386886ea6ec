package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// hotpathDirective marks a function as allocation-budgeted. The PR 3 alloc
// regression tests (wire zero-alloc framing, rtmp one-alloc-per-arrival fan-out,
// cdn RawChunkList warm polls) pin the budget at runtime; this analyzer
// catches the obvious regressions at analysis time, with position information,
// before a benchmark has to.
const hotpathDirective = "livesim:hotpath"

// Hotpathalloc flags allocation-heavy constructs inside functions annotated
// with //livesim:hotpath: fmt.Sprintf/Errorf/Sprint/Sprintln (always
// allocate, format parsing on every call), []byte(string) and string([]byte)
// conversions (copy the payload — the wire format works in []byte
// end-to-end precisely to avoid this), and append through a closure-captured
// variable (forces the slice header, and usually the backing array, to
// escape to the heap).
var Hotpathalloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "flags fmt.Sprintf/Errorf, []byte(string)/string([]byte) " +
		"conversions, and closure-captured append in //livesim:hotpath " +
		"functions (the zero-alloc delivery fast paths)",
	Run: runHotpathalloc,
}

var fmtAllocFuncs = map[string]bool{
	"Sprintf":  true,
	"Errorf":   true,
	"Sprint":   true,
	"Sprintln": true,
}

func runHotpathalloc(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotpath(fn) {
				continue
			}
			checkHotpathBody(pass, fn)
		}
	}
	return nil, nil
}

// isHotpath reports whether the function's doc comment carries the
// //livesim:hotpath directive.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), hotpathDirective) {
			return true
		}
	}
	return false
}

func checkHotpathBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	// Track the FuncLit nesting stack so append targets can be classified
	// as captured (declared outside the literal they are appended to in).
	var litStack []*ast.FuncLit
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			litStack = append(litStack, e)
			ast.Inspect(e.Body, walk)
			litStack = litStack[:len(litStack)-1]
			return false
		case *ast.CallExpr:
			checkHotpathCall(pass, fn, e, litStack)
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
}

func checkHotpathCall(pass *analysis.Pass, fn *ast.FuncDecl, call *ast.CallExpr, litStack []*ast.FuncLit) {
	// fmt.Sprintf / fmt.Errorf family.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
			f.Pkg() != nil && f.Pkg().Path() == "fmt" && fmtAllocFuncs[f.Name()] {
			pass.Reportf(call.Pos(),
				"fmt.%s allocates on the %s hot path; precompute the string or use strconv.Append* into a reused buffer",
				f.Name(), fn.Name.Name)
			return
		}
	}

	// []byte(string) / string([]byte) conversions.
	if len(call.Args) == 1 {
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			to, from := tv.Type, pass.TypesInfo.Types[call.Args[0]].Type
			if from != nil {
				switch {
				case isByteSlice(to) && isString(from):
					pass.Reportf(call.Pos(),
						"[]byte(string) copies the payload on the %s hot path; keep the data as []byte end-to-end (wire format works in bytes)",
						fn.Name.Name)
				case isString(to) && isByteSlice(from):
					pass.Reportf(call.Pos(),
						"string([]byte) copies the payload on the %s hot path; compare/slice the []byte directly or intern the value off the hot path",
						fn.Name.Name)
				}
			}
		}
	}

	// append whose destination is captured by the enclosing closure.
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(litStack) > 0 {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			if target, ok := call.Args[0].(*ast.Ident); ok {
				obj := pass.TypesInfo.Uses[target]
				lit := litStack[len(litStack)-1]
				if obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
					pass.Reportf(call.Pos(),
						"append to %q captured by a closure on the %s hot path forces a heap escape; pass the slice in and return it, or hoist the append out of the closure",
						target.Name, fn.Name.Name)
				}
			}
		}
	}
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
