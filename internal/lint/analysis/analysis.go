// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis driver contract, just large enough to host
// this repo's custom analyzers. The container that builds this repo has no
// module proxy access, so vendoring x/tools is not an option; the AST
// analyzers in internal/lint only need the (Analyzer, Pass, Diagnostic)
// triple plus type information, all of which the standard library's go/ast
// and go/types provide. The shapes mirror x/tools so the analyzers could be
// ported to the real framework by changing only import paths.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis: a name (used in diagnostics and in
// //lint:allow directives), documentation, and the Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// directives. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description of the invariant.
	Doc string

	// Run applies the analyzer to a single package. Diagnostics are
	// delivered through pass.Report; the result value is unused by this
	// driver and exists only for x/tools signature compatibility.
	Run func(*Pass) (interface{}, error)
}

// Diagnostic is a finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the run's cross-package fact store (see facts.go).
	Facts *FactStore

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves a token.Pos against the pass's FileSet.
func (p *Pass) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}
