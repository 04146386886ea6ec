package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Atomiccounter keeps every counter atomic everywhere or nowhere. Counters
// are atomic.Int64-style values: every access goes through their methods, a
// plain read or write of one does not compile, and go vet's copylocks flags a
// copy. The package-level sync/atomic functions (atomic.AddInt64(&x.n, 1),
// LoadUint64, StorePointer, CompareAndSwap*, …) are the one way to put an
// atomic access and a plain one on the same variable — a race -race only sees
// when both sides run in the sampled interleaving — so this analyzer bans them
// outside tests (the suite loads no test files), and the invariant holds by
// type.
var Atomiccounter = &analysis.Analyzer{
	Name: "atomiccounter",
	Doc: "bans the package-level sync/atomic functions (atomic.AddInt64(&x.n, 1), " +
		"LoadUint64, CompareAndSwap*, …): counters are atomic.Int64-style types, " +
		"which no plain access can race",
	Run: runAtomiccounter,
}

func runAtomiccounter(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && isPkgFunc(fn) {
				pass.Reportf(sel.Pos(),
					"atomic.%s takes the counter's address, so plain reads and writes of it still compile; declare it as an atomic.Int64-style value and use its methods",
					fn.Name())
			}
			return true
		})
	}
	return nil, nil
}
