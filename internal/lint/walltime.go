package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// walltimeFuncs are the time package entry points that read or schedule off
// the wall clock. time.Time methods (Sub, Add, Before…) are pure and fine.
var walltimeFuncs = map[string]string{
	"Now":       "clock.Clock.Now",
	"Since":     "clock.Clock.Now + Time.Sub",
	"Until":     "clock.Clock.Now + Time.Sub",
	"Sleep":     "clock.Clock.Sleep",
	"NewTimer":  "clock.Clock.After",
	"After":     "clock.Clock.After",
	"AfterFunc": "clock.Clock.After",
	"Tick":      "a clock.Clock.After loop",
	"NewTicker": "a clock.Clock.After loop",
}

// mathRandOK are math/rand names that do not touch the global source: the
// constructor path (rand.New(rand.NewSource(seed))) is exactly what
// internal/rng wraps, and the types come along with it.
var mathRandOK = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Walltime flags direct wall-clock and global-randomness use in every package
// but a program's main. The delay decomposition (§4.2–4.3) and the
// trace-driven studies are meaningless if a run's outcome depends on the
// host's wall clock or the global math/rand source, so library code takes time
// from an injected internal/clock.Clock and randomness from internal/rng; a
// main package picks the clock it injects. Where the wall clock is what is
// being modelled — clock.Real itself, a real socket, X.509 validity — a
// reasoned //lint:allow walltime says so. A clock.Real built and called in
// place (clock.Real{}.Sleep(…)) reads the wall clock as surely as time.Sleep
// and is flagged the same way; a method value taken from one as a default
// (Policy.Sleep = clock.Real{}.Sleep) is an injection seam and is not.
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc: "flags time.Now/Sleep/timers, in-place clock.Real calls and global " +
		"math/rand outside package main; time must come from an injected " +
		"internal/clock.Clock and randomness from internal/rng so a seed " +
		"fully determines a run",
	Run: runWalltime,
}

func runWalltime(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isRealClockLit(pass, sel.X) {
					pass.Reportf(call.Pos(),
						"clock.Real{}.%s reads the wall clock in place; call an injected clock.Clock so simulated runs stay deterministic",
						sel.Sel.Name)
				}
				return true
			}
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				if repl, bad := walltimeFuncs[obj.Name()]; bad && isPkgFunc(obj) {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; use %s so simulated runs stay deterministic",
						obj.Name(), repl)
				}
			case "math/rand", "math/rand/v2":
				if isPkgFunc(obj) && !mathRandOK[obj.Name()] {
					pass.Reportf(sel.Pos(),
						"rand.%s uses the global math/rand source; use a seeded internal/rng.Rand so runs are reproducible",
						obj.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}

// isRealClockLit reports whether e is a composite literal of internal/clock's
// Real (matched by the final import-path element).
func isRealClockLit(pass *analysis.Pass, e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	named, ok := pass.TypesInfo.TypeOf(lit).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Real" && obj.Pkg() != nil && pathBase(obj.Pkg().Path()) == "clock"
}

// isPkgFunc reports whether obj is a package-level function (as opposed to a
// method, whose receiver carries its own explicitly-seeded state).
func isPkgFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// pathBase returns the final element of an import path.
func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
