package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// walltimePackages are the simulation and delivery packages whose results
// must be reproducible from a seed: the trace-driven buffering study (§6)
// and the delay decomposition (§4.2–4.3) are meaningless if a run's outcome
// depends on the host's wall clock or the global math/rand source. These
// packages must take time from internal/clock and randomness from
// internal/rng. clock itself is restricted — a stray time.Now inside the
// wheel or Virtual engines would silently desynchronize simulated time (only
// Real touches the wall clock, behind reasoned //lint:allow suppressions) —
// as is viewersim, whose cross-engine byte-equality contract dies the moment
// an event draws from anything but its seeded stream. control is restricted
// too: quota windows, rate-limiter refills, and usage-rollup day keys must
// follow the injected clock or tenancy tests against a clock.Virtual would
// silently mix time bases. resilience is restricted because cdn, hls, rtmp and
// control wait through it: a retry back-off or breaker cool-down that read
// the wall clock would put the host's time back on exactly the failure paths
// a simulated clock drives, so its only wall-clock default is clock.Real.
// Matching is by the final import-path element.
var walltimePackages = map[string]bool{
	"netsim":      true,
	"delay":       true,
	"player":      true,
	"workload":    true,
	"experiments": true,
	"rtmp":        true,
	"cdn":         true,
	"hls":         true,
	"metrics":     true,
	"clock":       true,
	"viewersim":   true,
	"control":     true,
	"resilience":  true,
}

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

// Walltime flags direct wall-clock and global-randomness use in the
// simulation/delivery packages listed above.
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc: "flags time.Now/Sleep/timers and global math/rand in simulation and " +
		"delivery packages; these must go through internal/clock and " +
		"internal/rng so a seed fully determines a run",
	Run: runWalltime,
}

func runWalltime(pass *analysis.Pass) (interface{}, error) {
	if !walltimePackages[pathBase(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
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
