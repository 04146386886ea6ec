package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// Goroleak requires every `go` statement to have a provable termination
// path. testutil.CheckGoroutines catches leaks a test happens to trigger;
// this analyzer makes the property static: a spawned function must either
// run to completion (straight-line body, bounded loops), carry an explicit
// exit out of every unconditional loop (a return, a break, or a panic —
// which in practice means a `select` on ctx.Done() or a done channel whose
// case returns), or be accounted to a sync.WaitGroup (`defer wg.Done()` as
// the first statement), whose Wait makes the leak visible at join points.
//
// Functions that provably never return — an unconditional `for` loop with
// no exit, a bare `select {}`, or an unconditional call to such a function
// — are marked with a NeverReturns fact, so `go s.run()` is flagged at the
// spawn site even when run is declared in another package: the spawn is
// where the missing stop signal must be threaded in, not the loop.
var Goroleak = &analysis.Analyzer{
	Name: "goroleak",
	Doc: "flags `go` statements with no provable termination path (no " +
		"return/break out of unconditional loops, no ctx.Done()/done-channel " +
		"exit, no WaitGroup accounting), using NeverReturns facts to catch " +
		"spawns of forever-blocking functions across packages",
	Run: runGoroleak,
}

// NeverReturns marks a function that provably never returns to its caller:
// every execution path ends in an unconditional loop or empty select with
// no exit statement.
type NeverReturns struct {
	// Why is a short human-readable cause ("unconditional for loop with no
	// exit at decl", "select{}"), surfaced in spawn-site diagnostics.
	Why string
}

// AFact marks NeverReturns as a fact.
func (*NeverReturns) AFact() {}

func runGoroleak(pass *analysis.Pass) (interface{}, error) {
	gl := &goroleakPass{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		forever: make(map[*types.Func]string),
	}

	// Phase 1: index declarations, then find never-returning functions by
	// fixpoint (f never returns if it unconditionally calls g which never
	// returns).
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				gl.decls[obj] = fd
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fd := range gl.decls {
			if _, done := gl.forever[obj]; done {
				continue
			}
			if why, ok := gl.neverReturns(fd.Body); ok {
				gl.forever[obj] = why
				changed = true
			}
		}
	}
	for obj, why := range gl.forever {
		pass.ExportObjectFact(obj, &NeverReturns{Why: why})
	}

	// Phase 2: audit every `go` statement.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				gl.checkSpawn(g)
			}
			return true
		})
	}
	return nil, nil
}

type goroleakPass struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	forever map[*types.Func]string // same-package NeverReturns causes
}

// neverReturnsFn reports whether fn never returns, consulting the
// same-package fixpoint first and imported facts second.
func (gl *goroleakPass) neverReturnsFn(fn *types.Func) (string, bool) {
	if why, ok := gl.forever[fn]; ok {
		return why, true
	}
	if fn.Pkg() != nil && fn.Pkg() != gl.pass.Pkg {
		var fact NeverReturns
		if gl.pass.ImportObjectFact(fn, &fact) {
			return fact.Why, true
		}
	}
	return "", false
}

// checkSpawn validates one `go` statement.
func (gl *goroleakPass) checkSpawn(g *ast.GoStmt) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if gl.waitGroupAccounted(lit.Body) {
			return
		}
		if why, ok := gl.neverReturns(lit.Body); ok {
			gl.pass.Reportf(g.Pos(),
				"goroutine has no provable termination path (%s); select on ctx.Done() or a done channel and return, bound the loop, or account it with `defer wg.Done()` (DESIGN.md §8)",
				why)
		}
		return
	}
	if fn := gl.staticCallee(g.Call); fn != nil {
		if why, ok := gl.neverReturnsFn(fn); ok {
			gl.pass.Reportf(g.Pos(),
				"goroutine spawns %s, which never returns (%s); thread a ctx/done signal through it or account it with a WaitGroup (DESIGN.md §8)",
				fn.Name(), why)
		}
	}
}

// waitGroupAccounted reports whether the body's first statement is
// `defer wg.Done()` on a sync.WaitGroup — the accounting pattern whose
// Wait() surfaces the goroutine at shutdown.
func (gl *goroleakPass) waitGroupAccounted(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	ds, ok := body.List[0].(*ast.DeferStmt)
	if !ok {
		return false
	}
	sel, ok := ds.Call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := gl.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done"
}

// neverReturns scans a body's top-level statements in order for a point of
// no return. Statements after it are unreachable; statements before it
// (setup, defers) do not affect the verdict. A top-level `return` clears
// the verdict — the function can finish.
func (gl *goroleakPass) neverReturns(body *ast.BlockStmt) (string, bool) {
	for _, stmt := range body.List {
		switch s := stmt.(type) {
		case *ast.ReturnStmt:
			return "", false
		case *ast.ForStmt:
			if s.Cond == nil && !gl.hasLoopExit(s.Body) {
				return "unconditional for loop with no return, break, or panic", true
			}
		case *ast.SelectStmt:
			if len(s.Body.List) == 0 {
				return "blocks forever on select{}", true
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if fn := gl.staticCallee(call); fn != nil {
					if why, ok := gl.neverReturnsFn(fn); ok {
						return "calls " + fn.Name() + ", which " + why, true
					}
				}
			}
		}
	}
	return "", false
}

// hasLoopExit reports whether an unconditional loop's body contains a
// statement that exits the loop or the goroutine: a return, a break bound
// to this loop (not to an inner for/switch/select — the classic trap where
// `break` inside a select case only exits the select), a goto, a panic, or
// a terminal call (os.Exit, log.Fatal*, runtime.Goexit).
func (gl *goroleakPass) hasLoopExit(body *ast.BlockStmt) bool {
	found := false
	// depth counts enclosing break targets between a statement and the
	// loop under test; a plain `break` only exits the loop at depth 0.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if found || n == nil {
			return
		}
		switch s := n.(type) {
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			switch s.Tok.String() {
			case "break":
				// A labeled break targets a labeled statement; assume it
				// exits past the loop under test (labels on inner loops
				// that re-enter are rare enough to accept).
				if s.Label != nil || depth == 0 {
					found = true
				}
			case "goto":
				found = true
			}
		case *ast.CallExpr:
			if gl.isTerminalCall(s) {
				found = true
			}
			for _, a := range s.Args {
				walk(a, depth)
			}
			walk(s.Fun, depth)
		case *ast.ForStmt:
			walk(s.Body, depth+1)
		case *ast.RangeStmt:
			walk(s.Body, depth+1)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				walk(c, depth+1)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				walk(c, depth+1)
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				walk(c, depth+1)
			}
		case *ast.CaseClause:
			for _, st := range s.Body {
				walk(st, depth)
			}
		case *ast.CommClause:
			for _, st := range s.Body {
				walk(st, depth)
			}
		case *ast.FuncLit:
			// A literal's returns exit the literal, not this loop.
		case *ast.BlockStmt:
			for _, st := range s.List {
				walk(st, depth)
			}
		case *ast.IfStmt:
			walk(s.Body, depth)
			walk(s.Else, depth)
		case *ast.LabeledStmt:
			walk(s.Stmt, depth)
		case *ast.ExprStmt:
			walk(s.X, depth)
		case *ast.DeferStmt:
			// Deferred calls run only if something else already exited.
		case *ast.GoStmt:
			// A nested spawn does not exit this loop (it is audited at its
			// own site).
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				walk(r, depth)
			}
		case *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		default:
			// Conservative: unhandled nodes are walked generically.
			ast.Inspect(n, func(inner ast.Node) bool {
				if found {
					return false
				}
				switch inner.(type) {
				case *ast.ReturnStmt:
					found = true
					return false
				case *ast.FuncLit:
					return false
				}
				return true
			})
		}
	}
	walk(body, 0)
	return found
}

// isTerminalCall reports whether call unconditionally ends the goroutine or
// process: panic, os.Exit, runtime.Goexit, log.Fatal*, or a call to a
// same-package or imported function known to never return (which, for the
// purposes of loop exit, still means this loop is not the leak — the
// callee is, and is flagged where it is spawned).
func (gl *goroleakPass) isTerminalCall(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := gl.pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	fn := gl.staticCallee(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	}
	return false
}

// staticCallee resolves a call's target *types.Func, nil for builtins and
// function values.
func (gl *goroleakPass) staticCallee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := gl.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
