package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
)

// Lockorder builds a whole-program lock-acquisition graph and flags cycles.
// Two locks acquired in the order A→B on one code path and B→A on another
// can deadlock the moment both paths run concurrently — and unlike a data
// race, -race only reports it if a soak happens to interleave the two paths
// at the same instant. The million-viewer engine (DESIGN.md §10) made that
// lottery unwinnable: this analyzer makes the ordering a static invariant.
//
// Locks are classified by field identity — "repro/internal/cdn.Edge.mu" —
// so every instance of a type shares a class; a cycle between classes is a
// potential deadlock between some pair of instances. Within each function
// the held-set is tracked statement by statement (the locksend machinery's
// rules: defer Unlock holds to return, branches fork the set). Acquisitions
// observed while a lock is held become graph edges; calls made while a lock
// is held add edges to everything the callee may transitively acquire,
// which is where the cross-package facts come in:
//
//   - each function exports a LockSet fact: the lock classes it may
//     acquire, directly or through callees (same-package call graphs are
//     closed by fixpoint; imported callees contribute their fact);
//   - each package exports a LockGraph fact: its own edges merged with the
//     graphs of its imports, so a dependent package sees the transitive
//     closure through its direct imports alone.
//
// A cycle is reported once, at an acquisition or call site in the package
// that closes it, with the full chain — every edge's source position — in
// the diagnostic, so an AB/BA inversion spanning internal/cdn and
// internal/control reads as a deadlock scenario, not a single line number.
var Lockorder = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "builds the whole-program lock-acquisition graph across packages " +
		"(via facts) and reports cycles — potential AB/BA deadlocks — with " +
		"the full acquisition chain",
	Run: runLockorder,
}

// LockSet is the object fact exported for every analyzed function: the lock
// classes the function may acquire, transitively through its callees.
type LockSet struct {
	Locks []string
}

// AFact marks LockSet as a fact.
func (*LockSet) AFact() {}

// LockEdge records "To was acquired while From was held", with the source
// position and function that established the order (Site), and whether both
// ends were read locks (read-read self-edges are not deadlocks).
type LockEdge struct {
	From, To string
	Site     string // "func at file:line: detail"
	ReadOnly bool   // both acquisitions were RLocks
}

// LockGraph is the package fact: every edge established by this package and
// its transitive imports.
type LockGraph struct {
	Edges []LockEdge
}

// AFact marks LockGraph as a fact.
func (*LockGraph) AFact() {}

// lockAcq is one acquisition event inside a function body.
type lockAcq struct {
	class string
	read  bool
	pos   token.Pos
}

// lockCall is a call made while locks were held, or a call that contributes
// the callee's lockset to the caller's.
type lockCall struct {
	callee *types.Func
	held   []lockAcq // snapshot of locks held at the call site
	pos    token.Pos
}

// fnInfo is the per-function summary the fixpoint runs over.
type fnInfo struct {
	obj      *types.Func
	name     string
	acquires map[string]bool // direct acquisitions (any held state)
	calls    []lockCall
	edges    []rawEdge // intra-function held→acquired edges
	// extCalls are held-across-call sites inside escaping closures and `go`
	// bodies: they produce graph edges (phase 3) but do not contribute the
	// callee's lockset to this function (phase 2) — the closure runs on
	// another stack at another time, so constructing it orders nothing.
	extCalls []lockCall
}

// rawEdge is an edge with its in-package report position still attached.
type rawEdge struct {
	LockEdge
	pos token.Pos
}

func runLockorder(pass *analysis.Pass) (interface{}, error) {
	lo := &lockorderPass{
		pass:   pass,
		byObj:  make(map[*types.Func]*fnInfo),
		shared: newLockTracker(pass),
	}

	// Phase 1: per-function summaries, in declaration order.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			info := &fnInfo{obj: obj, name: fd.Name.Name, acquires: make(map[string]bool)}
			lo.collect(info, fd.Body.List, nil)
			lo.fns = append(lo.fns, info)
			if obj != nil {
				lo.byObj[obj] = info
			}
		}
	}

	// Phase 2: close same-package locksets by fixpoint; imported callees
	// contribute their LockSet fact once (facts are already transitive).
	closure := make(map[*fnInfo]map[string]bool, len(lo.fns))
	for _, fn := range lo.fns {
		set := make(map[string]bool, len(fn.acquires))
		for c := range fn.acquires {
			set[c] = true
		}
		for _, call := range fn.calls {
			for _, c := range lo.importedLocks(call.callee) {
				set[c] = true
			}
		}
		closure[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range lo.fns {
			for _, call := range fn.calls {
				callee, ok := lo.byObj[call.callee]
				if !ok {
					continue
				}
				for c := range closure[callee] {
					if !closure[fn][c] {
						closure[fn][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Phase 3: edges from held-across-call sites, now that callee locksets
	// are complete.
	var own []rawEdge
	for _, fn := range lo.fns {
		own = append(own, fn.edges...)
		for _, call := range append(fn.calls, fn.extCalls...) {
			if len(call.held) == 0 {
				continue
			}
			acq := lo.calleeLocks(call.callee, closure)
			if len(acq) == 0 {
				continue
			}
			site := fmt.Sprintf("%s at %s: calls %s", fn.name, lo.pass.Position(call.pos), call.callee.Name())
			for _, h := range call.held {
				for _, c := range acq {
					own = append(own, rawEdge{
						LockEdge: LockEdge{From: h.class, To: c, Site: site},
						pos:      call.pos,
					})
				}
			}
		}
	}

	// Phase 4: export facts — per-function locksets and the merged graph.
	for _, fn := range lo.fns {
		if fn.obj == nil || len(closure[fn]) == 0 {
			continue
		}
		pass.ExportObjectFact(fn.obj, &LockSet{Locks: sortedKeys(closure[fn])})
	}
	merged := dedupEdges(own)
	seenDep := make(map[string]bool)
	for _, imp := range pass.Pkg.Imports() {
		var g LockGraph
		if pass.ImportPackageFact(imp, &g) && !seenDep[imp.Path()] {
			seenDep[imp.Path()] = true
			for _, e := range g.Edges {
				merged = append(merged, rawEdge{LockEdge: e})
			}
		}
	}
	merged = dedupEdges(merged)
	if len(merged) > 0 {
		g := &LockGraph{Edges: make([]LockEdge, len(merged))}
		for i, e := range merged {
			g.Edges[i] = e.LockEdge
		}
		pass.ExportPackageFact(g)
	}

	// Phase 5: report each cycle the current package closes, once.
	lo.reportCycles(merged)
	return nil, nil
}

type lockorderPass struct {
	pass   *analysis.Pass
	fns    []*fnInfo
	byObj  map[*types.Func]*fnInfo
	shared *lockTracker
}

// importedLocks returns the lockset fact of a callee declared in another
// package (nil for same-package callees, which the fixpoint handles).
func (lo *lockorderPass) importedLocks(callee *types.Func) []string {
	if callee == nil || callee.Pkg() == nil || callee.Pkg() == lo.pass.Pkg {
		return nil
	}
	var ls LockSet
	if lo.pass.ImportObjectFact(callee, &ls) {
		return ls.Locks
	}
	return nil
}

// calleeLocks returns everything callee may acquire, from the same-package
// closure or the imported fact.
func (lo *lockorderPass) calleeLocks(callee *types.Func, closure map[*fnInfo]map[string]bool) []string {
	if fn, ok := lo.byObj[callee]; ok {
		return sortedKeys(closure[fn])
	}
	return lo.importedLocks(callee)
}

// collect walks a statement list maintaining the held-lock stack, recording
// direct acquisitions, intra-function edges, and calls with their held
// snapshot. It mirrors locksend's control-flow rules: branches fork the
// held set, defer Unlock holds to function return, `go` bodies run with an
// empty held set (but their acquisitions still count toward the enclosing
// function's lockset only when not spawned — a spawned goroutine's locks
// are taken on another stack at another time).
func (lo *lockorderPass) collect(info *fnInfo, stmts []ast.Stmt, held []lockAcq) []lockAcq {
	for _, stmt := range stmts {
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if op, ok := lo.shared.mutexOp(call); ok {
					if cls, clsOK := lo.shared.lockClass(call); clsOK {
						if op.acquire {
							acq := lockAcq{class: cls, read: op.read, pos: call.Pos()}
							info.acquires[cls] = true
							for _, h := range held {
								site := fmt.Sprintf("%s at %s: acquires %s", info.name, lo.pass.Position(call.Pos()), cls)
								info.edges = append(info.edges, rawEdge{
									LockEdge: LockEdge{From: h.class, To: cls, Site: site, ReadOnly: h.read && op.read},
									pos:      call.Pos(),
								})
							}
							held = append(held, acq)
						} else {
							for i := len(held) - 1; i >= 0; i-- {
								if held[i].class == cls {
									held = append(held[:i:i], held[i+1:]...)
									break
								}
							}
						}
						continue
					}
					// Unclassifiable mutex (local or parameter): it cannot
					// alias a field class, so it neither holds nor edges.
					continue
				}
			}
		}
		if ds, ok := stmt.(*ast.DeferStmt); ok {
			if op, ok := lo.shared.mutexOp(ds.Call); ok && !op.acquire {
				continue // deferred unlock: lock stays held to return
			}
		}
		held = lo.collectStmt(info, stmt, held)
	}
	return held
}

// collectStmt descends into one statement; compound statements fork the
// held set so a branch's unlock does not leak past the branch.
func (lo *lockorderPass) collectStmt(info *fnInfo, stmt ast.Stmt, held []lockAcq) []lockAcq {
	fork := func() []lockAcq { return append([]lockAcq(nil), held...) }
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		lo.collect(info, s.List, fork())
	case *ast.IfStmt:
		if s.Init != nil {
			lo.collectStmt(info, s.Init, held)
		}
		lo.scanExpr(info, s.Cond, held)
		lo.collect(info, s.Body.List, fork())
		if s.Else != nil {
			lo.collectStmt(info, s.Else, fork())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lo.collectStmt(info, s.Init, held)
		}
		if s.Cond != nil {
			lo.scanExpr(info, s.Cond, held)
		}
		lo.collect(info, s.Body.List, fork())
	case *ast.RangeStmt:
		lo.scanExpr(info, s.X, held)
		lo.collect(info, s.Body.List, fork())
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lo.collect(info, cc.Body, fork())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lo.collect(info, cc.Body, fork())
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				lo.collect(info, cc.Body, fork())
			}
		}
	case *ast.LabeledStmt:
		held = lo.collectStmt(info, s.Stmt, held)
	case *ast.GoStmt:
		// The spawned body runs on its own stack with nothing held, and
		// its acquisitions are not the spawner's: a caller holding a lock
		// across this `go` statement does not order itself before them.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lo.collectEscaping(info, info.name+".go-func", lit)
		}
	case *ast.DeferStmt:
		// Deferred work runs at return; locks deferred-unlocked are treated
		// as held until then, so scanning the call here would double-count.
		// A deferred closure's own acquisitions still count.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lo.collect(info, lit.Body.List, nil)
		}
	default:
		lo.scanStmt(info, stmt, held)
	}
	return held
}

// scanStmt scans a leaf statement for calls and acquisitions (which may
// appear in expressions: `x := s.get()` calls under the held set).
func (lo *lockorderPass) scanStmt(info *fnInfo, stmt ast.Stmt, held []lockAcq) {
	lo.scanNode(info, stmt, held)
}

func (lo *lockorderPass) scanExpr(info *fnInfo, expr ast.Expr, held []lockAcq) {
	if expr != nil {
		lo.scanNode(info, expr, held)
	}
}

// collectEscaping summarizes a function literal that escapes the current
// control flow (`go` body, stored callback): its internal lock-order edges
// are real program edges, and calls it makes while holding its own locks
// still produce edges (extCalls), but its lockset does not accrue to the
// enclosing function — creating a closure acquires nothing.
func (lo *lockorderPass) collectEscaping(info *fnInfo, name string, lit *ast.FuncLit) {
	sub := &fnInfo{obj: info.obj, name: name, acquires: make(map[string]bool)}
	lo.collect(sub, lit.Body.List, nil)
	info.edges = append(info.edges, sub.edges...)
	for _, call := range append(sub.calls, sub.extCalls...) {
		if len(call.held) > 0 {
			info.extCalls = append(info.extCalls, call)
		}
	}
}

// scanNode records every call in the subtree. An immediately-invoked
// function literal runs here, under the current held set; any other literal
// escapes and is summarized by collectEscaping.
func (lo *lockorderPass) scanNode(info *fnInfo, n ast.Node, held []lockAcq) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			lo.collectEscaping(info, info.name+".func", e)
			return false
		case *ast.CallExpr:
			if lit, ok := e.Fun.(*ast.FuncLit); ok {
				lo.collect(info, lit.Body.List, append([]lockAcq(nil), held...))
				for _, arg := range e.Args {
					lo.scanNode(info, arg, held)
				}
				return false
			}
			if op, ok := lo.shared.mutexOp(e); ok {
				if cls, clsOK := lo.shared.lockClass(e); clsOK && op.acquire {
					info.acquires[cls] = true
					for _, h := range held {
						site := fmt.Sprintf("%s at %s: acquires %s", info.name, lo.pass.Position(e.Pos()), cls)
						info.edges = append(info.edges, rawEdge{
							LockEdge: LockEdge{From: h.class, To: cls, Site: site, ReadOnly: h.read && op.read},
							pos:      e.Pos(),
						})
					}
				}
				return true
			}
			if callee := lo.callee(e); callee != nil {
				info.calls = append(info.calls, lockCall{
					callee: callee,
					held:   append([]lockAcq(nil), held...),
					pos:    e.Pos(),
				})
			}
		}
		return true
	})
}

// callee resolves the static *types.Func a call targets, nil for builtins,
// function values, and type conversions.
func (lo *lockorderPass) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := lo.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// reportCycles finds, for every edge this package contributed, a path back
// from its target to its source in the merged graph; edge + path is a
// cycle. Each distinct cycle (by its set of lock classes) is reported once,
// at the contributing edge's position.
func (lo *lockorderPass) reportCycles(merged []rawEdge) {
	adj := make(map[string][]LockEdge)
	for _, e := range merged {
		adj[e.From] = append(adj[e.From], e.LockEdge)
	}
	reported := make(map[string]bool)
	for _, e := range merged {
		if e.pos == token.NoPos {
			continue // a dependency's edge: its own unit reports it
		}
		if e.From == e.To {
			if e.ReadOnly {
				continue // nested RLocks of one class: shared, not a cycle
			}
			key := "self:" + e.From
			if reported[key] {
				continue
			}
			reported[key] = true
			lo.pass.Reportf(e.pos,
				"lock-order cycle: %s is acquired while an instance of it is already held (%s); recursive or paired acquisition of one lock class deadlocks the moment both are the same instance",
				e.To, e.Site)
			continue
		}
		path := shortestPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		cycle := append([]LockEdge{e.LockEdge}, path...)
		key := cycleKey(cycle)
		if reported[key] {
			continue
		}
		reported[key] = true
		var b strings.Builder
		fmt.Fprintf(&b, "lock-order cycle: %s", cycle[0].From)
		for _, ce := range cycle {
			fmt.Fprintf(&b, " → %s", ce.To)
		}
		b.WriteString("; ")
		for i, ce := range cycle {
			if i > 0 {
				b.WriteString("; ")
			}
			fmt.Fprintf(&b, "%s→%s in %s", ce.From, ce.To, ce.Site)
		}
		b.WriteString(" — opposite acquisition orders can deadlock; pick one order (DESIGN.md §8)")
		lo.pass.Reportf(e.pos, "%s", b.String())
	}
}

// shortestPath BFSes from src to dst and returns the edge path, nil if
// unreachable. Deterministic: neighbors are explored in insertion order,
// which is declaration order for own edges and fact order for imported.
func shortestPath(adj map[string][]LockEdge, src, dst string) []LockEdge {
	type item struct {
		node string
		path []LockEdge
	}
	queue := []item{{node: src}}
	visited := map[string]bool{src: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur.node] {
			if visited[e.To] {
				continue
			}
			next := append(append([]LockEdge(nil), cur.path...), e)
			if e.To == dst {
				return next
			}
			visited[e.To] = true
			queue = append(queue, item{node: e.To, path: next})
		}
	}
	return nil
}

func cycleKey(cycle []LockEdge) string {
	classes := make([]string, 0, len(cycle))
	for _, e := range cycle {
		classes = append(classes, e.From)
	}
	sort.Strings(classes)
	return strings.Join(classes, "→")
}

// dedupEdges keeps the first edge per (From, To), preserving order; a
// non-ReadOnly duplicate overrides a ReadOnly one so shared/exclusive
// classification stays conservative.
func dedupEdges(edges []rawEdge) []rawEdge {
	idx := make(map[[2]string]int)
	var out []rawEdge
	for _, e := range edges {
		k := [2]string{e.From, e.To}
		if i, ok := idx[k]; ok {
			if out[i].ReadOnly && !e.ReadOnly {
				out[i] = e
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, e)
	}
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
