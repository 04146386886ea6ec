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
// the held-lock walker locksend also runs (lockwalk.go) tracks the held set;
// locks it cannot classify (locals, parameters) are skipped. Acquisitions
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

// lockCall is a call made while locks were held, or a call that contributes
// the callee's lockset to the caller's.
type lockCall struct {
	callee *types.Func
	held   []heldLock // the classified locks held at the call site
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

	// Phase 1: per-function summaries, in declaration order. Package-level
	// initializers summarize as an "init" with no object: no fact, but
	// their literals' edges count.
	for _, file := range pass.Files {
		lo.shared.walkLocks(file, func(fd *ast.FuncDecl) lockVisitor {
			info := &fnInfo{name: "init", acquires: make(map[string]bool)}
			if fd != nil {
				info.obj, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
				info.name = fd.Name.Name
			}
			lo.fns = append(lo.fns, info)
			if info.obj != nil {
				lo.byObj[info.obj] = info
			}
			return &orderVisitor{lo: lo, fn: info, name: info.name}
		})
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

// orderVisitor records the walker's events into one function's summary.
// Inside an escaped literal (a `go` body or a stored callback) edges are
// real program edges, and calls made while the literal holds its own locks
// still produce edges (extCalls), but its acquisitions and calls do not
// accrue to the enclosing function's lockset: creating a closure acquires
// nothing, and a spawned goroutine's locks are taken on another stack.
type orderVisitor struct {
	lo      *lockorderPass
	fn      *fnInfo
	name    string // the function, or the literal inside it, for edge sites
	escaped bool
}

func (o *orderVisitor) acquire(call *ast.CallExpr, lk heldLock, held []heldLock) {
	if lk.class == "" {
		return // a local or parameter mutex cannot alias a field class
	}
	if !o.escaped {
		o.fn.acquires[lk.class] = true
	}
	for _, h := range held {
		if h.class == "" {
			continue
		}
		site := fmt.Sprintf("%s at %s: acquires %s", o.name, o.lo.pass.Position(lk.pos), lk.class)
		o.fn.edges = append(o.fn.edges, rawEdge{
			LockEdge: LockEdge{From: h.class, To: lk.class, Site: site, ReadOnly: h.read && lk.read},
			pos:      lk.pos,
		})
	}
}

func (o *orderVisitor) visit(n ast.Node, held []heldLock) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	callee := o.lo.callee(call)
	if callee == nil {
		return
	}
	c := lockCall{callee: callee, pos: call.Pos()}
	for _, h := range held {
		if h.class != "" {
			c.held = append(c.held, h)
		}
	}
	switch {
	case !o.escaped:
		o.fn.calls = append(o.fn.calls, c)
	case len(c.held) > 0:
		o.fn.extCalls = append(o.fn.extCalls, c)
	}
}

func (o *orderVisitor) escape(spawned bool) lockVisitor {
	name := o.name + ".func"
	if spawned {
		name = o.name + ".go-func"
	}
	return &orderVisitor{lo: o.lo, fn: o.fn, name: name, escaped: true}
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
