package lint

import (
	"go/ast"
	"go/token"
)

// lockwalk.go is the one held-lock walker locksend and lockorder share. It
// walks a function body in execution order and tracks which mutexes are
// held, under one set of rules:
//
//   - branches fork the held set (blocks, if/else, loop bodies and posts,
//     switch and select clauses): an unlock on one branch does not release
//     the lock for the code after the branch;
//   - `defer mu.Unlock()` keeps the lock held until the function returns;
//   - `go` bodies and stored function literals are separate roots with
//     nothing held: they run on another stack, or later; a deferred literal
//     runs at return and is walked from nothing held too;
//   - an immediately-invoked literal runs in place, under the current set;
//   - every expression position is scanned under the held set: if, switch
//     and type-switch init and tag, for init/cond/post, range X, select comm
//     clauses, case expressions, and the arguments of `go` and `defer`.
//
// The analyzers differ only in what they do at each event, which they pass
// in as a lockVisitor.

// heldLock is one lock held at some point of a function body.
type heldLock struct {
	key   string // normalized receiver expression ("h.mu"): decides the unlock match
	class string // program-wide lock class; "" when unclassifiable
	read  bool   // RLock
	pos   token.Pos
}

// lockVisitor is one analyzer's per-event logic.
type lockVisitor interface {
	// acquire sees a Lock/RLock before it joins held.
	acquire(call *ast.CallExpr, lk heldLock, held []heldLock)
	// visit sees every channel send and every call that is not a mutex
	// operation, with the locks held where it runs.
	visit(n ast.Node, held []heldLock)
	// escape returns the visitor for a function literal that runs
	// elsewhere: a `go` body (spawned) or a stored literal.
	escape(spawned bool) lockVisitor
}

// walkLocks walks every function in file from an empty held set: each
// declared body, and the literals of package-level initializers, which are
// stored and so are roots. visitor returns the visitor for a declaration,
// and is called with nil for each package-level declaration.
func (t *lockTracker) walkLocks(file *ast.File, visitor func(*ast.FuncDecl) lockVisitor) {
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				t.walkStmts(visitor(d), d.Body.List, nil)
			}
		case *ast.GenDecl:
			t.walkExpr(visitor(nil), d, nil)
		}
	}
}

// walkStmts walks a statement list in order and returns the held set after
// it. A held set is never modified in place, so a branch forks it by
// dropping what its walk returns.
func (t *lockTracker) walkStmts(v lockVisitor, stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, stmt := range stmts {
		held = t.walkStmt(v, stmt, held)
	}
	return held
}

// walkStmt walks one statement and returns the held set after it.
func (t *lockTracker) walkStmt(v lockVisitor, stmt ast.Stmt, held []heldLock) []heldLock {
	switch s := stmt.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, ok := t.mutexOp(call); ok {
				return t.lockOp(v, call, op, held)
			}
		}
		t.walkExpr(v, s, held)
	case *ast.GoStmt:
		t.walkLater(v, v.escape(true), s.Call, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps its lock held to return.
		if _, ok := t.mutexOp(s.Call); !ok {
			t.walkLater(v, v, s.Call, held)
		}
	case *ast.LabeledStmt:
		return t.walkStmt(v, s.Stmt, held)
	case *ast.BlockStmt:
		t.walkStmts(v, s.List, held)
	case *ast.IfStmt:
		held = t.walkStmt(v, s.Init, held)
		t.walkExpr(v, s.Cond, held)
		t.walkStmts(v, s.Body.List, held)
		t.walkStmt(v, s.Else, held)
	case *ast.ForStmt:
		held = t.walkStmt(v, s.Init, held)
		t.walkExpr(v, s.Cond, held)
		t.walkStmts(v, s.Body.List, held)
		t.walkStmt(v, s.Post, held)
	case *ast.RangeStmt:
		t.walkExpr(v, s.X, held)
		t.walkStmts(v, s.Body.List, held)
	case *ast.SwitchStmt:
		held = t.walkStmt(v, s.Init, held)
		t.walkExpr(v, s.Tag, held)
		t.walkClauses(v, s.Body, held)
	case *ast.TypeSwitchStmt:
		held = t.walkStmt(v, s.Init, held)
		t.walkStmt(v, s.Assign, held)
		t.walkClauses(v, s.Body, held)
	case *ast.SelectStmt:
		t.walkClauses(v, s.Body, held)
	default:
		t.walkExpr(v, s, held)
	}
	return held
}

// lockOp applies one Lock/RLock/Unlock/RUnlock statement to held.
func (t *lockTracker) lockOp(v lockVisitor, call *ast.CallExpr, op mutexCall, held []heldLock) []heldLock {
	if !op.acquire {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i].key == op.recvKey {
				return append(held[:i:i], held[i+1:]...)
			}
		}
		return held
	}
	class, _ := t.lockClass(call)
	lk := heldLock{key: op.recvKey, class: class, read: op.read, pos: op.pos}
	v.acquire(call, lk, held)
	return append(held[:len(held):len(held)], lk)
}

// walkClauses walks switch and select clauses: case expressions and comm
// statements under held, then each body.
func (t *lockTracker) walkClauses(v lockVisitor, body *ast.BlockStmt, held []heldLock) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				t.walkExpr(v, e, held)
			}
			t.walkStmts(v, c.Body, held)
		case *ast.CommClause:
			t.walkStmt(v, c.Comm, held)
			t.walkStmts(v, c.Body, held)
		}
	}
}

// walkLater walks a `go` or `defer` call: its function value and arguments
// are evaluated here, under held; a literal body runs later from nothing
// held, walked by body.
func (t *lockTracker) walkLater(v, body lockVisitor, call *ast.CallExpr, held []heldLock) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		t.walkStmts(body, lit.Body.List, nil)
	} else {
		t.walkExpr(v, call.Fun, held)
	}
	for _, arg := range call.Args {
		t.walkExpr(v, arg, held)
	}
}

// walkExpr scans an expression or leaf statement, which runs in place under
// held. A literal invoked on the spot runs here too; any other literal is
// stored, so it is a root of its own.
func (t *lockTracker) walkExpr(v lockVisitor, n ast.Node, held []heldLock) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			t.walkStmts(v.escape(false), e.Body.List, nil)
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(e.Fun).(*ast.FuncLit); ok {
				for _, arg := range e.Args {
					t.walkExpr(v, arg, held)
				}
				t.walkStmts(v, lit.Body.List, held)
				return false
			}
			v.visit(e, held)
		case *ast.SendStmt:
			v.visit(e, held)
		}
		return true
	})
}
