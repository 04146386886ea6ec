package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// lockclass.go is the mutex-call classifier behind the held-lock walker
// (lockwalk.go). Every lock the walker holds carries two identities,
// computed here for a call like `e.RLock()`:
//
//   - recvKey: the receiver expression, normalized through embedded-struct
//     promotion. It decides which Unlock releases the lock, and locksend
//     prints it. `e.Lock()` on a struct embedding sync.Mutex and
//     `e.Mutex.Lock()` are the same lock; rendering the promoted call as
//     "e" and the explicit one as "e.Mutex" would leave a
//     lock-via-promotion / unlock-via-field pair as a phantom held lock.
//     Both render "e.Mutex".
//
//   - class: the declaring struct field — "repro/internal/cdn.Edge.mu" —
//     shared by every instance of the type, or the package-level variable
//     for global mutexes; lockorder keys its graph by it. Local and
//     parameter mutexes have no class, and lockorder skips them.

// mutexCall describes one sync.Mutex / sync.RWMutex method call.
type mutexCall struct {
	recvKey string // normalized receiver expression, e.g. "e.Mutex"
	acquire bool
	read    bool // RLock/RUnlock
	pos     token.Pos
}

// lockTracker resolves mutex calls against one pass's type information.
type lockTracker struct {
	pass *analysis.Pass
}

func newLockTracker(pass *analysis.Pass) *lockTracker {
	return &lockTracker{pass: pass}
}

// mutexOp reports whether call is a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex (including promoted calls through embedded
// structs and calls through a sync.Locker interface).
func (t *lockTracker) mutexOp(call *ast.CallExpr) (mutexCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexCall{}, false
	}
	fn, ok := t.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexCall{}, false
	}
	mc := mutexCall{pos: call.Pos()}
	switch fn.Name() {
	case "Lock":
		mc.acquire = true
	case "RLock":
		mc.acquire, mc.read = true, true
	case "Unlock":
	case "RUnlock":
		mc.read = true
	default:
		return mutexCall{}, false
	}
	mc.recvKey = t.recvKey(sel)
	return mc, true
}

// recvKey renders the receiver, appending the embedded-field hops a
// promoted method call leaves implicit.
func (t *lockTracker) recvKey(sel *ast.SelectorExpr) string {
	key := types.ExprString(sel.X)
	msel, ok := t.pass.TypesInfo.Selections[sel]
	if !ok || len(msel.Index()) < 2 {
		return key
	}
	// Promoted method: Index()[:len-1] are the implicit embedded fields.
	typ := msel.Recv()
	for _, i := range msel.Index()[:len(msel.Index())-1] {
		f := structField(typ, i)
		if f == nil {
			return key
		}
		key += "." + f.Name()
		typ = f.Type()
	}
	return key
}

// lockClass computes the program-wide class of the mutex a call operates
// on: the declaring struct field or package-level variable. ok is false
// for locals, parameters, and receivers the classifier cannot see through
// (interface values, map index results).
func (t *lockTracker) lockClass(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	// Promoted method on an embedded mutex: the field chain is in the
	// method selection itself.
	if msel, ok := t.pass.TypesInfo.Selections[sel]; ok && len(msel.Index()) >= 2 {
		return classFromFieldPath(msel.Recv(), msel.Index()[:len(msel.Index())-1])
	}
	// Direct method: classify the receiver expression.
	return t.exprClass(sel.X)
}

// exprClass classifies a mutex-valued expression.
func (t *lockTracker) exprClass(x ast.Expr) (string, bool) {
	switch e := x.(type) {
	case *ast.SelectorExpr:
		// A field selection (s.mu, s.inner.mu, shards[i].mu) — possibly
		// itself through embedded fields — or a qualified package-level
		// variable (pkg.Mu).
		if fsel, ok := t.pass.TypesInfo.Selections[e]; ok && fsel.Kind() == types.FieldVal {
			return classFromFieldPath(fsel.Recv(), fsel.Index())
		}
		if v, ok := t.pass.TypesInfo.Uses[e.Sel].(*types.Var); ok {
			return packageVarClass(v)
		}
	case *ast.Ident:
		if v, ok := t.pass.TypesInfo.Uses[e].(*types.Var); ok {
			return packageVarClass(v)
		}
	case *ast.ParenExpr:
		return t.exprClass(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.exprClass(e.X)
		}
	case *ast.StarExpr:
		return t.exprClass(e.X)
	}
	return "", false
}

// packageVarClass classifies a package-level mutex variable.
func packageVarClass(v *types.Var) (string, bool) {
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return v.Pkg().Path() + "." + v.Name(), true
	}
	return "", false
}

// classFromFieldPath walks a field index path from recv and returns
// "pkgpath.Owner.field" for the final field, where Owner is the named
// struct that declares it.
func classFromFieldPath(recv types.Type, fields []int) (string, bool) {
	if len(fields) == 0 {
		return "", false
	}
	typ := recv
	for _, i := range fields[:len(fields)-1] {
		f := structField(typ, i)
		if f == nil {
			return "", false
		}
		typ = f.Type()
	}
	owner, ok := namedOf(typ)
	if !ok {
		return "", false
	}
	f := structField(typ, fields[len(fields)-1])
	if f == nil || owner.Obj().Pkg() == nil {
		return "", false
	}
	return owner.Obj().Pkg().Path() + "." + owner.Obj().Name() + "." + f.Name(), true
}

// structField returns field i of the struct underlying typ (through one
// pointer), nil if typ is not a struct or i is out of range.
func structField(typ types.Type, i int) *types.Var {
	t := typ
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok || i < 0 || i >= s.NumFields() {
		return nil
	}
	return s.Field(i)
}

// namedOf unwraps one pointer and reports the named type, if any.
func namedOf(typ types.Type) (*types.Named, bool) {
	t := typ
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}
