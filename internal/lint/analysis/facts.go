package analysis

import (
	"go/types"
	"reflect"
)

// Fact is a typed datum an analyzer attaches to an object or package while
// analyzing one package and reads back when analyzing a dependent one — the
// x/tools facts contract. Concrete fact types are pointers to structs.
type Fact interface {
	AFact() // marker method, discourages accidental implementations
}

// factKey addresses one fact: the declaring package's import path, a stable
// object key within it ("" for package-level facts), and the fact's concrete
// type. Objects are keyed structurally — "Name" for package-level
// functions/vars, "(T).M" / "(*T).M" for methods — so a fact exported while
// type-checking a package from source is found again when the same object is
// reached through gc export data in a dependent package, where the
// types.Object identity differs but the structure does not.
type factKey struct {
	pkg string       // import path
	obj string       // object key, "" for a package fact
	typ reflect.Type // fact type, e.g. *lint.LockSet
}

// objectKey renders the structural key for obj. It covers the object kinds
// facts are attached to (package-level funcs, vars, types, and methods);
// other objects get a best-effort name.
func objectKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			ptr := ""
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
				ptr = "*"
			}
			if n, ok := t.(*types.Named); ok {
				return "(" + ptr + n.Obj().Name() + ")." + f.Name()
			}
		}
	}
	return obj.Name()
}

// FactStore holds the facts of every package analyzed so far. One store is
// shared across a whole run, packages analyzed in dependency order on one
// goroutine, so a fact is a plain Go value that never leaves the process.
type FactStore struct {
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: make(map[factKey]Fact)}
}

func (s *FactStore) put(pkg, obj string, fact Fact) {
	s.facts[factKey{pkg, obj, reflect.TypeOf(fact)}] = fact
}

// get copies the stored fact (if any) into the pointed-to value of fact.
func (s *FactStore) get(pkg, obj string, fact Fact) bool {
	stored, ok := s.facts[factKey{pkg, obj, reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	// The key carries the concrete pointer type, so the two agree.
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// ExportObjectFact attaches fact to obj (a function, method, var, or type
// of the package under analysis).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	p.Facts.put(obj.Pkg().Path(), objectKey(obj), fact)
}

// ImportObjectFact copies the fact of the given type attached to obj — by
// this unit or by the unit that analyzed obj's declaring package — into
// fact, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.Facts.get(obj.Pkg().Path(), objectKey(obj), fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.Facts.put(p.Pkg.Path(), "", fact)
}

// ImportPackageFact copies the package-level fact of the given type for pkg
// (typically an import of the package under analysis) into fact.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	return p.Facts.get(pkg.Path(), "", fact)
}
