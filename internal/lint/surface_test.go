package lint_test

import (
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/loader"
)

// unusedExports is the pinned count of exported identifiers under internal/
// that no other package's program code calls: exported funcs, and exported
// methods of exported concrete types, declared outside testutil and lint,
// that no non-test file of another package (cmd/, examples/ and bench/
// included) references, leaving out every method that satisfies an
// interface type of the program. Each is an export only tests reach, or
// none. ROADMAP's SURFACE item cuts it: a cut lowers it, a new test-only
// export raises it.
const unusedExports = 142

// TestUnusedExportCount pins the unused export surface to unusedExports and,
// on a mismatch or under -v, prints every name it counted.
func TestUnusedExportCount(t *testing.T) {
	root := filepath.Join("..", "..")
	prog, err := loader.Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	benchProg, err := loader.Load(filepath.Join(root, "bench"), "./...")
	if err != nil {
		t.Fatal(err)
	}

	// used holds every func and method a non-test file references from a
	// package other than its own. The bench module sees this module through
	// export data, so objects are matched by name, not identity.
	used := make(map[string]bool)
	for _, pkg := range append(prog.Packages, benchProg.Packages...) {
		for _, obj := range pkg.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() != pkg.ImportPath {
				used[funcKey(fn)] = true
			}
		}
	}
	ifaces := programInterfaces(prog)

	var names []string
	for _, pkg := range prog.Packages {
		path := pkg.ImportPath
		if !strings.HasPrefix(path, "repro/internal/") ||
			path == "repro/internal/testutil" || path == "repro/internal/lint" || strings.HasPrefix(path, "repro/internal/lint/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[funcKey(obj)] {
					names = append(names, funcKey(obj))
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || !obj.Exported() || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[funcKey(m)] && !satisfiesInterface(named, m.Name(), ifaces) {
						names = append(names, funcKey(m))
					}
				}
			}
		}
	}
	sort.Strings(names)
	if testing.Verbose() || len(names) != unusedExports {
		t.Logf("unused exports (%d):\n  %s", len(names), strings.Join(names, "\n  "))
	}
	if len(names) != unusedExports {
		t.Errorf("unused exports = %d, pinned %d", len(names), unusedExports)
	}
}

// funcKey names a func or method by its package path, its receiver's type
// name and its own name, the same whether the object was type-checked from
// source or imported from export data.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Pkg().Path() + "." + fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key = fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return key
}

// programInterfaces is every interface type the program can name: each one
// its packages declare or spell out, and each declared in a package of their
// import graph, standard library and the universe's error included.
func programInterfaces(prog *loader.Program) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range prog.Packages {
		walk(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// satisfiesInterface reports whether T or *T implements an interface that
// has a method called name.
func satisfiesInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, name); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
