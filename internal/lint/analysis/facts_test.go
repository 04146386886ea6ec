package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// testFact is a minimal fact.
type testFact struct{ N int }

func (*testFact) AFact() {}

// newMethod builds a *types.Func method on a named type in pkg, the object
// shape facts are most often attached to.
func newMethod(pkg *types.Package, typeName, method string, ptrRecv bool) *types.Func {
	tn := types.NewTypeName(token.NoPos, pkg, typeName, nil)
	named := types.NewNamed(tn, types.NewStruct(nil, nil), nil)
	var recvType types.Type = named
	if ptrRecv {
		recvType = types.NewPointer(named)
	}
	recv := types.NewVar(token.NoPos, pkg, "r", recvType)
	sig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
	return types.NewFunc(token.NoPos, pkg, method, sig)
}

// TestFactsBridgeObjectIdentity exports facts against objects of one
// types.Package and imports them against distinct types.Objects with the
// same structure — the source-checked vs export-data-imported identity split
// the structural keys exist to bridge.
func TestFactsBridgeObjectIdentity(t *testing.T) {
	store := NewFactStore()
	srcPkg := types.NewPackage("repro/internal/x", "x")
	exporter := &Pass{Pkg: srcPkg, Facts: store}
	exporter.ExportObjectFact(newMethod(srcPkg, "T", "M", true), &testFact{N: 7})
	exporter.ExportPackageFact(&testFact{N: 9})

	// A dependent package sees the same declarations through export data:
	// fresh types.Package and types.Object values, same structure.
	impPkg := types.NewPackage("repro/internal/x", "x")
	importer := &Pass{Pkg: types.NewPackage("repro/internal/y", "y"), Facts: store}

	var got testFact
	if !importer.ImportObjectFact(newMethod(impPkg, "T", "M", true), &got) {
		t.Fatal("object fact not found through a structurally equal object")
	}
	if got.N != 7 {
		t.Errorf("object fact N = %d, want 7", got.N)
	}
	var pf testFact
	if !importer.ImportPackageFact(impPkg, &pf) {
		t.Fatal("package fact not found")
	}
	if pf.N != 9 {
		t.Errorf("package fact N = %d, want 9", pf.N)
	}

	// A value receiver is a different method identity: no match.
	if importer.ImportObjectFact(newMethod(impPkg, "T", "M", false), &got) {
		t.Error("value-receiver lookup matched a pointer-receiver fact")
	}
	// Neither is a package the store has never seen.
	if importer.ImportPackageFact(importer.Pkg, &pf) {
		t.Error("package fact found for a package that exported none")
	}
}
