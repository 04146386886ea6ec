package lint_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/analysistest"
	"repro/internal/lint/loader"
)

func TestLocksend(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Locksend, "locksend")
}

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Walltime, "walltime")
}

// TestWalltimeUnrestricted: the same constructs in a main package produce no
// diagnostics (the fixture has no want comments).
func TestWalltimeUnrestricted(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Walltime, "wtok")
}

func TestAtomiccounter(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Atomiccounter, "atomiccounter")
}

func TestCtxplumb(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Ctxplumb, "ctxplumb")
}

// TestCtxplumbIgnoredCtx: in the CDN data-plane packages (matched by final
// import-path element) a function may not blank its context parameter.
func TestCtxplumbIgnoredCtx(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Ctxplumb, "cdn")
}

func TestLockorder(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Lockorder, "lockorder")
}

// TestLockorderCrossPackage seeds an AB/BA inversion across two fixture
// packages: the hub→registry edge exists only through liba's LockSet fact
// on Refresh.
func TestLockorderCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Lockorder,
		filepath.Join("lockorderx", "liba"), filepath.Join("lockorderx", "libb"))
}

func TestGoroleak(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Goroleak, "goroleak")
}

// TestGoroleakCrossPackage spawns a forever-blocking function declared in a
// dependency: the spawn is flagged via the imported NeverReturns fact.
func TestGoroleakCrossPackage(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Goroleak,
		filepath.Join("goroleakx", "liba"), filepath.Join("goroleakx", "libb"))
}

// TestAllowDirectives drives lint.Check over the directives fixture and
// checks the one suppression contract all seven names share: a reasoned
// //lint:allow <name> silences that check on the next line; a directive
// naming an unknown check or carrying no reason is itself a finding and
// suppresses nothing; a directive that matched nothing is stale.
func TestAllowDirectives(t *testing.T) {
	findings, _, err := lint.Check(filepath.Join("testdata", "src", "directives"), ".")
	if err != nil {
		t.Fatalf("lint.Check: %v", err)
	}
	for _, f := range findings {
		t.Logf("finding: %s", f)
	}

	count := func(analyzer, substr string) int {
		n := 0
		for _, f := range findings {
			if f.Analyzer == analyzer && strings.Contains(f.Message, substr) {
				n++
			}
		}
		return n
	}

	// The properly suppressed send (h.ch <- 1) must not appear: exactly the
	// two unsuppressed sends survive.
	if got := count("locksend", "channel send"); got != 2 {
		t.Errorf("want 2 unsuppressed locksend findings, got %d", got)
	}
	// The typo'd analyzer name is flagged, with the known names listed.
	if got := count("lintdirective", `unknown analyzer "locksnd"`); got != 1 {
		t.Errorf("want 1 unknown-analyzer directive finding, got %d", got)
	}
	if got := count("lintdirective", "locksend, walltime"); got != 1 {
		t.Errorf("unknown-analyzer finding should list known analyzers, got %d matches", got)
	}
	// The reasonless directive is flagged.
	if got := count("lintdirective", "has no reason"); got != 1 {
		t.Errorf("want 1 missing-reason directive finding, got %d", got)
	}
	// The directive that suppressed nothing is stale — itself a finding.
	if got := count("lintdirective", "stale //lint:allow locksend"); got != 1 {
		t.Errorf("want 1 stale-directive finding, got %d", got)
	}
	// hotpathescape is a known name under the same contract: its directive
	// matched no escape diagnostic, so the same pass reports it stale.
	if got := count("lintdirective", "stale //lint:allow hotpathescape"); got != 1 {
		t.Errorf("want 1 stale hotpathescape directive finding, got %d", got)
	}
	if got := len(findings); got != 6 {
		t.Errorf("want 6 findings total (2 sends + 4 directive diagnostics), got %d", got)
	}
}

// TestLockShapes is the lock-shape matrix that keeps both lock analyzers:
// per shape (one fixture file each), how many findings each reports.
// locksend alone misses an AB/BA order built through helper calls;
// lockorder alone misses a nesting whose order is acyclic.
func TestLockShapes(t *testing.T) {
	findings, _, err := lint.Check(filepath.Join("testdata", "src", "lockshapes"), ".")
	if err != nil {
		t.Fatalf("lint.Check: %v", err)
	}
	type counts struct{ locksend, lockorder int }
	got := make(map[string]counts)
	for _, f := range findings {
		c := got[filepath.Base(f.Pos.Filename)]
		switch f.Analyzer {
		case "locksend":
			c.locksend++
		case "lockorder":
			c.lockorder++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
		got[filepath.Base(f.Pos.Filename)] = c
	}
	want := map[string]counts{
		"nested.go":   {1, 0}, // a nested Lock, acyclic order
		"reversed.go": {2, 1}, // that nesting plus the reverse in another body
		"helpers.go":  {0, 1}, // an AB/BA order made only through helper calls
		"acyclic.go":  {0, 0}, // an acyclic order through one helper
	}
	for file, w := range want {
		if got[file] != w {
			t.Errorf("%s: (locksend, lockorder) = %v, want %v", file, got[file], w)
		}
	}
}

// TestTreeLockGraph pins the tree's lock graph to the call-through edges
// DESIGN.md §8 names: a new edge is a new lock order the design must own.
func TestTreeLockGraph(t *testing.T) {
	prog, err := loader.Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	graph := &analysis.Analyzer{
		Name: "lockgraph",
		Doc:  "collects each package's merged LockGraph fact",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			var g lint.LockGraph
			if pass.ImportPackageFact(pass.Pkg, &g) {
				for _, e := range g.Edges {
					if edge := e.From + " → " + e.To; !slices.Contains(got, edge) {
						got = append(got, edge)
					}
				}
			}
			return nil, nil
		},
	}
	err = lint.Analyze(prog, []*analysis.Analyzer{lint.Lockorder, graph},
		func(*loader.Package, *analysis.Analyzer, analysis.Diagnostic) {})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"repro/internal/cdn.Origin.mu → repro/internal/metrics.Registry.mu",
		"repro/internal/clock.Wheel.runMu → repro/internal/clock.Wheel.mu",
		"repro/internal/control.Service.mu → repro/internal/metrics.Registry.mu",
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("lock graph edges:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestSuiteNames pins the names the //lint:allow directives and the CI job
// reference — the six AST analyzers, then hotpathescape as the seventh
// known directive name: renaming one silently orphans every suppression.
func TestSuiteNames(t *testing.T) {
	want := []string{"locksend", "walltime", "atomiccounter", "ctxplumb", "lockorder", "goroleak"}
	as := lint.Analyzers()
	if len(as) != len(want) {
		t.Fatalf("want %d analyzers, got %d", len(want), len(as))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d: want name %q, got %q", i, want[i], a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
	if got := lint.Names(); !slices.Equal(got, append(want, "hotpathescape")) {
		t.Errorf("directive names = %v, want the six analyzers then hotpathescape", got)
	}
}
