package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// writeModule lays out a throwaway module for lint.Check to load and compile.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestEscape compiles a fixture module with -m=2 through the driver and
// verifies the full contract in one pass: an escape in a hotpath function is a finding, an
// escape in an unmarked function is not, a reasoned //lint:allow
// hotpathescape suppresses, and a stale allow is itself a finding.
func TestEscape(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod": "module escapee2e\n\ngo 1.24\n",
		"hot.go": `package hot

// leak escapes its local: one finding.
//
//livesim:hotpath
func leak() *int {
	x := 42
	return &x
}

// clean is arithmetic on the stack: no finding.
//
//livesim:hotpath
func clean(a, b int) int {
	return a*b + a
}

// allowed escapes deliberately, with a reason: suppressed.
//
//livesim:hotpath
func allowed() []byte {
	//lint:allow hotpathescape deliberate fixture allocation
	return make([]byte, 8)
}

// stale carries an allow with nothing to suppress: the directive is the
// finding.
//
//livesim:hotpath
func stale(a int) int {
	//lint:allow hotpathescape nothing escapes here any more
	return a + 1
}

// coldLeak escapes but is not marked hotpath: no finding.
func coldLeak() *int {
	y := 7
	return &y
}
`,
	})

	findings, stats, err := lint.Check(mod, "./...")
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	for _, f := range findings {
		t.Logf("finding: %s", f)
	}
	if stats.Packages != 1 || stats.Functions != 4 {
		t.Errorf("want stats {1 package, 4 hotpath functions}, got %+v", stats)
	}
	var gotLeak, gotStale int
	for _, f := range findings {
		switch {
		case f.Analyzer == lint.Hotpathescape && strings.Contains(f.Message, "heap") &&
			strings.Contains(f.Message, "hotpath function leak"):
			gotLeak++
		case f.Analyzer == "lintdirective" && strings.Contains(f.Message, "stale //lint:allow hotpathescape"):
			gotStale++
		default:
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if gotLeak != 1 {
		t.Errorf("want 1 escape finding in leak, got %d", gotLeak)
	}
	if gotStale != 1 {
		t.Errorf("want 1 stale-allow finding, got %d", gotStale)
	}
}

// TestEscapeNoHotpath: a module with no hotpath directives compiles nothing
// and reports nothing.
func TestEscapeNoHotpath(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod": "module escapee2e\n\ngo 1.24\n",
		"cold.go": `package cold

func Leak() *int {
	x := 1
	return &x
}
`,
	})
	findings, stats, err := lint.Check(mod, "./...")
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if len(findings) != 0 || stats.Packages != 0 {
		t.Errorf("want no findings and no packages, got %d findings, %+v", len(findings), stats)
	}
}
