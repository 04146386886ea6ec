// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against // want annotations, mirroring (a useful subset
// of) golang.org/x/tools/go/analysis/analysistest:
//
//	ch <- v // want `channel send while`
//	mu.Lock() // want `send` `nested`
//
// Each expectation is a backquoted or double-quoted regular expression; a
// line's diagnostics and expectations must match one-to-one. Fixture
// packages live under internal/lint/testdata/src/<name> and are ordinary
// compilable Go so the type checker sees exactly what production code looks
// like.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Run loads the fixture packages testdata/src/<dir> in one load, applies the
// analyzer through the driver's own lint.Analyze — so a fact exported by one
// fixture package is visible to the next — with no //lint:allow filtering
// (that is lint.Check's concern, tested separately), and diffs each
// package's diagnostics against its own // want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, dirs ...string) {
	t.Helper()
	patterns := make([]string, len(dirs))
	for i, dir := range dirs {
		patterns[i] = "./" + filepath.ToSlash(dir)
	}
	prog, err := loader.Load(filepath.Join(testdata, "src"), patterns...)
	if err != nil {
		t.Fatalf("loading fixtures %v: %v", dirs, err)
	}
	if len(prog.Packages) != len(dirs) {
		t.Fatalf("loading fixtures %v: got %d packages", dirs, len(prog.Packages))
	}
	got := make(map[*loader.Package][]analysis.Diagnostic)
	err = lint.Analyze(prog, []*analysis.Analyzer{a}, func(pkg *loader.Package, _ *analysis.Analyzer, d analysis.Diagnostic) {
		got[pkg] = append(got[pkg], d)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		check(t, pkg, a.Name, got[pkg])
	}
}

// check diffs diagnostics against the fixture's // want comments.
func check(t *testing.T, pkg *loader.Package, name string, got []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range parseWants(t, pos.String(), strings.TrimPrefix(text, "want ")) {
					wants[key{pos.Filename, pos.Line}] = append(wants[key{pos.Filename, pos.Line}], pat)
				}
			}
		}
	}

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range got {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		found := false
		for _, pat := range wants[k] {
			if !matched[pat] && pat.MatchString(d.Message) {
				matched[pat] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected %s diagnostic: %s", pos, name, d.Message)
		}
	}
	for k, pats := range wants {
		for _, pat := range pats {
			if !matched[pat] {
				t.Errorf("%s:%d: no %s diagnostic matching %q", k.file, k.line, name, pat)
			}
		}
	}
}

// parseWants extracts the quoted or backquoted regexps from a want comment.
func parseWants(t *testing.T, pos, s string) []*regexp.Regexp {
	t.Helper()
	var pats []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return pats
		}
		var raw, rest string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated backquote in want comment", pos)
			}
			raw, rest = s[1:1+end], s[2+end:]
		case '"':
			end := strings.IndexByte(s[1:], '"')
			if end < 0 {
				t.Fatalf("%s: unterminated quote in want comment", pos)
			}
			var err error
			raw, err = strconv.Unquote(s[:2+end])
			if err != nil {
				t.Fatalf("%s: bad want string: %v", pos, err)
			}
			rest = s[2+end:]
		default:
			t.Fatalf("%s: want expectation must be quoted or backquoted, got %q", pos, s)
		}
		pat, err := regexp.Compile(raw)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
		}
		pats = append(pats, pat)
		s = rest
	}
}
