package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/lint/loader"
)

// Hotpathescape is the compiler-assisted member of the suite (DESIGN.md §8):
// every //livesim:hotpath function must be escape-free, on every path. The
// exact budget each directive names counts, on the path its test runs, what
// the compiler does not report: []byte↔string copies, a closure's append, a
// fmt call with no arguments.
//
// go/types cannot see escapes — they are a property of the gc backend's
// escape analysis — so this pass asks the compiler itself: each loaded
// package containing a hotpath function is recompiled with
// `go tool compile -m=2` against the export data the load already produced
// (the same files the type checker imported), and the emitted escape
// diagnostics are mapped back onto the hotpath functions' source ranges.
// Invoking the compiler directly instead of `go build -gcflags=-m=2`
// sidesteps the build cache, which swallows diagnostics on every warm run.
//
// Two diagnostic shapes fail the check inside a hotpath function:
//
//	moved to heap: x        — a local was forced to the heap (one
//	                          allocation per call)
//	<expr> escapes to heap  — an allocation the function performs
//
// "leaking param" diagnostics are deliberately NOT failures: a leaking
// pointer parameter costs nothing per call when the pointee is already
// heap-resident (a method receiver, a connection, a store), which is every
// hot-path signature in this repo — the allocation, if any, surfaces as
// "moved to heap" at the caller, where this check sees it if the caller is
// itself a hotpath function.
//
// It is not an analysis.Analyzer (it needs the whole load, not one typed
// package), but its diagnostics go through the same //lint:allow pass as the
// other six names.
const Hotpathescape = "hotpathescape"

// hotpathDirective marks a function as allocation-budgeted:
// "//livesim:hotpath <TestName>" names the test beside it that pins the
// function's allocations with testing.AllocsPerRun
// (TestHotpathsNameTheirBudget holds every directive to that).
const hotpathDirective = "livesim:hotpath"

// isHotpath reports whether the function's doc comment carries the
// //livesim:hotpath directive.
func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), hotpathDirective) {
			return true
		}
	}
	return false
}

// Stats summarizes the escape pass for the clean-run report.
type Stats struct {
	Packages  int // packages containing hotpath functions
	Functions int // hotpath functions checked
}

// hotRange is the source extent of one hotpath function.
type hotRange struct {
	name       string
	file       string
	start, end int // line numbers, inclusive
}

// escapeTarget is one package with hotpath functions and, after the compile
// fan-out, its -m=2 output.
type escapeTarget struct {
	pkg    *loader.Package
	ranges []hotRange
	out    []byte
	err    error
}

// escapePass compiles every package of prog that has hotpath functions with
// -m=2 and reports the escapes inside them.
func escapePass(prog *loader.Program, report func(pos token.Position, msg string)) (Stats, error) {
	var (
		targets []*escapeTarget
		stats   Stats
	)
	for _, pkg := range prog.Packages {
		var ranges []hotRange
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && isHotpath(fd) {
					start, end := pkg.Fset.Position(fd.Pos()), pkg.Fset.Position(fd.End())
					ranges = append(ranges, hotRange{fd.Name.Name, start.Filename, start.Line, end.Line})
				}
			}
		}
		if len(ranges) > 0 {
			targets = append(targets, &escapeTarget{pkg: pkg, ranges: ranges})
			stats.Packages++
			stats.Functions += len(ranges)
		}
	}
	if len(targets) == 0 {
		return stats, nil
	}

	tmp, err := os.MkdirTemp("", "hotpathescape")
	if err != nil {
		return stats, err
	}
	defer os.RemoveAll(tmp)
	importcfg := filepath.Join(tmp, "importcfg")
	if err := writeImportcfg(importcfg, prog.Exports); err != nil {
		return stats, err
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, t := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			t.out, t.err = compileM2(t.pkg, importcfg, filepath.Join(tmp, fmt.Sprintf("pkg%d.o", i)))
		}()
	}
	wg.Wait()
	for _, t := range targets {
		if t.err != nil {
			return stats, t.err
		}
		diagnose(t.out, t.ranges, report)
	}
	return stats, nil
}

func writeImportcfg(path string, exports map[string]string) error {
	paths := make([]string, 0, len(exports))
	for p := range exports {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&b, "packagefile %s=%s\n", p, exports[p])
	}
	return os.WriteFile(path, []byte(b.String()), 0o666)
}

// compileM2 compiles one package with -m=2 and returns the diagnostics.
func compileM2(pkg *loader.Package, importcfg, objOut string) ([]byte, error) {
	args := append([]string{"tool", "compile",
		"-p", pkg.ImportPath, "-importcfg", importcfg, "-m=2", "-o", objOut}, pkg.Files...)
	cmd := exec.Command("go", args...)
	cmd.Dir = pkg.Dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s: compiling %s: %v\n%s", Hotpathescape, pkg.ImportPath, err, out)
	}
	return out, nil
}

// diagLine matches one compiler diagnostic: file:line:col: message.
var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// isEscape reports whether a -m=2 diagnostic means "this function puts
// something on the heap".
func isEscape(msg string) bool {
	return strings.HasPrefix(msg, "moved to heap: ") || strings.HasSuffix(msg, "escapes to heap")
}

// diagnose reports the escape diagnostics in out that fall inside ranges.
func diagnose(out []byte, ranges []hotRange, report func(pos token.Position, msg string)) {
	seen := make(map[token.Position]bool)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := diagLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := strings.TrimSuffix(m[4], ":")
		if !isEscape(msg) {
			continue
		}
		pos := token.Position{Filename: m[1]}
		pos.Line, _ = strconv.Atoi(m[2])
		pos.Column, _ = strconv.Atoi(m[3])
		var fn string
		for _, r := range ranges {
			if r.file == pos.Filename && pos.Line >= r.start && pos.Line <= r.end {
				fn = r.name
				break
			}
		}
		if fn == "" || seen[pos] {
			// -m=2 describes one escape several ways at one position
			// ("moved to heap: x" and "x escapes to heap"); one finding.
			continue
		}
		seen[pos] = true
		report(pos, fmt.Sprintf("%s in //livesim:hotpath function %s; hot-path data must stay on the stack or in pooled buffers (DESIGN.md §8)", msg, fn))
	}
}
