// Package lint hosts the repo's custom static checks and the driver that runs
// them with //lint:allow suppression. Each check owns one invariant that
// nothing else catches (DESIGN.md §8 names the owners):
//
//	locksend      — no blocking op, and no second lock, while a
//	                sync.Mutex/RWMutex is held in the same function body,
//	                literals it invokes on the spot included (§5a)
//	walltime      — every package but main takes time from an injected
//	                internal/clock.Clock and randomness from internal/rng,
//	                never the wall clock or global math/rand
//	atomiccounter — no address-based sync/atomic calls, so a counter is
//	                atomic everywhere or nowhere by type
//	ctxplumb      — HTTP requests carry contexts; request paths derive from
//	                the caller's context rather than context.Background
//	lockorder     — the whole-program lock-acquisition graph is acyclic
//	                (no AB/BA deadlocks), propagated across packages via
//	                facts
//	                (locksend and lockorder run one held-lock walker,
//	                lockwalk.go, and differ only in what they do at each
//	                event)
//	goroleak      — every `go` statement has a provable termination path
//	hotpathescape — //livesim:hotpath functions are escape-free according
//	                to the compiler itself (escape.go; compiler-assisted, so
//	                it runs over the whole load rather than as an Analyzer)
//
// Check is the one entry point: one `go list -export` load, the six AST
// analyzers over each package in dependency order against one in-memory fact
// store, then the escape pass over the same load, every diagnostic passing
// through one //lint:allow suppression and stale-directive pass.
//
// False positives are suppressed in place with a reasoned directive:
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or on the line directly above it, the same contract
// for all seven names. A directive is scoped to the named check at that
// position; it does not blanket the line for the others. Directives naming
// an unknown check, carrying no reason, or matching no finding (stale — the
// code was fixed but the suppression lingered, ready to mask the next
// regression) are themselves diagnostics.
package lint

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/loader"
)

// Analyzers returns the AST analyzers in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Locksend,
		Walltime,
		Atomiccounter,
		Ctxplumb,
		Lockorder,
		Goroleak,
	}
}

// Names returns every name a //lint:allow directive may carry: the
// analyzers, then Hotpathescape.
func Names() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return append(names, Hotpathescape)
}

// Finding is one post-suppression diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// allowKey identifies a suppressed (analyzer, file, line) cell.
type allowKey struct {
	analyzer string
	file     string
	line     int
}

// directive is one well-formed //lint:allow, tracked for staleness.
type directive struct {
	name string
	pos  token.Position
	used bool
}

const allowPrefix = "lint:allow"

// directiveCheck is the name findings about the directives themselves carry.
const directiveCheck = "lintdirective"

// collectAllows parses every //lint:allow directive in the program. A
// directive suppresses its check on the directive's own line (trailing
// comment) and on the following line (standalone comment above the
// statement). Malformed or unknown-name directives are returned as findings
// so they fail the build like any other diagnostic.
func collectAllows(prog *loader.Program) (map[allowKey]*directive, []*directive, []Finding) {
	names := Names()
	allows := make(map[allowKey]*directive)
	var directives []*directive
	var bad []Finding
	malformed := func(pos token.Position, format string, args ...interface{}) {
		bad = append(bad, Finding{Analyzer: directiveCheck, Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Syntax {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					if !strings.HasPrefix(text, allowPrefix) {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
					switch {
					case len(fields) == 0:
						malformed(pos, "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\"")
					case !slices.Contains(names, fields[0]):
						malformed(pos, "//lint:allow names unknown analyzer %q (known: %s)", fields[0], strings.Join(names, ", "))
					case len(fields) < 2:
						malformed(pos, "//lint:allow %s has no reason; suppressions must say why", fields[0])
					default:
						d := &directive{name: fields[0], pos: pos}
						directives = append(directives, d)
						allows[allowKey{d.name, pos.Filename, pos.Line}] = d
						allows[allowKey{d.name, pos.Filename, pos.Line + 1}] = d
					}
				}
			}
		}
	}
	return allows, directives, bad
}

// Analyze applies analyzers to every package of prog, dependencies first,
// against one fresh in-memory fact store, so a fact one package exports is
// visible to every later one. It is the one place a Pass is wired: Check and
// the analysistest fixture runner both come through here.
func Analyze(prog *loader.Program, analyzers []*analysis.Analyzer, report func(*loader.Package, *analysis.Analyzer, analysis.Diagnostic)) error {
	facts := analysis.NewFactStore()
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Facts:     facts,
				Report:    func(d analysis.Diagnostic) { report(pkg, a, d) },
			}
			if _, err := a.Run(pass); err != nil {
				return fmt.Errorf("%s on %s: %v", a.Name, pkg.ImportPath, err)
			}
		}
	}
	return nil
}

// Check loads patterns (relative to dir) once and runs all seven checks over
// the load. It returns the findings that survive //lint:allow suppression,
// plus directive diagnostics (malformed, unknown, reasonless, or stale),
// sorted by position. Analyzers export facts into the store even for
// suppressed findings, so suppression never poisons downstream packages'
// view of the program.
func Check(dir string, patterns ...string) ([]Finding, Stats, error) {
	prog, err := loader.Load(dir, patterns...)
	if err != nil {
		return nil, Stats{}, err
	}
	allows, directives, findings := collectAllows(prog)
	report := func(name string, pos token.Position, msg string) {
		if d, ok := allows[allowKey{name, pos.Filename, pos.Line}]; ok {
			d.used = true
			return
		}
		findings = append(findings, Finding{Analyzer: name, Pos: pos, Message: msg})
	}

	err = Analyze(prog, Analyzers(), func(pkg *loader.Package, a *analysis.Analyzer, d analysis.Diagnostic) {
		report(a.Name, pkg.Fset.Position(d.Pos), d.Message)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	stats, err := escapePass(prog, func(pos token.Position, msg string) {
		report(Hotpathescape, pos, msg)
	})
	if err != nil {
		return nil, Stats{}, err
	}

	// A directive that suppressed nothing is stale: the finding it covered
	// was fixed, and the lingering suppression would silently swallow the
	// next one at that position.
	for _, d := range directives {
		if !d.used {
			findings = append(findings, Finding{
				Analyzer: directiveCheck, Pos: d.pos,
				Message: fmt.Sprintf("stale //lint:allow %s: no %s finding here; delete the directive (it would mask the next real finding at this position)", d.name, d.name),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, stats, nil
}
