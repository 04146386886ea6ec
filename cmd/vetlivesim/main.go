// Command vetlivesim runs the repo's custom static-analysis suite
// (internal/lint): locksend, walltime, atomiccounter, ctxplumb, lockorder,
// goroleak and the compiler-assisted hotpathescape.
//
// `vetlivesim [patterns]` (default ./...) loads the packages once (via
// `go list -export`), analyzes them in dependency order against one
// in-memory fact store so lockorder and goroleak see the whole program,
// recompiles the //livesim:hotpath packages with -m=2 for hotpathescape, and
// prints the findings that survive //lint:allow suppression. It is the only
// way the suite runs; `make analyze` is this command under a time budget.
//
// Exit status: 0 clean, 1 usage/internal error, 2 findings.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetlivesim:", err)
		os.Exit(1)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// run checks the patterns relative to dir and prints findings to stdout.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, stats, err := lint.Check(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "vetlivesim:", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vetlivesim: %d finding(s)\n", len(findings))
		return 2
	}
	fmt.Fprintf(stdout, "hotpathescape: %d hotpath function(s) in %d package(s) proved escape-free\n",
		stats.Functions, stats.Packages)
	return 0
}
