package experiments

import (
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	// goRunRef matches `go run ./<path>` in a document.
	goRunRef = regexp.MustCompile("go run \\./([A-Za-z0-9_./-]+)")
	// runFlagRef matches an experiment id cited as `-run <id>`. Ids are
	// lower-case, so `go test -run TestX` and quoted patterns never match;
	// neither does "re-run".
	runFlagRef = regexp.MustCompile("(?:^|[\\s`(])-run ([a-z][a-z0-9_]*)(?:$|[\\s`),.;])")
)

// TestDocsNameLiveEntryPoints: every `go run ./<path>` in the top-level docs
// names a directory holding a main package, and every experiment id cited as
// `-run <id>` is registered — a deleted program or id cannot stay documented.
func TestDocsNameLiveEntryPoints(t *testing.T) {
	const root = "../.."
	known := map[string]bool{"all": true}
	for _, id := range IDs() {
		known[id] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		programs := 0
		for _, m := range goRunRef.FindAllSubmatch(text, -1) {
			programs++
			dir := filepath.Join(root, filepath.FromSlash(string(m[1])))
			if pkg, err := build.ImportDir(dir, 0); err != nil || pkg.Name != "main" {
				t.Errorf("%s: `go run ./%s` names no main package (%v)", doc, m[1], err)
			}
		}
		for _, m := range runFlagRef.FindAllSubmatch(text, -1) {
			if !known[string(m[1])] {
				t.Errorf("%s: `-run %s` is not a registered experiment id", doc, m[1])
			}
		}
		if doc == "README.md" && programs == 0 {
			t.Errorf("README.md: no `go run` command found; the pattern no longer matches the docs")
		}
	}
}
