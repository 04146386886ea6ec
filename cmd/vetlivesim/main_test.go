package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for run to load.
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

// TestCrossPackageLockInversion drives the entry point, in process, over a
// module with a cross-package AB/BA lock inversion: liba's LockSet fact must
// reach libb through the run's fact store for libb to close the cycle.
func TestCrossPackageLockInversion(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod": "module repro/vetlivesime2e\n\ngo 1.24\n",
		"liba/liba.go": `package liba

import "sync"

type Registry struct {
	sync.Mutex
	n int
}

func (r *Registry) Refresh() {
	r.Lock()
	defer r.Unlock()
	r.n++
}
`,
		"libb/libb.go": `package libb

import (
	"sync"

	"repro/vetlivesime2e/liba"
)

type Hub struct {
	mu sync.Mutex
}

func (h *Hub) Sync(r *liba.Registry) {
	h.mu.Lock()
	r.Refresh()
	h.mu.Unlock()
}

func (h *Hub) Rebalance(r *liba.Registry) {
	r.Lock()
	h.mu.Lock()
	h.mu.Unlock()
	r.Unlock()
}
`,
	})

	var stdout, stderr bytes.Buffer
	if code := run(mod, nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (the cross-package lock-order cycle)\n%s%s", code, &stdout, &stderr)
	}
	text := stdout.String()
	if !strings.Contains(text, "lock-order cycle") {
		t.Errorf("output lacks the cycle diagnostic:\n%s", text)
	}
	for _, class := range []string{"liba.Registry.Mutex", "libb.Hub.mu"} {
		if !strings.Contains(text, class) {
			t.Errorf("cycle diagnostic does not name %s:\n%s", class, text)
		}
	}
}

// TestClean: the same entry point over a module with a consistent lock order
// and terminating goroutines exits 0 with only the summary line.
func TestClean(t *testing.T) {
	mod := writeModule(t, map[string]string{
		"go.mod": "module repro/vetlivesime2e\n\ngo 1.24\n",
		"liba/liba.go": `package liba

import "sync"

type Registry struct {
	sync.Mutex
	n int
}

func (r *Registry) Refresh() {
	r.Lock()
	defer r.Unlock()
	r.n++
}
`,
		"libb/libb.go": `package libb

import (
	"sync"

	"repro/vetlivesime2e/liba"
)

type Hub struct {
	mu sync.Mutex
}

func (h *Hub) Sync(r *liba.Registry) {
	h.mu.Lock()
	r.Refresh()
	h.mu.Unlock()
}

func (h *Hub) Drain(r *liba.Registry, ctx <-chan struct{}) {
	go func() {
		for {
			select {
			case <-ctx:
				return
			default:
				r.Refresh()
			}
		}
	}()
}
`,
	})

	var stdout, stderr bytes.Buffer
	if code := run(mod, []string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d on a clean module, want 0\n%s%s", code, &stdout, &stderr)
	}
	if got := stdout.String(); !strings.HasPrefix(got, "hotpathescape: 0 hotpath function(s)") || strings.Count(got, "\n") != 1 {
		t.Errorf("clean run printed %q, want only the summary line", got)
	}

	// A pattern that names nothing is an error, not a clean run of zero
	// packages: this command is the only gate.
	for _, pattern := range []string{"./libc", "./libc/...", "repro/vetlivesime2e/libc"} {
		stdout.Reset()
		stderr.Reset()
		if code := run(mod, []string{pattern}, &stdout, &stderr); code != 1 || stdout.Len() != 0 {
			t.Errorf("pattern %s: exit %d, stdout %q, want exit 1 and no summary\n%s", pattern, code, &stdout, &stderr)
		}
	}
}
