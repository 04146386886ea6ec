// Package testutil holds shared test helpers. Its centerpiece is a
// goroutine-leak checker built on snapshot/diff of runtime.Stack: instead of
// the ad-hoc NumGoroutine counting the early chaos tests used (which can
// both miss leaks masked by exits elsewhere and false-positive on unrelated
// background goroutines), it records which goroutines existed at test start
// and reports, with full stacks, any new ones that survive the test.
package testutil

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ignoredStacks marks goroutines outside the test's control: the testing
// framework itself and runtime/httputil background workers that outlive any
// single test by design.
var ignoredStacks = []string{
	"testing.(*T).Run",
	"testing.(*T).Parallel",
	"testing.runTests",
	"testing.(*M).",
	"runtime.goexit0",
	"created by runtime.gc",
	"runtime.MHeap_Scavenger",
	"runtime.ReadTrace",
	"signal.signal_recv",
	"created by os/signal.Notify",
	// DNS lookups and idle keep-alive conns drain on their own; the retry
	// window below handles the common case, this the stragglers.
	"net._C2func_getaddrinfo",
	"internal/singleflight.(*Group).doCall",
}

// snapshot returns the stack block of every live goroutine, keyed by the
// goroutine header line ("goroutine N [state]:" → "goroutine N").
func snapshot() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, block := range strings.Split(string(buf), "\n\n") {
		head, _, ok := strings.Cut(block, " [")
		if !ok || !strings.HasPrefix(head, "goroutine ") {
			continue
		}
		out[head] = block
	}
	return out
}

// leaked returns the stacks present now but absent from base, minus the
// ignore list and the calling goroutine.
func leaked(base map[string]string) []string {
	var out []string
cur:
	for id, stack := range snapshot() {
		if _, ok := base[id]; ok {
			continue
		}
		if strings.Contains(stack, "testutil.leaked") {
			continue // the goroutine running the checker itself
		}
		for _, ig := range ignoredStacks {
			if strings.Contains(stack, ig) {
				continue cur
			}
		}
		out = append(out, stack)
	}
	return out
}

// CheckGoroutines snapshots the live goroutines and registers a cleanup that
// fails the test if goroutines created after the snapshot are still running
// once the test (and all cleanups registered after this call) finish. Call
// it FIRST, before starting the system under test, so teardown registered
// later runs before the check (t.Cleanup is LIFO).
//
// The checker retries for up to wait (default 5 s when zero) because healthy
// teardown is asynchronous: conn close, context propagation, and timer
// drains all land shortly after Stop returns.
func CheckGoroutines(t testing.TB, wait ...time.Duration) {
	t.Helper()
	d := 5 * time.Second
	if len(wait) > 0 && wait[0] > 0 {
		d = wait[0]
	}
	base := snapshot()
	t.Cleanup(func() {
		// Idle keep-alive conns on the shared transport hold their
		// readLoop/writeLoop goroutines until closed.
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
		//lint:allow walltime the checker waits for real goroutines to exit
		deadline := time.Now().Add(d)
		for {
			runtime.GC()
			l := leaked(base)
			if len(l) == 0 {
				return
			}
			//lint:allow walltime the checker waits for real goroutines to exit
			if time.Now().After(deadline) {
				t.Errorf("testutil: %d leaked goroutine(s):\n\n%s", len(l), strings.Join(l, "\n\n"))
				return
			}
			//lint:allow walltime the checker waits for real goroutines to exit
			time.Sleep(20 * time.Millisecond)
		}
	})
}
