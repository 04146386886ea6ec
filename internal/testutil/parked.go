package testutil

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// WaitParked returns once at least n goroutines are parked — blocked, not
// running or runnable — with fn as their innermost frame (the fully
// qualified name as a stack dump prints it, e.g.
// "repro/internal/resilience.(*Group[...]).Do"). A test orders its next step
// on other goroutines having reached a blocking point this way instead of
// sleeping for it. It fails the test if they have not parked within 10 s.
func WaitParked(t testing.TB, fn string, n int) {
	t.Helper()
	//lint:allow walltime the bound is on real goroutines, not simulated time
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := parked(fn)
		if got >= n {
			return
		}
		//lint:allow walltime the bound is on real goroutines, not simulated time
		if time.Now().After(deadline) {
			t.Fatalf("testutil: %d goroutine(s) parked in %s, want %d", got, fn, n)
		}
		runtime.Gosched()
	}
}

// parked counts the goroutines blocked with fn as their innermost frame.
func parked(fn string) int {
	n := 0
	for _, block := range snapshot() {
		head, frames, ok := strings.Cut(block, "\n")
		if !ok || strings.HasSuffix(head, "[running]:") || strings.HasSuffix(head, "[runnable]:") {
			continue
		}
		if strings.HasPrefix(frames, fn+"(") {
			n++
		}
	}
	return n
}
