// Package lockshapes is the lock-shape matrix behind keeping two lock
// analyzers: one file per shape, each with its own lock types, and
// TestLockShapes counts every analyzer's findings per file. locksend sees
// nesting inside one body whatever the order; lockorder sees an order that
// cycles, however many calls it takes to build.
package lockshapes

import "sync"

type nestA struct{ mu sync.Mutex }
type nestB struct{ mu sync.Mutex }

// nestOnce nests B inside A in one body, and nothing reverses the order:
// locksend 1, lockorder 0.
func nestOnce(a *nestA, b *nestB) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}
