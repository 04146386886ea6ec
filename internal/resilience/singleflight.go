package resilience

import (
	"errors"
	"sync"
)

// Group collapses concurrent calls with the same key into a single
// execution whose result every caller shares — the guard against the §5.2
// polling storm where N viewers hitting an edge with an expired chunklist
// would otherwise each pull the origin independently.
//
// An uncontended call allocates nothing: its record is the group's spare
// from the last call no one waited on, and the channel waiters block on is
// made only when a second caller arrives. The spare lives on the group, not
// in a sync.Pool, so what a call costs is exact (the race detector drops
// pooled items at random).
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
	// spare is a finished call that no caller waited on, reset for reuse.
	// A call with waiters is never reused: they read its result after done.
	spare *flightCall[V]
}

type flightCall[V any] struct {
	// done is made by the first waiter and closed by the leader; nil while
	// the leader is alone.
	done chan struct{}
	val  V
	err  error
	dups int
}

// errFlightAborted is what waiters get when the leader's fn panicked or
// exited its goroutine instead of returning.
var errFlightAborted = errors.New("resilience: single-flight call did not return")

// Do runs fn for key unless a call for the same key is already in flight,
// in which case it waits for and shares that call's result. shared reports
// whether the result was produced by another caller's execution, or was
// handed to other callers as well. If fn panics, the key is released, its
// waiters get an error, and the panic continues in the caller that ran fn.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall[V])
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		if c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		g.mu.Unlock()
		<-done
		return c.val, c.err, true
	}
	c := g.spare
	g.spare = nil
	if c == nil {
		c = new(flightCall[V])
	}
	g.m[key] = c
	g.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			g.finish(key, c, v, errFlightAborted)
		}
	}()
	v, err = fn()
	returned = true
	return v, err, g.finish(key, c, v, err)
}

// finish releases key and hands the result to c's waiters, or, when there
// are none, keeps c as the spare. It reports whether c had waiters.
func (g *Group[V]) finish(key string, c *flightCall[V], v V, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.m, key)
	if c.dups == 0 {
		g.spare = c
		return false
	}
	c.val, c.err = v, err
	close(c.done)
	return true
}
