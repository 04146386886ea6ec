// Fixture for the atomiccounter analyzer: the address-based sync/atomic
// functions are banned; the typed atomics are the way to count.
package atomiccounter

import "sync/atomic"

type stats struct {
	frames int64
	bytes  int64
}

func (s *stats) inc() {
	atomic.AddInt64(&s.frames, 1) // want `atomic\.AddInt64 takes the counter's address`
}

func (s *stats) report() int64 {
	return atomic.LoadInt64(&s.bytes) // want `atomic\.LoadInt64 takes the counter's address`
}

var ready int32

func claim() bool {
	return atomic.CompareAndSwapInt32(&ready, 0, 1) // want `atomic\.CompareAndSwapInt32 takes the counter's address`
}

// A function value is the same door as a call.
var add = atomic.AddUint64 // want `atomic\.AddUint64 takes the counter's address`

// goodStats counts with typed atomics: every access is a method, nothing
// flagged.
type goodStats struct {
	n    atomic.Int64
	last atomic.Pointer[string]
}

func (g *goodStats) inc()       { g.n.Add(1) }
func (g *goodStats) get() int64 { return g.n.Load() }

func (g *goodStats) swap(s *string) bool {
	return g.last.CompareAndSwap(nil, s)
}

// plainOnly is never touched atomically, so plain access is fine.
var plainOnly int64

func plainBump() {
	plainOnly++
}
