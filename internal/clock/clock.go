// Package clock provides the time substrate shared by every component of the
// reproduction: a Clock interface with a real implementation backed by the
// operating system and a deterministic virtual implementation driven by a
// discrete-event queue.
//
// The paper's large-scale experiments are trace-driven simulations; those run
// on the VirtualClock so that a seed fully determines the outcome. The
// real-socket platform (quickstart, crawler, security demo) runs on the
// RealClock.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for both the live platform and the simulator.
// Timestamps are absolute; the virtual clock starts at a configurable epoch.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock or ctx is done.
	// It returns ctx.Err() if the context ended first, else nil.
	Sleep(ctx context.Context, d time.Duration) error
	// After returns a channel that delivers the clock time once d has
	// elapsed. The channel has capacity 1 and is never closed.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the operating system.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time {
	//lint:allow walltime Real is the wall-clock boundary everything else injects
	return time.Now()
}

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	//lint:allow walltime Real is the wall-clock boundary everything else injects
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time {
	//lint:allow walltime Real is the wall-clock boundary everything else injects
	return time.After(d)
}

// Virtual is a deterministic discrete-event clock. Time advances only through
// Run, RunUntil, Step, or Advance, which execute scheduled events in
// timestamp order. It is safe for concurrent scheduling, but event execution
// is single-threaded: determinism is the point. Event nodes are pooled, and
// every Schedule/ScheduleAt returns a cancellable Timer handle, so the heap
// allocates nothing in steady state.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	events nodeHeap
	free   *timerNode // recycled nodes, linked through next
}

// Epoch is the default start time for virtual clocks: the first day of the
// paper's Periscope measurement window (May 15, 2015 UTC).
var Epoch = time.Date(2015, time.May, 15, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock starting at the given epoch.
// A zero epoch means clock.Epoch.
func NewVirtual(epoch time.Time) *Virtual {
	if epoch.IsZero() {
		epoch = Epoch
	}
	return &Virtual{now: epoch}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Schedule registers fn to run when the clock reaches v.Now().Add(d) and
// returns a handle that can Stop or Reset it. Negative delays run at the
// current time, after already-queued events for that instant.
func (v *Virtual) Schedule(d time.Duration, fn func(now time.Time)) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	if d < 0 {
		d = 0
	}
	return v.scheduleLocked(v.now.Add(d), fn)
}

// ScheduleAt registers fn to run at absolute time at. Times in the past run
// at the current instant.
func (v *Virtual) ScheduleAt(at time.Time, fn func(now time.Time)) Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	if at.Before(v.now) {
		at = v.now
	}
	return v.scheduleLocked(at, fn)
}

func (v *Virtual) scheduleLocked(at time.Time, fn func(now time.Time)) Timer {
	n := v.free
	if n != nil {
		v.free = n.next
		n.next = nil
	} else {
		n = &timerNode{heapIx: -1}
	}
	v.seq++
	n.at = at
	n.seq = v.seq
	n.fn = fn
	v.events.push(n)
	return Timer{n: n, gen: n.gen, s: v}
}

// releaseLocked invalidates every outstanding handle to n and returns it to
// the freelist.
func (v *Virtual) releaseLocked(n *timerNode) {
	n.gen++
	n.fn = nil
	n.next = v.free
	n.prev = nil
	v.free = n
}

// stopTimer implements timerSched.
func (v *Virtual) stopTimer(n *timerNode, gen uint64) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n.gen != gen || n.heapIx < 0 {
		return false
	}
	v.events.remove(n.heapIx)
	v.releaseLocked(n)
	return true
}

// resetTimer implements timerSched.
func (v *Virtual) resetTimer(n *timerNode, gen uint64, d time.Duration) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n.gen != gen || n.heapIx < 0 {
		return false
	}
	if d < 0 {
		d = 0
	}
	n.at = v.now.Add(d)
	v.seq++
	n.seq = v.seq
	v.events.fix(n.heapIx)
	return true
}

// step pops and runs the earliest event if it is at or before limit.
// It reports whether an event ran.
func (v *Virtual) step(limit time.Time) bool {
	v.mu.Lock()
	if len(v.events) == 0 {
		v.mu.Unlock()
		return false
	}
	n := v.events[0]
	if n.at.After(limit) {
		v.mu.Unlock()
		return false
	}
	v.events.pop()
	at, fn := n.at, n.fn
	v.now = at
	v.releaseLocked(n)
	v.mu.Unlock()
	fn(at)
	return true
}

// Step executes the single earliest pending event if its timestamp is at or
// before limit, reporting whether one ran. It is the building block external
// drivers (the viewersim goroutine-reference coordinator) use to interleave
// event execution with their own scheduling.
func (v *Virtual) Step(limit time.Time) bool { return v.step(limit) }

// Run executes all events until the queue drains, returning the final time.
func (v *Virtual) Run() time.Time {
	for v.step(maxTime) {
	}
	return v.Now()
}

// RunUntil executes events with timestamps ≤ t, then sets the clock to t.
func (v *Virtual) RunUntil(t time.Time) {
	for v.step(t) {
	}
	v.mu.Lock()
	if v.now.Before(t) {
		v.now = t
	}
	v.mu.Unlock()
}

// Advance moves the clock forward by d, executing every event due in the
// window, and returns the new current time.
func (v *Virtual) Advance(d time.Duration) time.Time {
	v.mu.Lock()
	target := v.now.Add(d)
	v.mu.Unlock()
	v.RunUntil(target)
	return v.Now()
}

// Pending returns the number of queued events.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.events)
}

// Sleep implements Clock. On a virtual clock, Sleep can only be called from
// inside event callbacks indirectly; direct callers receive an immediate
// schedule at now+d and must drive the clock themselves. To keep the
// simulator single-threaded, virtual Sleep registers a wakeup and busy-waits
// are avoided by the event-driven style: most simulator code uses Schedule
// directly. Sleep is provided so components written against Clock still work
// under a test harness that advances time from another goroutine.
func (v *Virtual) Sleep(ctx context.Context, d time.Duration) error {
	done := make(chan struct{})
	wake := v.Schedule(d, func(time.Time) { close(done) })
	select {
	case <-ctx.Done():
		wake.Stop()
		return ctx.Err()
	case <-done:
		return nil
	}
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.Schedule(d, func(now time.Time) { ch <- now })
	return ch
}

var maxTime = time.Unix(1<<62, 0)
