package viewersim

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// runReference drives the day with the pre-wheel architecture: one goroutine
// per broadcast and per viewer, blocked on a conservative coordinator over a
// 1 ns wheel. It exists as the equivalence anchor: the same sim methods run
// in event-time order, one goroutine at a time, so any divergence from the
// wheel engine is a wheel bug, not a modeling difference.
func (s *sim) runReference() {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: s.w.start, Resolution: time.Nanosecond})
	s.buildCDN(clk)
	co := newCoord(clk)
	for i := range s.w.specs {
		sp := s.w.specs[i]
		co.spawn(func() { s.refBroadcast(co, sp) })
	}
	co.drive()
	s.end = clk.Now()
	s.events = co.events.Load()
	_ = s.origin.Close()
}

func (s *sim) refBroadcast(co *coord, sp bcastSpec) {
	co.sleepUntil(s.w.start.Add(sp.start))
	b := s.setupBroadcast(sp)
	for i := range b.joins {
		idx := i
		co.spawn(func() { s.refViewer(co, b, idx) })
	}
	for b.nextChunk < b.tr.chunks() {
		co.sleepUntil(b.abs(b.tr.readyAt[b.nextChunk]))
		s.ingestChunk(b)
	}
	s.userDone(b)
}

func (s *sim) refViewer(co *coord, b *bcastRun, idx int) {
	co.sleepUntil(b.abs(b.joins[idx]))
	v := s.newViewer(b, idx)
	if v == nil {
		return
	}
	for {
		co.sleepUntil(b.abs(v.nextAt))
		if _, done := s.deliver(v); done {
			return
		}
	}
}

// coord serializes a population of goroutines over a wheel: at any instant
// at most one simulation goroutine is runnable, and the wheel fires its next
// timer only once everyone is parked. At a 1 ns resolution every deadline is
// on a tick, so the goroutine engine runs in exact (time, schedule order) —
// the order the wheel engine's firing is tested against.
type coord struct {
	clk     *clock.Wheel
	mu      sync.Mutex
	cond    *sync.Cond
	running int
	events  atomic.Int64
}

func newCoord(clk *clock.Wheel) *coord {
	c := &coord{clk: clk}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// spawn registers fn as a live simulation goroutine; it counts as running
// until its first sleep (or exit), keeping the wheel from firing past work
// that hasn't parked yet.
func (c *coord) spawn(fn func()) {
	c.mu.Lock()
	c.running++
	c.mu.Unlock()
	go func() {
		fn()
		c.exit()
	}()
}

func (c *coord) exit() {
	c.mu.Lock()
	c.running--
	if c.running == 0 {
		c.cond.Signal()
	}
	c.mu.Unlock()
}

// sleepUntil parks the caller until the wheel reaches at. The wheel fires a
// whole tick's callbacks back to back on the driving goroutine, so the wake
// callback marks the goroutine running, releases it, and then holds the
// driver until every goroutine is parked again: the next timer fires only
// after everything the woken goroutine schedules is on the wheel.
func (c *coord) sleepUntil(at time.Time) {
	c.events.Add(1)
	ch := make(chan struct{})
	c.clk.ScheduleAt(0, at, func(time.Time) {
		c.mu.Lock()
		c.running++
		close(ch)
		c.quiesceLocked()
		c.mu.Unlock()
	})
	c.exit()
	<-ch
}

// quiesceLocked waits, with c.mu held, until no goroutine is running.
func (c *coord) quiesceLocked() {
	for c.running > 0 {
		c.cond.Wait()
	}
}

// drive waits for the first spawns to park, then runs the wheel until no
// timer is pending. A parked goroutine always has its wake timer pending, so
// when Run returns every goroutine has exited.
func (c *coord) drive() {
	c.mu.Lock()
	c.quiesceLocked()
	c.mu.Unlock()
	c.clk.Run()
}
