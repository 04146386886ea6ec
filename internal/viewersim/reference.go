package viewersim

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// runReference drives the day with the pre-wheel architecture: one goroutine
// per broadcast and per viewer, blocked on a conservative coordinator over
// clock.Virtual. It exists as the equivalence anchor: the same sim methods
// run in event-time order, one goroutine at a time, so any divergence from
// the wheel engine is a wheel bug, not a modeling difference.
func (s *sim) runReference() {
	clk := clock.NewVirtual(s.w.start)
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

// coord serializes a population of goroutines over a Virtual clock: at any
// instant at most one simulation goroutine is runnable, and the driver only
// pops the next timer event once everyone is parked. That makes the
// goroutine engine's execution order exactly the Virtual clock's (time, seq)
// order — the property the wheel's firing order is tested against.
type coord struct {
	clk     *clock.Virtual
	mu      sync.Mutex
	cond    *sync.Cond
	running int
	events  atomic.Int64
}

func newCoord(clk *clock.Virtual) *coord {
	c := &coord{clk: clk}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// spawn registers fn as a live simulation goroutine; it counts as running
// until its first sleep (or exit), keeping the driver from advancing time
// past work that hasn't parked yet.
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

// sleepUntil parks the caller until the Virtual clock reaches at. The wake
// callback marks the goroutine running again before the driver can observe
// quiescence, so time never advances over a woken-but-unscheduled goroutine.
func (c *coord) sleepUntil(at time.Time) {
	c.events.Add(1)
	ch := make(chan struct{})
	c.clk.ScheduleAt(at, func(time.Time) {
		c.mu.Lock()
		c.running++
		c.mu.Unlock()
		close(ch)
	})
	c.exit()
	<-ch
}

// drive steps the Virtual clock whenever the population is fully parked,
// returning once no goroutine is live and no timer is pending.
func (c *coord) drive() {
	for {
		c.mu.Lock()
		for c.running > 0 {
			c.cond.Wait()
		}
		c.mu.Unlock()
		if !c.clk.Step(maxSimTime) {
			c.mu.Lock()
			idle := c.running == 0
			c.mu.Unlock()
			if idle {
				return
			}
		}
	}
}

// maxSimTime is an effectively-unbounded Step limit.
var maxSimTime = time.Unix(1<<40, 0)
