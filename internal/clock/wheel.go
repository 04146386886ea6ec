package clock

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// WheelConfig parameterizes a timer wheel.
type WheelConfig struct {
	// Epoch is the wheel's start time; zero means clock.Epoch.
	Epoch time.Time
	// Resolution is the tick width: every deadline is rounded up to the
	// next tick boundary. Zero means 10 ms — coarse enough that a full
	// simulated day is ~8.6M ticks, fine enough that a 2.8 s poll
	// interval quantizes below 0.4% error.
	Resolution time.Duration
	// Slots is the number of wheel slots (rounded up to a power of two;
	// zero means 512). Deadlines within Slots×Resolution of now go to an
	// O(1) slot bucket; farther deadlines wait in the overflow heap.
	Slots int
}

// Wheel is a single-driver hashed timer wheel, the repo's discrete-event
// clock: the scheduler behind the million-viewer event engine
// (internal/viewersim) and the virtual time of every test that drives a
// component's clock by hand. Time advances only through Advance / RunUntil /
// Run, and the wheel is built for volume:
//
//   - Schedule/Stop/Reset are O(1) for near deadlines (a doubly-linked slot
//     bucket) and O(log overflow) for far ones.
//   - Timer nodes are pooled and carved from slabs of nodeSlab; steady-state
//     scheduling allocates nothing.
//   - Now is lock-free: a single atomic tick counter, readable from any
//     event or foreign goroutine.
//   - One mutex guards the ring, heap and pool, so Schedule/Stop/Reset/Sleep/
//     After stay safe from foreign goroutines; the driver takes it once per
//     tick, not once per timer.
//
// A timer fires an Event. ScheduleEventAt is the one way in; Schedule and
// ScheduleAt adapt a bare callback to an Event and take the same path, so
// every timer shares one node pool and one order. Events fire one at a time
// on the goroutine driving the wheel, in one total, reproducible order: by
// tick; within a tick, overflow-heap arrivals in schedule order, then the
// slot bucket in FIFO order. A timer reaches the heap only when scheduled at
// an earlier clock time than any bucket entry of the same tick, so that is
// plain schedule order: the wheel fires by (tick, seq). At a 1 ns resolution
// every deadline is on a tick, so the order is exact (time, schedule order). A tick's timers are detached together before
// the first of them runs, so an event cannot Stop or Reset a timer due in
// its own tick — that timer is already committed. Multi-core engines run one
// wheel per worker rather than sharing one.
//
// Events must not block on the wheel's own time: Sleep/After inside an
// event deadlocks the driving goroutine.
type Wheel struct {
	epoch   time.Time
	res     time.Duration
	slots   int
	mask    int64
	nowTick atomic.Int64 // written only under mu
	fired   atomic.Int64

	runMu sync.Mutex // serializes Advance/RunUntil/Run drivers

	mu       sync.Mutex // guards everything below
	buckets  []wheelBucket
	occ      []uint64 // occupancy bitmap over buckets
	overflow nodeHeap
	free     *timerNode
	batch    []Event // the driver's reusable per-tick buffer
	seq      uint64
	pending  int
}

// Event is what a timer fires: Fire runs on the driving goroutine at the
// timer's tick. An event that is a pointer — a record that schedules itself,
// or a field inside one — is stored in the timer as it is, so scheduling it
// allocates nothing.
type Event interface {
	Fire(now time.Time)
}

// eventFunc adapts a bare callback to Event for Schedule and ScheduleAt. A
// func value is pointer-shaped, so converting one to an Event allocates
// nothing.
type eventFunc func(now time.Time)

func (f eventFunc) Fire(now time.Time) { f(now) }

type wheelBucket struct {
	head, tail *timerNode
}

// noLimit is Run's limit tick: fire until nothing is pending and leave the
// clock at the last fired tick.
const noLimit = math.MaxInt64

// NewWheel builds a wheel standing at its epoch.
func NewWheel(cfg WheelConfig) *Wheel {
	if cfg.Epoch.IsZero() {
		cfg.Epoch = Epoch
	}
	if cfg.Resolution <= 0 {
		cfg.Resolution = 10 * time.Millisecond
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 512
	}
	slots := 64 // bitmap scan works in whole 64-bit words
	for slots < cfg.Slots {
		slots <<= 1
	}
	return &Wheel{
		epoch:   cfg.Epoch,
		res:     cfg.Resolution,
		slots:   slots,
		mask:    int64(slots - 1),
		buckets: make([]wheelBucket, slots),
		occ:     make([]uint64, slots/64),
	}
}

// Close is a no-op: the wheel owns no goroutines or other resources. It
// remains only because the frozen benchmark module (bench/) calls it.
func (w *Wheel) Close() {}

// Now implements Clock. It is lock-free — one atomic load — so the hottest
// events and foreign goroutines (the real-socket fidelity slice's
// metrics, cdn stamps) can read time without contending with scheduling.
func (w *Wheel) Now() time.Time { return w.timeOf(w.nowTick.Load()) }

// Resolution returns the tick width.
func (w *Wheel) Resolution() time.Duration { return w.res }

// Fired returns the total number of events dispatched so far.
func (w *Wheel) Fired() int64 { return w.fired.Load() }

// Pending returns the number of scheduled, unfired timers.
func (w *Wheel) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// timeOf converts a tick index to clock time.
func (w *Wheel) timeOf(tick int64) time.Time {
	return w.epoch.Add(time.Duration(tick) * w.res)
}

// tickOf converts an absolute time to the last tick at or before it.
func (w *Wheel) tickOf(t time.Time) int64 {
	d := t.Sub(w.epoch) // saturates at ±2^63-1 ns for distant times
	if d < 0 {
		return 0
	}
	return int64(d / w.res)
}

// deadlineLocked returns the tick d after now (fromNow) or after the epoch,
// rounded up to a tick boundary and never before now. nowTick only moves
// under mu, so the result cannot fall behind the clock before the caller
// links the node.
func (w *Wheel) deadlineLocked(d time.Duration, fromNow bool) int64 {
	now := w.nowTick.Load()
	tick := int64(d / w.res) // truncated toward zero: a negative d is rounded up
	if d%w.res > 0 {
		tick++
	}
	if fromNow {
		tick = now + min(tick, math.MaxInt64-now)
	}
	return max(now, tick)
}

// nodeSlab is how many timer nodes a free-list miss allocates at once.
const nodeSlab = 64

// ScheduleEventAt registers ev to fire at an absolute time and returns a
// cancellable handle. The deadline is rounded up to the next tick boundary.
// A time at or before now fires at the current tick — from an event, that
// means on the driver's next pass, before time moves on. The tick is taken
// from at itself, under the lock that orders it against the driver, so a
// foreign goroutine's timer never fires late by a tick the driver moved
// while it was scheduling.
//
//livesim:hotpath TestWheelEventAllocBudget
func (w *Wheel) ScheduleEventAt(at time.Time, ev Event) Timer {
	return w.schedule(at.Sub(w.epoch), false, ev)
}

// Schedule registers fn to run d after the wheel's current time: an adapter
// over the event path, rounding and ordering as ScheduleEventAt does. The
// wheel does not interpret owner; the parameter remains only because the
// frozen benchmark module (bench/) passes one.
//
//livesim:hotpath TestWheelEventAllocBudget
func (w *Wheel) Schedule(owner uint64, d time.Duration, fn func(now time.Time)) Timer {
	return w.schedule(d, true, eventFunc(fn))
}

// ScheduleAt registers fn at an absolute time, rounded up to a tick. As with
// Schedule, owner is not interpreted.
func (w *Wheel) ScheduleAt(owner uint64, at time.Time, fn func(now time.Time)) Timer {
	return w.ScheduleEventAt(at, eventFunc(fn))
}

// schedule is the one insert path: it links ev at the tick d from now
// (fromNow) or from the epoch, as deadlineLocked rounds it. One mutex, pooled
// node: no allocation in steady state, and one per nodeSlab timers while the
// pool grows.
//
//livesim:hotpath TestWheelNodePoolingReuses
func (w *Wheel) schedule(d time.Duration, fromNow bool, ev Event) Timer {
	w.mu.Lock()
	n := w.free
	if n == nil {
		// An empty free list is refilled with a slab of nodeSlab fresh
		// nodes, chained as the list: one allocation per nodeSlab misses.
		//lint:allow hotpathescape free-list miss only; fired and stopped nodes recycle through w.free
		slab := make([]timerNode, nodeSlab)
		for i := range slab {
			slab[i].heapIx = -1
			if i+1 < nodeSlab {
				slab[i].next = &slab[i+1]
			}
		}
		n = &slab[0]
	}
	w.free = n.next
	n.next = nil
	n.ev = ev
	w.insertLocked(n, w.deadlineLocked(d, fromNow))
	w.pending++
	t := Timer{n: n, gen: n.gen, w: w}
	w.mu.Unlock()
	return t
}

// insertLocked stamps n with its deadline and schedule order and links it
// into a slot bucket or, beyond the ring's window, the overflow heap.
//
//livesim:hotpath TestWheelNodePoolingReuses
func (w *Wheel) insertLocked(n *timerNode, tick int64) {
	w.seq++
	n.seq = w.seq
	n.tick = tick
	if tick-w.nowTick.Load() >= int64(w.slots) {
		w.overflow.push(n)
		return
	}
	slot := tick & w.mask
	b := &w.buckets[slot]
	n.prev = b.tail
	n.next = nil
	if b.tail != nil {
		b.tail.next = n
	} else {
		b.head = n
	}
	b.tail = n
	w.occ[slot>>6] |= 1 << uint(slot&63)
}

// unlinkLocked removes a pending node from wherever it sits (bucket or
// overflow heap). The caller must own a valid generation.
func (w *Wheel) unlinkLocked(n *timerNode) {
	if n.heapIx >= 0 {
		w.overflow.remove(n.heapIx)
		return
	}
	slot := n.tick & w.mask
	b := &w.buckets[slot]
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.next, n.prev = nil, nil
	if b.head == nil {
		w.occ[slot>>6] &^= 1 << uint(slot&63)
	}
}

// releaseLocked retires an unlinked node, fired or stopped: every outstanding
// handle to it dies and it returns to the freelist.
//
//livesim:hotpath TestWheelNodePoolingReuses
func (w *Wheel) releaseLocked(n *timerNode) {
	n.gen++
	n.ev = nil
	n.prev = nil
	n.next = w.free
	w.free = n
	w.pending--
}

// stopTimer is Timer.Stop: it detaches and releases n if gen is still live.
func (w *Wheel) stopTimer(n *timerNode, gen uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n.gen != gen {
		return false
	}
	w.unlinkLocked(n)
	w.releaseLocked(n)
	return true
}

// resetTimer is Timer.Reset: it moves n to d from now if gen is still live.
func (w *Wheel) resetTimer(n *timerNode, gen uint64, d time.Duration) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n.gen != gen {
		return false
	}
	w.unlinkLocked(n)
	w.insertLocked(n, w.deadlineLocked(d, true))
	return true
}

// nextDueLocked returns the earliest tick with work, or math.MaxInt64.
func (w *Wheel) nextDueLocked() int64 {
	best := w.nextBucketTickLocked(w.nowTick.Load())
	if len(w.overflow) > 0 && w.overflow[0].tick < best {
		best = w.overflow[0].tick
	}
	return best
}

// nextBucketTickLocked scans the occupancy bitmap for the first occupied
// slot at or after now, wrapping once around the wheel.
//
//livesim:hotpath TestWheelNodePoolingReuses
func (w *Wheel) nextBucketTickLocked(now int64) int64 {
	slot0 := int(now & w.mask)
	w0 := slot0 >> 6
	off := uint(slot0 & 63)
	words := w.slots >> 6
	// First word: bits at or above slot0 cover [now, next word boundary).
	if x := w.occ[w0] >> off; x != 0 {
		return now + int64(bits.TrailingZeros64(x))
	}
	for i := 1; i <= words; i++ {
		wi := (w0 + i) % words
		x := w.occ[wi]
		if i == words {
			// Back at the first word after a full wrap: only the
			// bits strictly below slot0 remain unseen.
			x &= 1<<off - 1
		}
		if x != 0 {
			slot := wi<<6 + bits.TrailingZeros64(x)
			delta := slot - slot0
			if delta <= 0 {
				delta += w.slots
			}
			return now + int64(delta)
		}
	}
	return math.MaxInt64
}

// detachLocked moves the event of every timer due at tick into the reusable
// batch — overflow arrivals first (schedule order), then the slot bucket
// FIFO — and releases the nodes at once, so timers the events schedule reuse
// them.
//
//livesim:hotpath TestWheelNodePoolingReuses
func (w *Wheel) detachLocked(tick int64) []Event {
	batch := w.batch[:0]
	for len(w.overflow) > 0 && w.overflow[0].tick <= tick {
		n := w.overflow.pop()
		batch = append(batch, n.ev)
		w.releaseLocked(n)
	}
	slot := tick & w.mask
	b := &w.buckets[slot]
	for n := b.head; n != nil; {
		next := n.next
		batch = append(batch, n.ev)
		w.releaseLocked(n)
		n = next
	}
	b.head, b.tail = nil, nil
	w.occ[slot>>6] &^= 1 << uint(slot&63)
	w.batch = batch // keep the grown backing array
	return batch
}

// runLocked fires every timer due at or before the limit tick, on the calling
// goroutine, then (unless limit is noLimit) moves the clock up to limit. It
// takes mu once per tick: find the next due tick, move the clock there and
// detach its timers, then fire the events with mu released so they can
// schedule. The caller holds runMu, which also makes w.batch its own.
//
//livesim:hotpath TestWheelNodePoolingReuses
func (w *Wheel) runLocked(limit int64) {
	w.mu.Lock()
	for {
		tick := w.nextDueLocked()
		if tick == math.MaxInt64 || tick > limit {
			break
		}
		w.nowTick.Store(tick)
		batch := w.detachLocked(tick)
		w.mu.Unlock()

		now := w.timeOf(tick)
		for _, ev := range batch {
			ev.Fire(now)
		}
		w.fired.Add(int64(len(batch)))
		clear(batch) // drop the events; the buffer outlives the tick

		w.mu.Lock()
	}
	if limit != noLimit && w.nowTick.Load() < limit {
		w.nowTick.Store(limit)
	}
	w.mu.Unlock()
}

// RunUntil executes every timer with a deadline ≤ t, then sets the clock to
// t rounded down to a tick. A target inside the current tick leaves the
// clock where it is.
func (w *Wheel) RunUntil(t time.Time) {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	w.runLocked(w.tickOf(t))
}

// Run executes timers until none remain, returning the final clock time.
func (w *Wheel) Run() time.Time {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	w.runLocked(noLimit)
	return w.Now()
}

// Advance moves the clock forward by d, firing every timer due in the
// window, and returns the new current time. Like RunUntil it lands on a
// tick, rounding down, so Advance is additive only in whole multiples of
// Resolution: on a 10 ms wheel two Advance(5ms) calls leave the clock where
// it was, while one Advance(10ms) moves it a tick.
func (w *Wheel) Advance(d time.Duration) time.Time {
	w.RunUntil(w.Now().Add(d))
	return w.Now()
}

// Sleep implements Clock, for components written against the interface.
// Someone else must drive the wheel forward.
func (w *Wheel) Sleep(ctx context.Context, d time.Duration) error {
	done := make(chan struct{})
	wake := w.Schedule(0, d, func(time.Time) { close(done) })
	select {
	case <-ctx.Done():
		wake.Stop()
		return ctx.Err()
	case <-done:
		return nil
	}
}

// After implements Clock.
func (w *Wheel) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	w.Schedule(0, d, func(now time.Time) { ch <- now })
	return ch
}
