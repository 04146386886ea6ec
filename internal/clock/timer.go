package clock

import "time"

// timerNode is the Wheel's pooled scheduling record, linked into a slot
// bucket or the overflow heap. Nodes are intrusive: they carry their own
// doubly-linked bucket links and their heap index, so moving a timer between
// a bucket, the heap and the freelist never allocates. A node belongs to one
// Wheel for its whole life; that wheel's mutex guards every field.
type timerNode struct {
	next, prev *timerNode // bucket list links; next doubles as the freelist link
	heapIx     int        // index in the overflow heap, -1 when not heaped
	tick       int64      // deadline in resolution ticks
	seq        uint64     // schedule order, tie-break for equal deadlines
	gen        uint64     // generation; bumped whenever the node is detached
	ev         Event
}

// Timer is a cancellable handle to one scheduled event, returned by
// Wheel.ScheduleEventAt and its Schedule/ScheduleAt adapters. The zero Timer
// is valid and inert. Handles are single-shot: once the event has fired (or
// the timer stopped), Stop and Reset return false and the underlying node
// may be reused for an unrelated timer — a generation counter makes stale
// handles safe, so Timer values can be kept, copied and dropped freely
// without coordination.
type Timer struct {
	n   *timerNode
	gen uint64
	w   *Wheel
}

// Stop cancels the timer. It reports true if the event was still pending
// and will now never run, false if it already ran, was already stopped, or
// the handle is zero.
func (t Timer) Stop() bool {
	if t.w == nil {
		return false
	}
	return t.w.stopTimer(t.n, t.gen)
}

// Reset reschedules a still-pending timer to fire d from the wheel's
// current time, keeping its event, and reports whether it succeeded.
// A false return means the timer already fired or was stopped; re-arm it
// with a fresh Schedule call in that case.
func (t Timer) Reset(d time.Duration) bool {
	if t.w == nil {
		return false
	}
	return t.w.resetTimer(t.n, t.gen, d)
}

// nodeHeap is a binary min-heap of timer nodes ordered by (tick, seq),
// maintaining heapIx so arbitrary removal (Stop) is O(log n). It is written
// out rather than layered on container/heap to keep the wheel's overflow
// path free of interface dispatch.
type nodeHeap []*timerNode

func nodeLess(a, b *timerNode) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.seq < b.seq
}

func (h *nodeHeap) push(n *timerNode) {
	*h = append(*h, n)
	n.heapIx = len(*h) - 1
	h.up(n.heapIx)
}

func (h *nodeHeap) pop() *timerNode {
	s := *h
	n := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[0].heapIx = 0
	s[last] = nil
	*h = s[:last]
	if last > 0 {
		h.down(0)
	}
	n.heapIx = -1
	return n
}

// remove detaches the node at index i.
func (h *nodeHeap) remove(i int) {
	s := *h
	n := s[i]
	last := len(s) - 1
	if i != last {
		s[i] = s[last]
		s[i].heapIx = i
	}
	s[last] = nil
	*h = s[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	n.heapIx = -1
}

func (h nodeHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].heapIx = i
		h[parent].heapIx = parent
		i = parent
	}
}

func (h nodeHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && nodeLess(h[r], h[l]) {
			small = r
		}
		if !nodeLess(h[small], h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		h[i].heapIx = i
		h[small].heapIx = small
		i = small
	}
}
