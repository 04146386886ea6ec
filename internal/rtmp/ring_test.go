package rtmp

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/wire"
)

// publishUntilEvicted sends 32 KB frames numbered from seq on, so a stalled
// viewer's socket buffers fill in a few hundred, until s has evicted a viewer.
// It returns the next sequence to send.
func publishUntilEvicted(t *testing.T, s *Server, pub *Publisher, seq uint64) uint64 {
	t.Helper()
	payload := make([]byte, 32<<10)
	deadline := time.Now().Add(20 * time.Second)
	for ; s.Stats().SlowEvictions == 0; seq++ {
		if time.Now().After(deadline) {
			t.Fatalf("no viewer evicted after %d frames", seq)
		}
		f := media.Frame{Seq: seq, CapturedAt: time.Now(), Payload: payload}
		if err := pub.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// TestEvictedViewerHearsNoEnd: a viewer evicted for falling a whole ring
// behind must see its transport break, never a clean MsgEnd, while the
// broadcast is still live — a client takes MsgEnd for the end of the
// broadcast and stops for good.
func TestEvictedViewerHearsNoEnd(t *testing.T) {
	s, addr := startServer(t, ServerConfig{ViewerQueue: 4})
	pub, err := Publish(context.Background(), addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.End()
	conn := dialRawViewer(t, addr, "b1") // never reads until evicted
	publishUntilEvicted(t, s, pub, 0)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rd := wire.NewReader(bufio.NewReader(conn))
	for frames := 0; ; frames++ {
		m, err := rd.Next()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the server kept the evicted viewer's connection open after %d frames", frames)
		}
		if err != nil {
			return
		}
		if m.Type() == wire.MsgEnd {
			t.Fatalf("the evicted viewer heard MsgEnd after %d frames while the broadcast is live", frames)
		}
	}
}

// TestRingEvictionBoundary: a viewer exactly ViewerQueue frames behind is
// evicted by the next frame, one a frame less behind is not, and the ring
// still holds every frame the survivor has not taken.
func TestRingEvictionBoundary(t *testing.T) {
	const queue = 8
	s, b := fanoutFixture(ServerConfig{ViewerQueue: queue}, 2)
	vs := b.snapshot()
	behind, lessBehind := vs[0], vs[1]
	frame := func(seq uint64) {
		t.Helper()
		if !s.acceptFrame(b, encodeFrameMsg(t, seq, 16)) {
			t.Fatalf("frame %d rejected", seq)
		}
	}
	for seq := uint64(0); seq < queue; seq++ {
		frame(seq)
	}
	if got, err := takeUpTo(b, lessBehind, 1); len(got) != 1 || err != nil {
		t.Fatalf("take = %d, %v", len(got), err)
	}
	if got := s.Stats().SlowEvictions; got != 0 {
		t.Fatalf("%d evictions with viewers %d and %d frames behind, want 0", got, queue, queue-1)
	}
	frame(queue)
	if got := s.Stats().SlowEvictions; got != 1 {
		t.Fatalf("%d evictions after the frame that laps the viewer %d behind, want 1", got, queue)
	}
	if cur := b.snapshot(); len(cur) != 1 || cur[0] != lessBehind {
		t.Fatal("the wrong viewer was evicted")
	}
	if _, err := takeUpTo(b, behind, 1); err != errLapped {
		t.Fatalf("the evicted viewer's take = %v, want errLapped", err)
	}
	// The survivor is now exactly a ring behind: all of it is still there.
	got, err := takeUpTo(b, lessBehind, queue)
	if len(got) != queue || err != nil {
		t.Fatalf("survivor took %d (%v), want %d", len(got), err, queue)
	}
	for i, m := range got {
		f, _, err := media.ViewFrame(wire.Encoded(m).Body())
		if err != nil || f.Seq != uint64(i+1) {
			t.Fatalf("ring message %d: seq %d (%v), want %d", i, f.Seq, err, i+1)
		}
	}
	frame(queue + 1)
	if got := s.Stats().SlowEvictions; got != 1 {
		t.Fatalf("%d evictions after the survivor caught up, want 1", got)
	}
}

// TestRingModel drives joins, leaves, frames and takes against one broadcast
// in a seeded random order and checks every step against a model of what each
// viewer is owed: a take returns the next frames from the viewer's join on,
// contiguous, each once; the viewers evicted by a frame are exactly those
// ViewerQueue frames behind when it arrives; and after every frame the ring
// holds exactly the frames a remaining viewer has yet to take, however often
// the broadcast lost its last viewer and dropped its ring.
func TestRingModel(t *testing.T) {
	const queue, steps = 8, 20000
	s := NewServer(ServerConfig{ViewerQueue: queue})
	b := s.newBroadcast("model")
	r := rand.New(rand.NewSource(32))
	var live []*viewerConn
	// Positions count the frames written into the ring; written[p] is the
	// seq of the frame at position p, and owed[v] the position v takes next.
	var written []uint64
	owed := map[*viewerConn]uint64{}
	for step, seq := 0, uint64(0); step < steps; step++ {
		head := uint64(len(written))
		switch op := r.Intn(16); {
		case op == 0 && len(live) < 4:
			v, refused := b.join(0, queue)
			if refused != "" {
				t.Fatal(refused)
			}
			live = append(live, v)
			owed[v] = head
		case op == 1 && len(live) > 0:
			i := r.Intn(len(live))
			b.remove(live[i])
			live = append(live[:i], live[i+1:]...)
		case op < 9:
			before := s.Stats().SlowEvictions
			var kept []*viewerConn
			low := head
			for _, v := range live {
				if head-owed[v] < queue {
					kept = append(kept, v)
					low = min(low, owed[v])
				}
			}
			if !s.acceptFrame(b, encodeFrameMsg(t, seq, 8)) {
				t.Fatalf("frame %d rejected", seq)
			}
			if got, want := s.Stats().SlowEvictions-before, int64(len(live)-len(kept)); got != want {
				t.Fatalf("step %d: a frame evicted %d viewers, want %d", step, got, want)
			}
			for _, v := range live {
				if head-owed[v] < queue {
					continue // takes on, checked when it does
				}
				if _, err := takeUpTo(b, v, 1); err != errLapped {
					t.Fatalf("step %d: viewer evicted %d frames behind took with %v, want errLapped", step, head-owed[v], err)
				}
			}
			if len(live) > 0 {
				written = append(written, seq)
				checkRing(t, b, written, low)
			} else if b.ring.slots != nil {
				t.Fatalf("step %d: a frame found no viewer but the ring is still there", step)
			}
			live = kept
			seq++
		case len(live) > 0:
			v := live[r.Intn(len(live))]
			iov := make([][]byte, 1+r.Intn(queue))
			n, more, err := b.take(v, iov)
			if err != nil {
				t.Fatalf("step %d: take: %v", step, err)
			}
			if n == 0 && owed[v] != head {
				t.Fatalf("step %d: took nothing while owed positions %d to %d", step, owed[v], head-1)
			}
			if more != (owed[v]+uint64(n) != head) {
				t.Fatalf("step %d: took %d of positions %d to %d, reported more = %v", step, n, owed[v], head-1, more)
			}
			for _, m := range iov[:n] {
				if m == nil {
					t.Fatalf("step %d: took a cleared slot where position %d was owed", step, owed[v])
				}
				f, _, err := media.ViewFrame(wire.Encoded(m).Body())
				if err != nil || f.Seq != written[owed[v]] {
					t.Fatalf("step %d: took frame %d (%v), want %d", step, f.Seq, err, written[owed[v]])
				}
				owed[v]++
			}
		}
	}
}

// checkRing fails t unless b's ring, holding the frames written so far,
// holds those from position low on and nothing else. The frame a relay
// writes after evicting every viewer is kept until the next frame drops the
// ring, so low counts as at most the last position.
func checkRing(t *testing.T, b *broadcast, written []uint64, low uint64) {
	t.Helper()
	r := &b.ring
	head, q := uint64(len(written)), uint64(len(r.slots))
	if r.head != head {
		t.Fatalf("ring head %d, want %d", r.head, head)
	}
	low = min(low, head-1)
	for p := max(head, q) - q; p < head; p++ {
		m := r.slots[p%q]
		if (m != nil) != (p >= low) {
			t.Fatalf("ring at head %d: slot of position %d set = %v, want positions %d to %d set", head, p, m != nil, low, head-1)
		}
		if m == nil {
			continue
		}
		if f, _, err := media.ViewFrame(wire.Encoded(m).Body()); err != nil || f.Seq != written[p] {
			t.Fatalf("ring at head %d: slot of position %d holds frame %d (%v), want %d", head, p, f.Seq, err, written[p])
		}
	}
}

// TestRingJoinDuringPublish: viewers that join while frames are being
// published each receive a contiguous, in-order run of frames, each once,
// from their join point to the end of the broadcast, then a clean end.
func TestRingJoinDuringPublish(t *testing.T) {
	const frames, joiners = 3000, 8
	s, addr := startServer(t, ServerConfig{ViewerQueue: 8192})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sent atomic.Int64
	pubDone := make(chan error, 1)
	go func() {
		payload := make([]byte, 256)
		for seq := uint64(0); seq < frames; seq++ {
			f := media.Frame{Seq: seq, CapturedAt: time.Now(), Payload: payload}
			if err := pub.Send(&f); err != nil {
				pubDone <- err
				return
			}
			sent.Add(1)
			if seq%50 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		pubDone <- nil
	}()

	viewers := make([]*Viewer, 0, joiners)
	for i := 1; i <= joiners; i++ {
		for sent.Load() < int64(i*frames/(joiners+1)) {
			time.Sleep(100 * time.Microsecond)
		}
		v, err := Subscribe(ctx, addr, "b1", "", ViewerOptions{Queue: frames + 1})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		viewers = append(viewers, v)
	}
	if err := <-pubDone; err != nil {
		t.Fatal(err)
	}
	if err := pub.End(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, v := range viewers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, next := 0, uint64(0)
			for rf := range v.Frames() {
				if n > 0 && rf.Frame.Seq != next {
					t.Errorf("viewer %d: frame %d after %d, want %d", i, rf.Frame.Seq, next-1, next)
					return
				}
				next = rf.Frame.Seq + 1
				n++
			}
			if err := v.Err(); err != nil || n == 0 || next != frames {
				t.Errorf("viewer %d: %d frames ending before %d (%v); want a run ending at %d and a clean end", i, n, next, err, frames)
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().SlowEvictions; got != 0 {
		t.Fatalf("%d evictions, want 0", got)
	}
}

// TestRingNoViewersNoCost: a broadcast without RTMP viewers allocates no
// ring, and one whose last viewer left drops its ring, and with it every
// relay buffer, at the next frame.
func TestRingNoViewersNoCost(t *testing.T) {
	s := NewServer(ServerConfig{})
	b := s.newBroadcast("quiet")
	enc := encodeFrameMsg(t, 1, 512)
	allocs := testing.AllocsPerRun(100, func() {
		if !s.acceptFrame(b, enc) {
			t.Fatal("frame rejected")
		}
	})
	if allocs != 0 || b.ring.slots != nil || b.ring.head != 0 {
		t.Fatalf("no viewers: %.1f allocs per frame, ring of %d slots at head %d; want 0, none, 0", allocs, len(b.ring.slots), b.ring.head)
	}
	v, refused := b.join(0, s.cfg.ViewerQueue)
	if refused != "" {
		t.Fatal(refused)
	}
	for i := 0; i < 10; i++ {
		s.acceptFrame(b, enc)
	}
	if len(b.ring.slots) != s.cfg.ViewerQueue || b.ring.head != 10 {
		t.Fatalf("one viewer: ring of %d slots at head %d, want %d at 10", len(b.ring.slots), b.ring.head, s.cfg.ViewerQueue)
	}
	b.remove(v)
	s.acceptFrame(b, enc)
	if b.ring.slots != nil {
		t.Fatal("the ring outlived the broadcast's last viewer")
	}
}

// TestJoinBytesFlatInQueue pins what the server allocates to admit a viewer
// to a broadcast whose ring exists: the same bytes at a ViewerQueue of 256 and
// of 8192, because the queue is one ring per broadcast, allocated by the
// first viewer. Counted exactly, as testing.AllocsPerRun counts allocations,
// over 64 joins (whose copy-on-write snapshots are part of the cost).
func TestJoinBytesFlatInQueue(t *testing.T) {
	const viewers = 64
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perViewer := func(queue int) uint64 {
		s := NewServer(ServerConfig{ViewerQueue: queue})
		b := s.newBroadcast("fixture")
		b.join(0, queue)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < viewers; i++ {
			b.join(0, queue)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / viewers
	}
	small, large := perViewer(256), perViewer(8192)
	if small != large || large != joinBytes {
		t.Fatalf("a join allocates %d B at ViewerQueue 256 and %d B at 8192, want %d at both", small, large, joinBytes)
	}
}

// joinBytes is a join's allocation, averaged over 64: the viewerConn, its
// wake and done channels, and its share of the snapshot copies. A push's
// iovec array comes from a pool for the length of its write, not with the
// viewer.
const joinBytes = 548

// TestViewerMemoryFlatInQueue is the end-to-end form of the test above: the
// live heap a viewer joined over a socket costs — connection state on both
// ends included — does not grow with ViewerQueue, and stays a few KB. Live
// heap over sockets moves by a few hundred bytes per viewer from run to run,
// hence the tolerances; a per-viewer queue of 8192 would add 192 KB.
func TestViewerMemoryFlatInQueue(t *testing.T) {
	const viewers = 64
	perViewer := map[int]int64{}
	for _, queue := range []int{256, 8192} {
		t.Run("", func(t *testing.T) {
			s, addr := startServer(t, ServerConfig{ViewerQueue: queue})
			pub, err := Publish(context.Background(), addr, "b1", "tok", nil)
			if err != nil {
				t.Fatal(err)
			}
			defer pub.End()
			dialRawViewer(t, addr, "b1")
			conns := make([]net.Conn, viewers)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range conns {
				conns[i] = dialRawViewer(t, addr, "b1")
			}
			for s.Stats().ActiveViewers != viewers+1 {
				time.Sleep(time.Millisecond)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(conns)
			perViewer[queue] = (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / viewers
		})
	}
	small, large := perViewer[256], perViewer[8192]
	if d := large - small; d > 4<<10 || d < -4<<10 || large > 8<<10 {
		t.Fatalf("a joined viewer costs %d B of live heap at ViewerQueue 8192 and %d B at 256; want both at most 8 KB, within 4 KB of each other", large, small)
	}
}
