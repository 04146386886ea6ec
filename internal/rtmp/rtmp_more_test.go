package rtmp

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
)

// TestSlowViewerDoesNotBlockBroadcast verifies the backpressure policy: a
// viewer that stops draining its connection never stalls the broadcast —
// frames keep flowing to healthy viewers and, once its queue overflows, the
// stalled session is dropped (production clients would rejoin via HLS).
func TestSlowViewerDoesNotBlockBroadcast(t *testing.T) {
	s, addr := startServer(t, ServerConfig{ViewerQueue: 8192})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.End()

	// A raw conn that handshakes as viewer and then never reads.
	dialRawViewer(t, addr, "b1")

	// Fast, healthy viewer for comparison.
	healthy, err := Subscribe(ctx, addr, "b1", "", ViewerOptions{Queue: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range healthy.Frames() {
			received++
		}
	}()

	// Overwhelm the stalled viewer's queue. The server never blocks:
	// frames keep flowing to the healthy viewer.
	frames := testFrames(600)
	for i := range frames {
		if err := pub.Send(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	pub.End()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("healthy viewer starved behind a slow one")
	}
	if received != 600 {
		t.Fatalf("healthy viewer received %d/600", received)
	}
	// The stalled viewer's teardown runs on its own goroutine after End;
	// the gauge drains to zero shortly after, not synchronously.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().ActiveViewers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveViewers = %d after end", s.Stats().ActiveViewers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestViewerHangupMidStream verifies the server notices a viewer that
// disconnects abruptly and keeps serving others.
func TestViewerHangupMidStream(t *testing.T) {
	s, addr := startServer(t, ServerConfig{})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := Subscribe(ctx, addr, "b1", "", ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Subscribe(ctx, addr, "b1", "", ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()

	frames := testFrames(20)
	for i := 0; i < 10; i++ {
		pub.Send(&frames[i])
	}
	v1.Close() // abrupt hangup
	for i := 10; i < 20; i++ {
		pub.Send(&frames[i])
	}
	pub.End()
	n := 0
	for range v2.Frames() {
		n++
	}
	if n != 20 {
		t.Fatalf("surviving viewer received %d/20", n)
	}
	// Active viewer gauge drains to zero.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().ActiveViewers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveViewers = %d", s.Stats().ActiveViewers)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBroadcasterAbruptDisconnect: a crash (no MsgEnd) still ends the
// broadcast for viewers and fires OnEnd.
func TestBroadcasterAbruptDisconnect(t *testing.T) {
	ended := make(chan string, 1)
	_, addr := startServer(t, ServerConfig{OnEnd: func(id string) { ended <- id }})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Subscribe(ctx, addr, "b1", "", ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	frames := testFrames(3)
	for i := range frames {
		pub.Send(&frames[i])
	}
	pub.Close() // abort without MsgEnd
	n := 0
	for range v.Frames() {
		n++
	}
	if n != 3 {
		t.Fatalf("viewer received %d/3 before crash", n)
	}
	select {
	case id := <-ended:
		if id != "b1" {
			t.Fatalf("OnEnd(%q)", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnEnd never fired after broadcaster crash")
	}
}

// TestConcurrentBroadcasts checks stream isolation.
func TestConcurrentBroadcasts(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	ctx := context.Background()
	pubA, err := Publish(ctx, addr, "a", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	pubB, err := Publish(ctx, addr, "b", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	vA, err := Subscribe(ctx, addr, "a", "", ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vA.Close()
	vB, err := Subscribe(ctx, addr, "b", "", ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer vB.Close()

	fa := testFrames(5)
	fb := testFrames(9)
	for i := range fa {
		pubA.Send(&fa[i])
	}
	for i := range fb {
		pubB.Send(&fb[i])
	}
	pubA.End()
	pubB.End()
	na, nb := 0, 0
	for range vA.Frames() {
		na++
	}
	for range vB.Frames() {
		nb++
	}
	if na != 5 || nb != 9 {
		t.Fatalf("cross-stream leak: a=%d b=%d", na, nb)
	}
}

// TestGarbageHandshakeIgnored: junk connections must not crash the server.
func TestGarbageHandshakeIgnored(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	for _, junk := range [][]byte{
		{},
		{0xFF, 0xFF},
		{byte(wire.MsgFrame), 0, 0, 0, 1, 42}, // valid frame msg, but not a handshake
		{byte(wire.MsgHandshake), 0, 0, 0, 2, 1, 2}, // handshake with garbage body
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(junk)
		conn.Close()
	}
	// Server still serves.
	pub, err := Publish(context.Background(), addr, "ok", "tok", nil)
	if err != nil {
		t.Fatalf("server unusable after junk: %v", err)
	}
	pub.End()
}

// TestHandshakeEndsOnCancel: a server that accepts and never acks must not
// hold a handshake whose context has no deadline once that context is
// cancelled — Publish and Subscribe return context.Canceled promptly.
func TestHandshakeEndsOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c // held open, never answered
		}
	}()
	addr := ln.Addr().String()
	for _, tc := range []struct {
		name string
		open func(ctx context.Context) error
	}{
		{"publish", func(ctx context.Context) error {
			_, err := Publish(ctx, addr, "b1", "tok", nil)
			return err
		}},
		{"subscribe", func(ctx context.Context) error {
			_, err := Subscribe(ctx, addr, "b1", "", ViewerOptions{})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() { errc <- tc.open(ctx) }()
			conn := <-accepted
			defer conn.Close() // releases a handshake the cancel did not
			cancel()
			select {
			case err := <-errc:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("handshake after cancel: %v, want context.Canceled", err)
				}
			case <-time.After(time.Second):
				t.Fatal("handshake still blocked 1 s after its context was cancelled")
			}
		})
	}
}

// TestHandshakeReadHasDeadline: the server sets a deadline before it reads a
// new connection's handshake, so a peer that connects and sends nothing, or
// half a handshake, is cut off instead of holding a goroutine and a socket;
// and it clears the deadline once it has acked, so an accepted session — a
// publisher or a viewer — then waits on its socket as long as it must.
func TestHandshakeReadHasDeadline(t *testing.T) {
	testutil.CheckGoroutines(t)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &deadlineListener{Listener: inner, accepted: make(chan *deadlineConn, 3)}
	s := NewServer(ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	go s.Serve(ctx, ln)
	t.Cleanup(func() {
		cancel()
		s.Close()
	})
	addr := inner.Addr().String()

	// A silent peer: the server's first act is the deadline, then the read
	// it bounds.
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silentConn := <-ln.accepted
	for start := time.Now(); len(silentConn.events()) < 2 && time.Since(start) < time.Second; {
		time.Sleep(time.Millisecond)
	}
	if got := silentConn.events(); !slices.Equal(got, []string{"deadline", "read"}) {
		t.Fatalf("a silent peer's connection saw %v, want [deadline read]", got)
	}

	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.End()
	pubConn := <-ln.accepted
	viewer, err := Subscribe(ctx, addr, "b1", "", ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	viewerConn := <-ln.accepted
	frames := testFrames(1)
	if err := pub.Send(&frames[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-viewer.Frames():
	case <-time.After(5 * time.Second):
		t.Fatal("no frame reached the viewer")
	}
	// The frame was read on the publisher's connection and pushed on the
	// viewer's, so both acks, and the clears after them, are done.
	for name, c := range map[string]*deadlineConn{"publisher": pubConn, "viewer": viewerConn} {
		got := c.events()
		clearAt := slices.Index(got, "clear")
		if len(got) == 0 || got[0] != "deadline" || clearAt < 2 || slices.Contains(got[1:clearAt], "deadline") || slices.Contains(got[clearAt+1:], "deadline") {
			t.Errorf("%s connection saw %v; want a deadline, the handshake's reads, one clear, then no deadline", name, got)
		}
	}
}

// deadlineListener hands out its connections wrapped in a deadlineConn, and
// each one on accepted as well.
type deadlineListener struct {
	net.Listener
	accepted chan *deadlineConn
}

func (l *deadlineListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	dc := &deadlineConn{Conn: c}
	l.accepted <- dc
	return dc, nil
}

// deadlineConn logs, in order, the read deadlines set on a connection —
// "deadline" for a time, "clear" for none — and the reads made on it.
// Write deadlines, which every push sets, are not logged.
type deadlineConn struct {
	net.Conn
	mu  sync.Mutex
	log []string
}

func (c *deadlineConn) note(event string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if event != "read" || len(c.log) == 0 || c.log[len(c.log)-1] != "read" {
		c.log = append(c.log, event) // runs of reads are logged as one
	}
}

func (c *deadlineConn) events() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.log)
}

func (c *deadlineConn) noteDeadline(at time.Time) {
	if at.IsZero() {
		c.note("clear")
	} else if d := time.Until(at); d > 0 && d <= handshakeTimeout {
		c.note("deadline")
	} else {
		c.note("deadline out of range")
	}
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.note("read")
	return c.Conn.Read(p)
}

func (c *deadlineConn) SetDeadline(at time.Time) error {
	c.noteDeadline(at)
	return c.Conn.SetDeadline(at)
}

func (c *deadlineConn) SetReadDeadline(at time.Time) error {
	c.noteDeadline(at)
	return c.Conn.SetReadDeadline(at)
}
