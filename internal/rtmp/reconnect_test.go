package rtmp

import (
	"context"
	"crypto/ed25519"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// connRecorder captures the raw conns a resilient viewer dials so the test
// can reset them mid-stream.
type connRecorder struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (r *connRecorder) wrap(c net.Conn) net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conns = append(r.conns, c)
	return c
}

func (r *connRecorder) kill(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= len(r.conns) {
		return false
	}
	r.conns[i].Close()
	return true
}

func (r *connRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.conns)
}

func fastBackoff() resilience.Policy {
	return resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestResilientViewerResumesAfterReset(t *testing.T) {
	s := NewServer(ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pub, err := Publish(ctx, ln.Addr().String(), "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}

	rec := &connRecorder{}
	rv, err := SubscribeResilient(ctx, ln.Addr().String(), "b1", "", ReconnectConfig{
		Options: ViewerOptions{WrapConn: rec.wrap},
		Backoff: fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	const total = 60
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(9))
	go func() {
		for i := 0; i < total; i++ {
			f := enc.Next(time.Now())
			if err := pub.Send(&f); err != nil {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		pub.End()
	}()

	var seqs []uint64
	killed := false
	for rf := range rv.Frames() {
		seqs = append(seqs, rf.Frame.Seq)
		// Reset the first connection mid-stream, once.
		if !killed && len(seqs) == 10 {
			killed = rec.kill(0)
			if !killed {
				t.Fatal("no conn recorded to kill")
			}
		}
	}
	if err := rv.Err(); err != nil {
		t.Fatalf("terminal err = %v, want clean end", err)
	}
	if rv.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want ≥ 1", rv.Reconnects())
	}
	if rec.count() < 2 {
		t.Fatalf("dialed %d conns, want ≥ 2", rec.count())
	}
	// The resumed stream must move forward: strictly increasing sequence
	// numbers, no duplicates, no reordering — gaps (frames pushed while
	// disconnected) are allowed.
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("seq %d after %d at index %d: duplicate or reordered", seqs[i], seqs[i-1], i)
		}
	}
	// The viewer kept receiving after the reset.
	if seqs[len(seqs)-1] < 20 {
		t.Fatalf("last seq %d: viewer never resumed past the reset", seqs[len(seqs)-1])
	}
	if len(seqs) < 20 {
		t.Fatalf("received only %d frames", len(seqs))
	}
}

func TestResilientViewerCleanEndNoReconnect(t *testing.T) {
	s := NewServer(ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pub, err := Publish(ctx, ln.Addr().String(), "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := SubscribeResilient(ctx, ln.Addr().String(), "b1", "", ReconnectConfig{Backoff: fastBackoff()})
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(10))
	for i := 0; i < 5; i++ {
		f := enc.Next(time.Now())
		if err := pub.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	pub.End()
	n := 0
	for range rv.Frames() {
		n++
	}
	if n != 5 {
		t.Fatalf("frames = %d, want 5", n)
	}
	if rv.Err() != nil || rv.Reconnects() != 0 {
		t.Fatalf("err=%v reconnects=%d after clean end", rv.Err(), rv.Reconnects())
	}
}

func TestResilientViewerEndWhileDisconnectedIsClean(t *testing.T) {
	s := NewServer(ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pub, err := Publish(ctx, ln.Addr().String(), "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &connRecorder{}
	rv, err := SubscribeResilient(ctx, ln.Addr().String(), "b1", "", ReconnectConfig{
		Options: ViewerOptions{WrapConn: rec.wrap},
		// Slow the redial enough that the broadcast ends first.
		Backoff: resilience.Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 100 * time.Millisecond, Jitter: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(11))
	f := enc.Next(time.Now())
	if err := pub.Send(&f); err != nil {
		t.Fatal(err)
	}
	// Wait for the frame, cut the conn, then end the broadcast before the
	// viewer's redial fires: the resubscribe gets NotFound, a normal end.
	<-rv.Frames()
	rec.kill(0)
	pub.End()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-rv.Frames():
			if !ok {
				if err := rv.Err(); err != nil {
					t.Fatalf("terminal err = %v, want clean end-while-away", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("viewer never terminated after broadcast ended while disconnected")
		}
	}
}

// TestResilientViewerNoGoroutineLeak drives repeated subscribe → reset →
// reconnect → close cycles and checks no goroutine born during the test
// survives it — the leak check the paper-scale fan-out depends on.
func TestResilientViewerNoGoroutineLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewServer(ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pub, err := Publish(ctx, ln.Addr().String(), "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(12))
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := enc.Next(time.Now())
			if pub.Send(&f) != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for cycle := 0; cycle < 5; cycle++ {
		rec := &connRecorder{}
		rv, err := SubscribeResilient(ctx, ln.Addr().String(), "b1", "", ReconnectConfig{
			Options: ViewerOptions{WrapConn: rec.wrap},
			Backoff: fastBackoff(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for rf := range rv.Frames() {
			_ = rf
			got++
			if got == 3 {
				rec.kill(0) // force one reconnect per cycle
			}
			if got >= 8 {
				break
			}
		}
		rv.Close()
	}
	close(stop)
	pub.Close()
}

// TestResilientViewerRedialsThroughBackoffSleep: the viewer waits out every
// redial through its Backoff.Sleep, as the publisher does; the recorded
// delays must be exactly the backoff schedule of the redials it made.
func TestResilientViewerRedialsThroughBackoffSleep(t *testing.T) {
	s := NewServer(ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pub, err := Publish(ctx, ln.Addr().String(), "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var delays []time.Duration
	backoff := resilience.Policy{BaseDelay: 3 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Jitter: -1}
	backoff.Sleep = func(_ context.Context, d time.Duration) error {
		mu.Lock()
		defer mu.Unlock()
		delays = append(delays, d)
		return nil
	}
	rec := &connRecorder{}
	rv, err := SubscribeResilient(ctx, ln.Addr().String(), "b1", "", ReconnectConfig{
		Options: ViewerOptions{WrapConn: rec.wrap},
		Backoff: backoff,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(13))
	f := enc.Next(time.Now())
	if err := pub.Send(&f); err != nil {
		t.Fatal(err)
	}
	<-rv.Frames()
	rec.kill(0)
	for i := 0; rv.Reconnects() == 0; i++ {
		if i == 5000 {
			t.Fatal("viewer never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
	pub.End()
	for range rv.Frames() {
	}
	if err := rv.Err(); err != nil {
		t.Fatalf("terminal err = %v, want clean end", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if int64(len(delays)) != rv.Reconnects() {
		t.Fatalf("recorded %d delays %v for %d redials", len(delays), delays, rv.Reconnects())
	}
	for i, d := range delays {
		if want := backoff.Delay(i); d != want {
			t.Fatalf("delay %d = %v, want the backoff schedule's %v", i, d, want)
		}
	}
}

// TestResilientPublisherBudgetIsPerOutage: MaxReconnects bounds one outage,
// not the session. With a budget of one redial, the session survives two
// separate server crashes, each restarted by the first redial's wait.
func TestResilientPublisherBudgetIsPerOutage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var srv *Server
	var addr string
	start := func() error {
		srv = NewServer(ServerConfig{})
		ln, err := srv.Listen(ctx, "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr = ln.Addr().String()
		return nil
	}
	if err := start(); err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close() }()

	down := false
	backoff := resilience.Policy{BaseDelay: time.Millisecond, Jitter: -1}
	backoff.Sleep = func(context.Context, time.Duration) error {
		if !down {
			return nil
		}
		down = false
		return start()
	}
	rp, err := PublishResilient(ctx, addr, "b1", "tok", PublishResilientConfig{
		Resolve:       func() string { return addr },
		Backoff:       backoff,
		MaxReconnects: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(14))
	for outage := int64(1); outage <= 2; outage++ {
		srv.Abort()
		down = true
		for i := 0; rp.Reconnects() < outage; i++ {
			if i == 1000 {
				t.Fatalf("outage %d: publisher never noticed the crash", outage)
			}
			f := enc.Next(time.Now())
			if err := rp.Send(ctx, &f); err != nil {
				t.Fatalf("outage %d, send %d: %v", outage, i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestResilientPublisherRedialsThroughBackoffSleep: the publisher waits out
// every redial through its Backoff.Sleep, so a caller on another clock owns
// each wait. The recording Sleep restarts the crashed server on its first
// call; the recorded delays must be exactly the backoff schedule of the
// redials the session made.
func TestResilientPublisherRedialsThroughBackoffSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ServerConfig{})
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	var delays []time.Duration
	var restarted *Server
	defer func() {
		if restarted != nil {
			restarted.Close()
		}
	}()
	backoff := resilience.Policy{BaseDelay: 3 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Jitter: -1}
	backoff.Sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		if restarted == nil {
			restarted = NewServer(ServerConfig{})
			ln, err := restarted.Listen(ctx, "127.0.0.1:0")
			if err != nil {
				return err
			}
			addr = ln.Addr().String()
		}
		return nil
	}
	rp, err := PublishResilient(ctx, addr, "b1", "tok", PublishResilientConfig{
		Resolve:       func() string { return addr },
		Backoff:       backoff,
		MaxReconnects: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	s.Abort()
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(9))
	for i := 0; rp.Reconnects() == 0; i++ {
		if i == 1000 {
			t.Fatal("publisher never noticed the crash")
		}
		f := enc.Next(time.Now())
		if err := rp.Send(ctx, &f); err != nil {
			t.Fatalf("send %d: %v (recorded delays %v)", i, err, delays)
		}
		time.Sleep(time.Millisecond)
	}
	if int64(len(delays)) != rp.Reconnects() {
		t.Fatalf("recorded %d delays %v for %d redials", len(delays), delays, rp.Reconnects())
	}
	for i, d := range delays {
		if want := backoff.Delay(i); d != want {
			t.Fatalf("delay %d = %v, want the backoff schedule's %v", i, d, want)
		}
	}
}

// TestResilientPublisherReplaysSignature: a frame the caller signed goes out
// signed on replay too. The publisher has no signer of its own, so the
// resume ring must keep the caller's signature; the restarted server, which
// resumes from the top, sees every frame signed, the replayed first one
// included.
func TestResilientPublisherReplaysSignature(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewServer(ServerConfig{})
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	var (
		mu   sync.Mutex
		seen []media.Frame
	)
	restarted := NewServer(ServerConfig{Tap: func(_ string, f media.Frame, _ time.Time) {
		mu.Lock()
		seen = append(seen, f)
		mu.Unlock()
	}})
	defer restarted.Close()
	backoff := resilience.Policy{BaseDelay: time.Millisecond, Jitter: -1}
	backoff.Sleep = func(ctx context.Context, _ time.Duration) error {
		if addr != ln.Addr().String() {
			return nil
		}
		rln, err := restarted.Listen(ctx, "127.0.0.1:0")
		if err != nil {
			return err
		}
		addr = rln.Addr().String()
		return nil
	}
	rp, err := PublishResilient(ctx, addr, "b1", "tok", PublishResilientConfig{
		Resolve:       func() string { return addr },
		Backoff:       backoff,
		MaxReconnects: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(21))
	send := func() {
		t.Helper()
		f := enc.Next(time.Now())
		f.Sig = ed25519.Sign(priv, f.UnsignedBytes())
		if err := rp.Send(ctx, &f); err != nil {
			t.Fatalf("send %d: %v", f.Seq, err)
		}
	}
	send()
	s.Abort()
	for i := 0; rp.Reconnects() == 0; i++ {
		if i == 1000 {
			t.Fatal("publisher never noticed the crash")
		}
		send()
		time.Sleep(time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the restarted server saw no frame")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if seen[0].Seq != 0 {
		t.Fatalf("restarted server's first frame is seq %d, want the replayed 0", seen[0].Seq)
	}
	for _, f := range seen {
		if !ed25519.Verify(pub, f.UnsignedBytes(), f.Sig) {
			t.Fatalf("frame %d reached the restarted server with signature %x, want the caller's", f.Seq, f.Sig)
		}
	}
}

// TestResilientViewerRedialsAfterEviction: a session the server evicts
// because its consumer stalled past the queue is a dropped transport, not an
// ended broadcast — the viewer redials and keeps receiving, and reports a
// clean end only after the publisher really ends.
func TestResilientViewerRedialsAfterEviction(t *testing.T) {
	s, addr := startServer(t, ServerConfig{ViewerQueue: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close() // lets the server's Close return if the test fails early
	rv, err := SubscribeResilient(ctx, addr, "b1", "", ReconnectConfig{
		Options: ViewerOptions{Queue: 1},
		Backoff: fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	// Nothing reads rv.Frames() until the server has evicted the session.
	seq := publishUntilEvicted(t, s, pub, 0)
	// Keep the broadcast live while the consumer catches up.
	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for ; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			f := media.Frame{Seq: seq, CapturedAt: time.Now(), Payload: make([]byte, 64)}
			if err := pub.Send(&f); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// At most two frames of the evicted session sit between its socket and
	// the consumer (one in rv's queue, one in hand), so a third received
	// after the redial came over the new session.
	deadline := time.After(15 * time.Second)
	for after := 0; after < 3; {
		select {
		case _, ok := <-rv.Frames():
			if !ok {
				close(stop)
				<-pubDone
				t.Fatalf("frames closed while the broadcast is live: err %v, %d reconnects", rv.Err(), rv.Reconnects())
			}
			if rv.Reconnects() > 0 {
				after++
			}
		case <-deadline:
			close(stop)
			<-pubDone
			t.Fatalf("no frame over a redialed session (%d reconnects)", rv.Reconnects())
		}
	}
	close(stop)
	<-pubDone
	if err := pub.End(); err != nil {
		t.Fatal(err)
	}
	for range rv.Frames() {
	}
	if err := rv.Err(); err != nil || rv.Reconnects() < 1 {
		t.Fatalf("after the end: err %v, %d reconnects; want a clean end after at least one redial", err, rv.Reconnects())
	}
}
