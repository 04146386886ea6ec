package rtmp

import (
	"context"
	"crypto/ed25519"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rng"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// startServer launches a server on an ephemeral port and returns its address
// and a shutdown func.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	// Registered before the shutdown cleanup below so it runs after it
	// (t.Cleanup is LIFO): every server goroutine must be gone by then.
	testutil.CheckGoroutines(t)
	s := NewServer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := s.Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		s.Close()
	})
	return s, ln.Addr().String()
}

func testFrames(n int) []media.Frame {
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(99))
	base := time.Now()
	frames := make([]media.Frame, n)
	for i := range frames {
		frames[i] = enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
	}
	return frames
}

func TestPublishSubscribeRoundtrip(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	ctx := context.Background()

	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := Subscribe(ctx, addr, "b1", "tok", ViewerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()

	frames := testFrames(10)
	for i := range frames {
		if err := pub.Send(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.End(); err != nil {
		t.Fatal(err)
	}

	var got []ReceivedFrame
	for rf := range view.Frames() {
		got = append(got, rf)
	}
	if len(got) != 10 {
		t.Fatalf("received %d frames, want 10", len(got))
	}
	for i, rf := range got {
		if rf.Frame.Seq != frames[i].Seq {
			t.Fatalf("frame %d seq = %d, want %d", i, rf.Frame.Seq, frames[i].Seq)
		}
		if rf.ReceivedAt.IsZero() {
			t.Fatal("missing receive timestamp")
		}
		if rf.Signed {
			t.Fatal("unsigned stream delivered signed frames")
		}
	}
	if err := view.Err(); err != nil {
		t.Fatalf("viewer error after clean end: %v", err)
	}
}

func TestViewerCapSendsOverflowToHLS(t *testing.T) {
	s, addr := startServer(t, ServerConfig{ViewerCap: 3})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.End()

	var viewers []*Viewer
	for i := 0; i < 3; i++ {
		v, err := Subscribe(ctx, addr, "b1", "tok", ViewerOptions{})
		if err != nil {
			t.Fatalf("viewer %d: %v", i, err)
		}
		defer v.Close()
		viewers = append(viewers, v)
	}
	if _, err := Subscribe(ctx, addr, "b1", "tok", ViewerOptions{}); err != ErrFull {
		t.Fatalf("4th viewer error = %v, want ErrFull", err)
	}
	if got := s.Stats().ViewersRejected; got != 1 {
		t.Fatalf("ViewersRejected = %d, want 1", got)
	}
	_ = viewers
}

func TestSubscribeUnknownBroadcast(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	_, err := Subscribe(context.Background(), addr, "missing", "tok", ViewerOptions{})
	rej, ok := err.(*ErrRejected)
	if !ok || rej.Status != "not-found" {
		t.Fatalf("error = %v, want not-found rejection", err)
	}
}

func TestAuthRejection(t *testing.T) {
	auth := AuthFunc(func(id, token, role string) bool { return token == "good" })
	_, addr := startServer(t, ServerConfig{Auth: auth})
	ctx := context.Background()
	if _, err := Publish(ctx, addr, "b1", "bad", nil); err == nil {
		t.Fatal("bad token accepted")
	}
	pub, err := Publish(ctx, addr, "b1", "good", nil)
	if err != nil {
		t.Fatal(err)
	}
	pub.End()
}

// TestOversizedHandshakeRefusedUnallocated: the handshake is read before any
// auth, so a declared length no Handshake can have is refused on the header
// alone. A peer that declares a near-MaxBody handshake and then idles must
// cost the server no memory and have its connection closed.
func TestOversizedHandshakeRefusedUnallocated(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write([]byte{byte(wire.MsgHandshake), 0x01, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("after the oversized header: read %d bytes, %v; want the server to close", n, err)
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a 5-byte handshake header cost the server %d bytes, want < 1 MB", d)
	}
}

func TestDuplicateBroadcasterRejected(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.End()
	if _, err := Publish(ctx, addr, "b1", "tok", nil); err == nil {
		t.Fatal("duplicate broadcaster accepted")
	}
}

func TestFanOutToManyViewers(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}

	const nViewers = 20
	var wg sync.WaitGroup
	counts := make([]int, nViewers)
	for i := 0; i < nViewers; i++ {
		v, err := Subscribe(ctx, addr, "b1", "tok", ViewerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, v *Viewer) {
			defer wg.Done()
			defer v.Close()
			for range v.Frames() {
				counts[i]++
			}
		}(i, v)
	}

	frames := testFrames(25)
	for i := range frames {
		if err := pub.Send(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	pub.End()
	wg.Wait()
	for i, c := range counts {
		if c != 25 {
			t.Fatalf("viewer %d received %d/25 frames", i, c)
		}
	}
}

func TestTapObservesFrames(t *testing.T) {
	var mu sync.Mutex
	var tapped []uint64
	tap := func(id string, f media.Frame, at time.Time) {
		mu.Lock()
		tapped = append(tapped, f.Seq)
		mu.Unlock()
		if id != "b1" || at.IsZero() {
			t.Errorf("tap got id=%s at=%v", id, at)
		}
	}
	_, addr := startServer(t, ServerConfig{Tap: tap})
	pub, err := Publish(context.Background(), addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(5)
	for i := range frames {
		pub.Send(&frames[i])
	}
	pub.End()
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := len(tapped)
		mu.Unlock()
		if n == 5 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("tap saw %d/5 frames", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestOnEndCallback(t *testing.T) {
	done := make(chan string, 1)
	_, addr := startServer(t, ServerConfig{OnEnd: func(id string) { done <- id }})
	pub, err := Publish(context.Background(), addr, "b9", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	pub.End()
	select {
	case id := <-done:
		if id != "b9" {
			t.Fatalf("OnEnd got %q", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnEnd never fired")
	}
}

type keyAuth struct {
	pub ed25519.PublicKey
}

func (keyAuth) Authorize(string, string, string) bool { return true }
func (a keyAuth) PublicKey(string) ed25519.PublicKey  { return a.pub }

func TestSignedStreamVerifies(t *testing.T) {
	pubKey, privKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, ServerConfig{Auth: keyAuth{pub: pubKey}})
	ctx := context.Background()
	pub, err := Publish(ctx, addr, "b1", "tok", privKey)
	if err != nil {
		t.Fatal(err)
	}
	view, err := Subscribe(ctx, addr, "b1", "tok", ViewerOptions{PubKey: pubKey})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	frames := testFrames(5)
	for i := range frames {
		if err := pub.Send(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	pub.End()
	n := 0
	for rf := range view.Frames() {
		if !rf.Signed || !rf.Verified {
			t.Fatalf("frame %d: signed=%v verified=%v", n, rf.Signed, rf.Verified)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("received %d/5 signed frames", n)
	}
}

func TestSignedBroadcastRejectsUnsignedFrames(t *testing.T) {
	pubKey, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, addr := startServer(t, ServerConfig{Auth: keyAuth{pub: pubKey}})
	ctx := context.Background()
	// Publisher "forgets" to sign: the downgrade attack.
	pub, err := Publish(ctx, addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	view, err := Subscribe(ctx, addr, "b1", "tok", ViewerOptions{PubKey: pubKey})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	frames := testFrames(3)
	for i := range frames {
		pub.Send(&frames[i])
	}
	pub.End()
	for range view.Frames() {
		t.Fatal("unsigned frame leaked through signed broadcast")
	}
	if got := s.Stats().TamperedFrames; got != 3 {
		t.Fatalf("TamperedFrames = %d, want 3", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s, addr := startServer(t, ServerConfig{})
	ctx := context.Background()
	pub, _ := Publish(ctx, addr, "b1", "tok", nil)
	v, _ := Subscribe(ctx, addr, "b1", "tok", ViewerOptions{})
	defer v.Close()
	frames := testFrames(4)
	for i := range frames {
		pub.Send(&frames[i])
	}
	pub.End()
	for range v.Frames() {
	}
	if got := s.Stats().FramesIn; got != 4 {
		t.Fatalf("FramesIn = %d", got)
	}
	if got := s.Stats().FramesOut; got != 4 {
		t.Fatalf("FramesOut = %d", got)
	}
	if s.Stats().BytesIn <= 0 || s.Stats().BytesOut <= 0 {
		t.Fatal("byte counters did not advance")
	}
}
