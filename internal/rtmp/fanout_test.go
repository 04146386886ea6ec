package rtmp

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ed25519"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// encodeFrameMsg builds the pre-framed wire message a broadcaster read loop
// would hand to acceptFrame.
func encodeFrameMsg(t testing.TB, seq uint64, payload int) wire.Encoded {
	t.Helper()
	f := &media.Frame{Seq: seq, CapturedAt: time.Unix(1, 2), Payload: make([]byte, payload)}
	enc, err := wire.EncodeMessage(wire.Message{Type: wire.MsgFrame, Body: media.MarshalFrame(nil, f)})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestConcurrentJoinLeaveFanout churns viewers on and off a live broadcast
// while the publisher keeps pumping frames — the copy-on-write registry must
// keep joins, leaves, and fan-out consistent under the race detector. The
// publisher pauses every 50 frames: unpaced, it and the broadcaster loop can
// keep both CPUs of a small machine busy until a viewer falls a whole ring
// behind, and an evicted viewer rightly sees its stream break.
func TestConcurrentJoinLeaveFanout(t *testing.T) {
	s, addr := startServer(t, ServerConfig{ViewerQueue: 4096})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	pub, err := Publish(ctx, addr, "churn", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	stop := make(chan struct{})
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		payload := make([]byte, 512)
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			f := &media.Frame{Seq: seq, CapturedAt: time.Now(), Payload: payload}
			if err := pub.Send(f); err != nil {
				return
			}
			if seq%50 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	const churners = 8
	const rounds = 5
	var wg sync.WaitGroup
	for i := 0; i < churners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v, err := Subscribe(ctx, addr, "churn", "tok", ViewerOptions{Queue: 256})
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				// Consume a few frames to prove fan-out reaches a viewer
				// that joined mid-broadcast, then leave.
				for got := 0; got < 3; got++ {
					select {
					case _, ok := <-v.Frames():
						if !ok {
							t.Error("frames channel closed mid-broadcast")
							v.Close()
							return
						}
					case <-ctx.Done():
						t.Error("timed out waiting for frames")
						v.Close()
						return
					}
				}
				v.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-pubDone

	// Every viewer left; the server-side registry must drain to zero.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().ActiveViewers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveViewers = %d after all viewers left", s.Stats().ActiveViewers)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := pub.End(); err != nil {
		t.Fatal(err)
	}
}

// TestAcceptFrameEvictsSlowViewer drives the eviction path directly: a
// viewer the next frame would lap is removed from the viewer set, marked lapped
// and its done channel closed, while the healthy viewer keeps receiving.
func TestAcceptFrameEvictsSlowViewer(t *testing.T) {
	const queue = 2
	s, b := fanoutFixture(ServerConfig{ViewerQueue: queue}, 2)
	vs := b.snapshot()
	slow, fast := vs[0], vs[1]

	enc := encodeFrameMsg(t, 1, 64)
	// Frames 1 and 2 put slow a whole ring behind; frame 3 would overwrite
	// its next frame and must evict it.
	for i := 0; i < queue+1; i++ {
		if !s.acceptFrame(b, enc) {
			t.Fatalf("frame %d rejected", i+1)
		}
		if got, err := takeUpTo(b, fast, pushMsgs); len(got) != 1 || err != nil {
			t.Fatalf("frame %d: fast viewer took %d (%v), want 1", i+1, len(got), err)
		}
	}
	select {
	case <-slow.done:
	default:
		t.Fatal("slow viewer's done channel not closed after eviction")
	}
	if _, err := takeUpTo(b, slow, pushMsgs); err != errLapped {
		t.Fatalf("slow viewer's take after eviction = %v, want errLapped", err)
	}
	if cur := b.snapshot(); len(cur) != 1 || cur[0] != fast {
		t.Fatalf("viewer set after eviction = %d viewers, want just the fast one", len(cur))
	}
	if got := s.Stats().SlowEvictions; got != 1 {
		t.Fatalf("SlowEvictions = %d, want 1", got)
	}
	// Eviction is idempotent: a second remove must not re-close done.
	b.remove(slow)
}

// meterTenant gives every broadcast of cfg one delivery meter and returns it.
func meterTenant(cfg *ServerConfig) *metrics.Usage {
	reg := metrics.NewRegistry()
	sink := &metrics.Usage{Frames: reg.Counter("f"), Chunks: reg.Counter("c"), Bytes: reg.Counter("b")}
	cfg.Usage = func(string) *metrics.Usage { return sink }
	return sink
}

// TestAcceptFrameAllocBudget pins the per-frame fan-out allocation budget.
// The message arrives pre-framed and the tap is handed a view of it, so
// relaying it to N viewers must not allocate at all — with or without a tap,
// and with tenant metering on, whose handles are resolved before the first
// frame.
func TestAcceptFrameAllocBudget(t *testing.T) {
	const viewers = 10
	const runs = 100
	enc := encodeFrameMsg(t, 1, 1024)
	var kept []media.Frame
	// The tap keeps every frame, as the origin's chunker does.
	tap := func(_ string, f media.Frame, _ time.Time) { kept = append(kept, f) }
	for _, tc := range []struct {
		name    string
		tap     FrameTap
		metered bool
	}{
		{"no_tap", nil, false},
		{"tap", tap, false},
		{"tap_metered", tap, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ServerConfig{Tap: tc.tap}
			var sink *metrics.Usage
			if tc.metered {
				sink = meterTenant(&cfg)
			}
			s, b := fanoutFixture(cfg, viewers)
			kept = make([]media.Frame, 0, 128)
			allocs := testing.AllocsPerRun(runs, func() {
				if !s.acceptFrame(b, enc) {
					t.Fatal("frame rejected")
				}
				drain(t, b)
			})
			if tc.tap != nil && len(kept) == 0 {
				t.Fatal("tap never fired")
			}
			if sink != nil && sink.Frames.Value() < runs*viewers {
				t.Fatalf("usage sink saw %d delivered frames, want >= %d", sink.Frames.Value(), runs*viewers)
			}
			if allocs > 0 {
				t.Fatalf("fan-out allocs/frame = %.1f, want 0", allocs)
			}
		})
	}
}

// fanoutFixture is a server and a broadcast with n joined viewers that only
// take from the ring, for driving acceptFrame without sockets.
func fanoutFixture(cfg ServerConfig, n int) (*Server, *broadcast) {
	s := NewServer(cfg)
	b := s.newBroadcast("fixture")
	for i := 0; i < n; i++ {
		b.join(0, s.cfg.ViewerQueue)
	}
	return s, b
}

// snapshot returns b's current viewer set.
func (b *broadcast) snapshot() []*viewerConn {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.viewers
}

// takeUpTo has v take at most limit messages from b's ring, as a push with
// an iovec array that long would, and returns them.
func takeUpTo(b *broadcast, v *viewerConn, limit int) ([][]byte, error) {
	iov := make([][]byte, limit)
	n, _, err := b.take(v, iov)
	return iov[:n], err
}

// drain has every viewer of b take everything the ring holds for it, as its
// push loop would before writing, without allocating.
func drain(t testing.TB, b *broadcast) {
	t.Helper()
	var iov [pushMsgs][]byte
	for _, v := range b.snapshot() {
		for more := true; more; {
			var err error
			if _, more, err = b.take(v, iov[:]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// relayed returns the one message v has waiting in the ring.
func relayed(t testing.TB, b *broadcast, v *viewerConn) wire.Encoded {
	t.Helper()
	got, err := takeUpTo(b, v, pushMsgs)
	if len(got) != 1 || err != nil {
		t.Fatalf("viewer took %d messages (%v), want 1", len(got), err)
	}
	return got[0]
}

// TestArrivalAllocBudget pins what the broadcaster loop pays for a socket
// read — wire.Reader plus acceptFrame with a retaining tap, the pair
// handleBroadcaster runs — at exactly one relay buffer per read, however many
// frames the read carried, whether or not the broadcast's tenant is metered.
func TestArrivalAllocBudget(t *testing.T) {
	const runs = 200
	const viewers = 10
	// Each refill of a buffer the pooled readers' size reads exactly one
	// batch of k frames.
	var batch []byte
	k := readSize / len(encodeFrameMsg(t, 0, 512))
	for i := 0; i < k; i++ {
		batch = append(batch, encodeFrameMsg(t, uint64(i), 512)...)
	}
	for name, metered := range map[string]bool{"unmetered": false, "metered": true} {
		t.Run(name, func(t *testing.T) {
			kept := make([]media.Frame, 0, (runs+1)*k)
			cfg := ServerConfig{Tap: func(_ string, f media.Frame, _ time.Time) { kept = append(kept, f) }}
			var sink *metrics.Usage
			if metered {
				sink = meterTenant(&cfg)
			}
			s, b := fanoutFixture(cfg, viewers)
			rd := wire.NewReader(bufio.NewReaderSize(testutil.Replay(batch), readSize))
			allocs := testing.AllocsPerRun(runs, func() {
				for i := 0; i < k; i++ {
					enc, err := rd.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !s.acceptFrame(b, enc) {
						t.Fatal("frame rejected")
					}
					drain(t, b)
				}
			})
			if allocs != 1 {
				t.Fatalf("allocs per %d-frame read = %.1f, want 1 (the relay buffer)", k, allocs)
			}
			if len(kept) != (runs+1)*k {
				t.Fatalf("tap saw %d frames, want %d", len(kept), (runs+1)*k)
			}
			if sink != nil && sink.Frames.Value() != int64((runs+1)*k*viewers) {
				t.Fatalf("usage sink saw %d delivered frames, want %d", sink.Frames.Value(), (runs+1)*k*viewers)
			}
		})
	}
}

// sameBytes reports whether view is exactly the region of backing that starts
// at off: same first byte in memory, not merely equal contents.
func sameBytes(view, backing []byte, off int) bool {
	return len(view) > 0 && off+len(view) <= len(backing) && &view[0] == &backing[off]
}

// TestTapFrameAliasesRelayBuffer: the frame a tap receives is a view of the
// message every viewer is sent — payload, and for a signed stream the
// signature — and neither view can be appended into the bytes behind it.
func TestTapFrameAliasesRelayBuffer(t *testing.T) {
	pubKey, privKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	frame := &media.Frame{Seq: 7, CapturedAt: time.Unix(3, 4), Keyframe: true, Payload: []byte("relay-me-once")}
	frameBytes := media.MarshalFrame(nil, frame)
	signedBody, err := wire.MarshalSignedFrame(frameBytes, ed25519.Sign(privKey, frameBytes))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		msg    wire.Message
		pubKey ed25519.PublicKey
		// payloadAt and sigAt are the offsets of the views inside the
		// framed message (sigAt < 0: unsigned).
		payloadAt, sigAt int
	}{
		{"plain", wire.Message{Type: wire.MsgFrame, Body: frameBytes}, nil, len(frameBytes) - len(frame.Payload), -1},
		{"signed", wire.Message{Type: wire.MsgSignedFrame, Body: signedBody}, pubKey, 4 + len(frameBytes) - len(frame.Payload), 4 + len(frameBytes)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got media.Frame
			s, b := fanoutFixture(ServerConfig{Tap: func(_ string, f media.Frame, _ time.Time) { got = f }}, 1)
			b.pubKey = tc.pubKey
			enc, err := wire.EncodeMessage(tc.msg)
			if err != nil {
				t.Fatal(err)
			}
			sent := append([]byte(nil), enc...)
			if !s.acceptFrame(b, enc) {
				t.Fatal("frame rejected")
			}
			if msg := relayed(t, b, b.snapshot()[0]); &msg[0] != &enc[0] {
				t.Fatal("viewer was queued a copy, not the arrival's buffer")
			}
			if got.Seq != frame.Seq || !got.CapturedAt.Equal(frame.CapturedAt) || !got.Keyframe || !bytes.Equal(got.Payload, frame.Payload) {
				t.Fatalf("tapped frame = %+v", got)
			}
			body := enc.Body()
			if !sameBytes(got.Payload, body, tc.payloadAt) {
				t.Fatal("tapped payload does not alias the relay buffer")
			}
			if tc.sigAt < 0 {
				if got.Sig != nil {
					t.Fatalf("unsigned frame tapped with a %d-byte signature", len(got.Sig))
				}
			} else if !sameBytes(got.Sig, body, tc.sigAt) || len(got.Sig) != wire.SignatureSize {
				t.Fatal("tapped signature does not alias the message's signature bytes")
			}
			// A consumer appending to a view must get a copy, never a write
			// into the shared buffer.
			_ = append(got.Payload, 0xEE)
			_ = append(got.Sig, 0xEE)
			if !bytes.Equal(enc, sent) {
				t.Fatal("appending to a tapped view wrote into the relay buffer")
			}
		})
	}
	// Two frames read in one batch share its buffer back to back; each tap
	// frame views its own message, and no append on the first — the relayed
	// message or the tapped payload that ends it — can reach the second.
	t.Run("batch", func(t *testing.T) {
		var got []media.Frame
		s, b := fanoutFixture(ServerConfig{Tap: func(_ string, f media.Frame, _ time.Time) { got = append(got, f) }}, 1)
		stream := append(encodeFrameMsg(t, 1, 32), encodeFrameMsg(t, 2, 32)...)
		rd := wire.NewReader(bufio.NewReader(bytes.NewReader(stream)))
		var encs [2]wire.Encoded
		for i := range encs {
			enc, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !s.acceptFrame(b, enc) {
				t.Fatal("frame rejected")
			}
			if msg := relayed(t, b, b.snapshot()[0]); &msg[0] != &enc[0] {
				t.Fatal("viewer was queued a copy, not the batch")
			}
			encs[i] = enc
		}
		if !testutil.Adjacent(encs[0], encs[1]) {
			t.Fatal("the two frames were not carved back to back from one batch")
		}
		for i, f := range got {
			body := encs[i].Body()
			if f.Seq != uint64(i+1) || !sameBytes(f.Payload, body, len(body)-len(f.Payload)) {
				t.Fatalf("tapped frame %d (seq %d) does not view its own message in the batch", i, f.Seq)
			}
		}
		_ = append(encs[0], 0xEE)
		_ = append(got[0].Payload, 0xEE)
		if !bytes.Equal(append(append([]byte(nil), encs[0]...), encs[1]...), stream) {
			t.Fatal("appending to the first frame's views wrote into the second")
		}
	})
}
