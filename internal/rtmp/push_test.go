package rtmp

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// dialRawViewer opens a viewer session on a bare connection — no client
// library between the test and the bytes the server writes.
func dialRawViewer(t *testing.T, addr, broadcastID string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hs := wire.Handshake{Role: wire.RoleViewer, BroadcastID: broadcastID}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHandshake, Body: wire.MarshalHandshake(hs)}); err != nil {
		t.Fatal(err)
	}
	reply, err := wire.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.UnmarshalAck(reply.Body); err != nil || ack.Status != wire.StatusOK {
		t.Fatalf("viewer handshake: %+v (%v)", ack, err)
	}
	return conn
}

// TestPushBatchLeavesInOneWrite: a viewer's backlog leaves in batches bounded
// by bytes, each one vectored write under one deadline — on TCP not a single
// per-message Write — so B bytes of 1 KiB messages leave in ⌈B / pushBytes⌉
// writes, and messages too small for the byte bound to cut in batches of
// pushMsgs. The end-of-broadcast flush puts MsgEnd in its last batch.
func TestPushBatchLeavesInOneWrite(t *testing.T) {
	const kib = 1 << 10
	backlog := 3*pushBytes + pushBytes/2
	overhead := len(encodeFrameMsg(t, 0, 0))
	for _, tc := range []struct {
		name        string
		size, count int // message size in bytes, messages in the backlog
		writes      int
	}{
		{"bytes", kib, backlog / kib, (backlog + pushBytes - 1) / pushBytes},
		{"messages", 100, pushMsgs + 8, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := testutil.TCPPair(t)
			conn := &testutil.CountingConn{TCPConn: server}
			s, b := fanoutFixture(ServerConfig{ViewerQueue: 1024}, 1)
			v := b.snapshot()[0]
			var want []byte
			for i := 0; i < tc.count; i++ {
				e := encodeFrameMsg(t, uint64(i), tc.size-overhead)
				b.relay(e)
				want = append(want, e...)
			}
			want = append(want, encodedEnd...)
			got := make([]byte, len(want))
			read := make(chan error, 1)
			go func() {
				client.SetReadDeadline(time.Now().Add(5 * time.Second))
				_, err := io.ReadFull(client, got)
				read <- err
			}()

			writes, taken := 0, 0
			for more := true; more; {
				var n int
				var err error
				if n, more, err = s.push(conn, b, v, true); err != nil {
					t.Fatal(err)
				}
				writes++
				taken += n
				if w, d := conn.Writes.Load(), conn.Deadlines.Load(); w != 0 || d != int64(writes) {
					t.Fatalf("after batch %d: %d per-message Writes, %d deadlines; want 0, %d", writes, w, d, writes)
				}
			}
			if writes != tc.writes || taken != tc.count {
				t.Fatalf("%d messages of %d bytes left in %d writes, taking %d; want %d writes", tc.count, tc.size, writes, taken, tc.writes)
			}
			if err := <-read; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the viewer's bytes diverged from the relayed messages")
			}
			if st := s.Stats(); st.FramesOut != int64(tc.count) {
				t.Fatalf("FramesOut = %d, want %d (MsgEnd is not a frame)", st.FramesOut, tc.count)
			}
			pb := pushBatches.Get().(*pushBatch)
			defer pushBatches.Put(pb)
			for i, e := range pb.iov {
				if e != nil {
					t.Fatalf("a pooled batch's iov[%d] still pins a %d-byte message after its write", i, len(e))
				}
			}
		})
	}
}

// TestPushBatchAllocFree pins the push side of the relay budget: once a
// connection has written its first batch (which grows the kernel iovec slice
// the runtime keeps per socket) and the batch pool is warm, taking a batch
// from the ring and writing it allocates nothing. Exact without the race
// detector (`make allocs`); under it sync.Pool drops a share of its puts, so
// some pushes make a fresh batch, well under one a push.
func TestPushBatchAllocFree(t *testing.T) {
	const runs, q = 100, 8
	client, server := testutil.TCPPair(t)
	go io.Copy(io.Discard, client)
	s, b := fanoutFixture(ServerConfig{}, 1)
	v := b.snapshot()[0]
	enc := encodeFrameMsg(t, 1, 512)
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < q; i++ {
			b.relay(enc)
		}
		if n, more, err := s.push(server, b, v, false); n != q || more || err != nil {
			t.Fatalf("push took %d (more %v, %v), want %d", n, more, err, q)
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs per %d-message batch = %.1f, want 0", q, allocs)
	}
	if got := s.Stats().FramesOut; got != (runs+1)*q {
		t.Fatalf("FramesOut = %d, want %d", got, (runs+1)*q)
	}
}

// TestBatchedRelayDeliversEveryFrame runs batches across every boundary the
// relay has — read batches, bufio-outgrowing frames, push batches, the end
// flush — with a slow viewer that makes its queue, and so its batches, deep:
// every viewer must get every frame exactly once, in order and byte for byte
// what the publisher sent, then MsgEnd, then nothing.
func TestBatchedRelayDeliversEveryFrame(t *testing.T) {
	const frames, viewers = 5000, 8
	for _, tc := range []struct {
		name   string
		signed bool
	}{{"unsigned", false}, {"signed", true}} {
		signed := tc.signed
		t.Run(tc.name, func(t *testing.T) {
			var pubKey ed25519.PublicKey
			var privKey ed25519.PrivateKey
			if signed {
				var err error
				if pubKey, privKey, err = ed25519.GenerateKey(nil); err != nil {
					t.Fatal(err)
				}
			}
			s, addr := startServer(t, ServerConfig{Auth: keyAuth{pub: pubKey}, ViewerQueue: 8192})
			pub, err := Publish(context.Background(), addr, "batch", "tok", privKey)
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()

			// What the publisher puts on the wire, frame by frame: random
			// sizes, one in fifty within 4 KB either side of the server's
			// read buffer and of a push batch's byte bound.
			r := rand.New(rand.NewSource(21))
			sent := make([]media.Frame, frames)
			want := make([]wire.Message, frames)
			for i := range sent {
				size := r.Intn(1024)
				if r.Intn(50) == 0 {
					size = readSize - 4096 + r.Intn(8192)
				}
				payload := make([]byte, size)
				r.Read(payload)
				sent[i] = media.Frame{Seq: uint64(i), CapturedAt: time.Unix(0, int64(i)), Keyframe: i%75 == 0, Payload: payload}
				want[i] = wire.Message{Type: wire.MsgFrame, Body: media.MarshalFrame(nil, &sent[i])}
				if signed {
					body, err := wire.MarshalSignedFrame(want[i].Body, ed25519.Sign(privKey, want[i].Body))
					if err != nil {
						t.Fatal(err)
					}
					want[i] = wire.Message{Type: wire.MsgSignedFrame, Body: body}
				}
			}

			var wg sync.WaitGroup
			errs := make(chan error, viewers)
			for i := 0; i < viewers; i++ {
				conn := dialRawViewer(t, addr, "batch")
				slow := i == 0
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs <- readAll(conn, want, slow)
				}()
			}
			for i := range sent {
				if err := pub.Send(&sent[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := pub.End(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			if st := s.Stats(); st.SlowEvictions != 0 || st.FramesOut != frames*viewers {
				t.Fatalf("stats: %d evictions, %d frames out; want 0, %d", st.SlowEvictions, st.FramesOut, frames*viewers)
			}
		})
	}
}

// readAll reads one viewer session to its end and checks it is exactly want,
// then MsgEnd, then a closed connection. A slow reader pauses every 100
// messages so its queue builds up behind it.
func readAll(conn net.Conn, want []wire.Message, slow bool) error {
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	rd := wire.NewReader(bufio.NewReader(conn))
	for i := 0; ; i++ {
		if slow && i%100 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		m, err := rd.Next()
		switch {
		case err != nil:
			return fmt.Errorf("message %d: %w", i, err)
		case i < len(want) && (m.Type() != want[i].Type || !bytes.Equal(m.Body(), want[i].Body)):
			return fmt.Errorf("message %d: type %d, %d bytes; want frame %d as sent", i, m.Type(), len(m.Body()), i)
		case i == len(want) && m.Type() != wire.MsgEnd:
			return fmt.Errorf("message %d: type %d after the last frame, want MsgEnd", i, m.Type())
		case i == len(want):
			if _, err := rd.Next(); err != io.EOF {
				return fmt.Errorf("after MsgEnd: %v, want the server to close", err)
			}
			return nil
		}
	}
}

// TestViewerUploadPinsNoMemory: viewers are never asked to send anything, so
// the server discards what they send without buffering it. A declared
// near-MaxBody message that never arrives must cost the server no memory, and
// the viewer must keep receiving frames.
func TestViewerUploadPinsNoMemory(t *testing.T) {
	_, addr := startServer(t, ServerConfig{})
	pub, err := Publish(context.Background(), addr, "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.End()
	conn := dialRawViewer(t, addr, "b1")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write([]byte{byte(wire.MsgFrame), 0x01, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the server's reader has the header
	frames := testFrames(5)
	for i := range frames {
		if err := pub.Send(&frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := range frames {
		m, err := wire.ReadMessage(conn)
		if err != nil || m.Type != wire.MsgFrame {
			t.Fatalf("frame %d after the upload: type %d (%v)", i, m.Type, err)
		}
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a viewer's 5-byte header cost the server %d bytes, want < 1 MB", d)
	}
}

// TestViewerOneAllocPerBatch pins the viewer client's read budget: k frames
// that arrive in one write cost the receive loop one allocation — the batch
// they are read in — and nothing per frame. Signed frames are read the same
// way and still verify.
func TestViewerOneAllocPerBatch(t *testing.T) {
	const runs, k = 50, 8
	pubKey, privKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		signed bool
	}{{"unsigned", false}, {"signed", true}} {
		signed := tc.signed
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer server.Close()
			v := newViewer(client, ViewerOptions{Queue: k, PubKey: pubKey})
			go v.receiveLoop()
			defer v.Close()

			frames := make([]media.Frame, k)
			var batch []byte
			for i := range frames {
				frames[i] = media.Frame{Seq: uint64(i), CapturedAt: time.Unix(0, int64(i)), Payload: bytes.Repeat([]byte{byte(i)}, 100)}
				m := wire.Message{Type: wire.MsgFrame, Body: media.MarshalFrame(nil, &frames[i])}
				if signed {
					body, err := wire.MarshalSignedFrame(m.Body, ed25519.Sign(privKey, m.Body))
					if err != nil {
						t.Fatal(err)
					}
					m = wire.Message{Type: wire.MsgSignedFrame, Body: body}
				}
				batch, _ = wire.AppendMessage(batch, m)
			}
			allocs := testing.AllocsPerRun(runs, func() {
				// net.Pipe hands the whole write to the loop's first read.
				if _, err := server.Write(batch); err != nil {
					t.Fatal(err)
				}
				for i := range frames {
					rf := <-v.Frames()
					if rf.Frame.Seq != frames[i].Seq || !bytes.Equal(rf.Frame.Payload, frames[i].Payload) {
						t.Fatalf("frame %d: seq %d, %d payload bytes; want it as sent", i, rf.Frame.Seq, len(rf.Frame.Payload))
					}
					if rf.Signed != signed || rf.Verified != signed {
						t.Fatalf("frame %d: signed %v verified %v, want %v %v", i, rf.Signed, rf.Verified, signed, signed)
					}
				}
			})
			if allocs != 1 {
				t.Fatalf("a batch of %d frames allocates %.0f times in the viewer, want 1", k, allocs)
			}
		})
	}
}
