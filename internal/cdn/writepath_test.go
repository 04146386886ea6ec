package cdn

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

// signedAuth admits everyone and registers one broadcaster key.
type signedAuth struct{ pub ed25519.PublicKey }

func (signedAuth) Authorize(string, string, string) bool { return true }
func (a signedAuth) PublicKey(string) ed25519.PublicKey  { return a.pub }

// TestWritePathSharesOneBufferIntact follows a broadcast's bytes down the
// single-copy write path. Each arrival's relay buffer is shared, read-only, by
// the viewers' queues and by the chunk's frames (payload and, when signed,
// signature are views into it) until the seal swaps those for views of the
// wire form, which is also the journal record. Sixteen RTMP viewers drain the
// stream while its chunks are sealed and journaled — under -race any write to
// a shared buffer is a report — and then every copy is compared with what the
// publisher sent: each viewer's frames, the journal records, the chunks a
// fresh origin replays from that journal, and the HTTP bodies it serves.
// Unjournaled, the seal is the first HTTP serve: the live origin's bodies are
// compared, and its served chunks' frames must view their wire form.
func TestWritePathSharesOneBufferIntact(t *testing.T) {
	pubKey, privKey, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		signer    ed25519.PrivateKey
		auth      rtmp.Auth
		journaled bool
	}{
		{"plain", nil, nil, true},
		{"signed", privKey, signedAuth{pubKey}, true},
		{"unjournaled_plain", nil, nil, false},
		{"unjournaled_signed", privKey, signedAuth{pubKey}, false},
	} {
		t.Run(tc.name, func(t *testing.T) { testWritePath(t, tc.signer, tc.auth, pubKey, tc.journaled) })
	}
}

func testWritePath(t *testing.T, signer ed25519.PrivateKey, auth rtmp.Auth, pubKey ed25519.PublicKey, journaled bool) {
	const viewers, chunks = 16, 3
	const id = "b1"
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	backend := journal.NewMem()
	cfg := OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second, RTMP: rtmp.ServerConfig{Auth: auth}}
	if journaled {
		cfg.Journal = backend
	}
	o := NewOrigin(cfg)
	ln, err := o.RTMP().Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	pub, err := rtmp.Publish(ctx, addr, id, "", signer)
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	// What the publisher sends, and the chunks those frames must become.
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(11))
	base := time.Unix(1_700_000_000, 0)
	sent := make([]media.Frame, chunks*framesPerTestChunk)
	want := make([][]byte, chunks)
	for i := range sent {
		sent[i] = enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
	}
	for c := range want {
		frames := append([]media.Frame(nil), sent[c*framesPerTestChunk:(c+1)*framesPerTestChunk]...)
		if signer != nil {
			for i := range frames {
				frames[i].Sig = ed25519.Sign(signer, frames[i].UnsignedBytes())
			}
		}
		want[c] = media.MarshalChunk(&media.Chunk{Seq: uint64(c), Frames: frames})
	}

	got := make([][]rtmp.ReceivedFrame, viewers)
	var wg sync.WaitGroup
	for v := 0; v < viewers; v++ {
		opts := rtmp.ViewerOptions{Queue: len(sent)}
		if signer != nil {
			opts.PubKey = pubKey
		}
		sub, err := rtmp.Subscribe(ctx, addr, id, "", opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			defer sub.Close()
			for rf := range sub.Frames() {
				got[v] = append(got[v], rf)
			}
		}(v)
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

	for v, frames := range got {
		if len(frames) != len(sent) {
			t.Fatalf("viewer %d received %d/%d frames", v, len(frames), len(sent))
		}
		for i, rf := range frames {
			if !bytes.Equal(rf.Frame.UnsignedBytes(), sent[i].UnsignedBytes()) {
				t.Fatalf("viewer %d frame %d differs from what was published", v, i)
			}
			if signer != nil && !(rf.Signed && rf.Verified) {
				t.Fatalf("viewer %d frame %d: signed=%v verified=%v", v, i, rf.Signed, rf.Verified)
			}
		}
	}

	if !journaled {
		// Unjournaled, the live origin serves over HTTP, and that first serve
		// is the seal: the stored chunk's frames move off the relay batches
		// onto the bytes every viewer is sent.
		defer o.Close()
		serveMatches(t, ctx, o, id, want)
		for c := range want {
			stored, err := o.Chunk(ctx, id, uint64(c))
			if err != nil {
				t.Fatalf("live origin chunk %d: %v", c, err)
			}
			for i, f := range stored.Frames {
				if !inside(f.Payload, stored.Wire()) || (signer != nil && !inside(f.Sig, stored.Wire())) {
					t.Fatalf("served chunk %d frame %d still views a relay batch", c, i)
				}
			}
		}
		return
	}

	// The live origin's stored chunks, then — after Close drains the writer —
	// the journal's records.
	for c := range want {
		stored, err := o.Chunk(ctx, id, uint64(c))
		if err != nil {
			t.Fatalf("live origin chunk %d: %v", c, err)
		}
		if !bytes.Equal(stored.Wire(), want[c]) {
			t.Fatalf("live origin chunk %d differs from what was published", c)
		}
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := backend.Load()
	if err != nil {
		t.Fatal(err)
	}
	var seals [][]byte
	if st, err := journal.Replay(data, func(r journal.Record) error {
		if r.Type == journal.RecordSeal && r.BroadcastID == id {
			seals = append(seals, r.Payload)
		}
		return nil
	}); err != nil || st.TailCorrupt {
		t.Fatalf("journal replay: %+v (%v)", st, err)
	}
	if len(seals) != chunks {
		t.Fatalf("journal holds %d seal records, want %d", len(seals), chunks)
	}
	for c := range want {
		if !bytes.Equal(seals[c], want[c]) {
			t.Fatalf("journal record %d differs from what was published", c)
		}
	}

	// A fresh origin over the same journal serves the same bytes over HTTP.
	recovered := NewOrigin(cfg)
	defer recovered.Close()
	serveMatches(t, ctx, recovered, id, want)
}

// serveMatches checks that store serves each chunk of id over HTTP as want
// holds it, both as the body and as what the body decodes to.
func serveMatches(t *testing.T, ctx context.Context, store hls.Store, id string, want [][]byte) {
	t.Helper()
	srv := httptest.NewServer(hls.Handler("/hls", store))
	defer srv.Close()
	client := &hls.Client{BaseURL: srv.URL + "/hls"}
	for c := range want {
		chunk, err := client.FetchChunk(ctx, id, uint64(c))
		if err != nil {
			t.Fatalf("fetch chunk %d: %v", c, err)
		}
		if !bytes.Equal(chunk.Wire(), want[c]) || !bytes.Equal(media.MarshalChunk(chunk), want[c]) {
			t.Fatalf("served chunk %d decodes to different bytes", c)
		}
		resp, err := http.Get(srv.URL + "/hls/" + id + "/chunk/" + strconv.Itoa(c))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(body, want[c]) {
			t.Fatalf("HTTP body of chunk %d differs from what was published (%v)", c, err)
		}
	}
}
