package security

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cdn"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

// buildSignedEdge runs an origin fed over RTMP with signed frames and an
// edge serving HLS, returning the edge HTTP server URL and the keys.
func buildSignedEdge(t *testing.T, signed bool) (edgeURL string, pub []byte, done func()) {
	t.Helper()
	var kPub []byte
	var kPriv []byte
	if signed {
		p, s, err := GenerateKeyPair()
		if err != nil {
			t.Fatal(err)
		}
		kPub, kPriv = p, s
	}
	var auth rtmp.Auth = rtmp.AllowAll
	if signed {
		auth = keyAuth{pub: kPub}
	}
	origin := cdn.NewOrigin(cdn.OriginConfig{
		Site:          geo.WowzaSites()[0],
		ChunkDuration: time.Second,
		RTMP:          rtmp.ServerConfig{Auth: auth},
	})
	edge := cdn.NewEdge(cdn.EdgeConfig{
		Site:    geo.FastlySites()[0],
		Resolve: func(string) (cdn.Upstream, error) { return cdn.Upstream{Store: origin}, nil },
	})
	origin.RegisterEdge(edge)
	edgeSrv := httptest.NewServer(hls.Handler("/hls", edge))

	ctx, cancel := context.WithCancel(context.Background())
	ln, err := origin.RTMP().Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	pubr, err := rtmp.Publish(ctx, ln.Addr().String(), "b1", "tok", kPriv)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(3))
	base := time.Now()
	for i := 0; i < 50; i++ { // two 1s chunks
		f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
		if err := pubr.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	pubr.End()

	// Wait until the origin assembled both chunks.
	deadline := time.Now().Add(2 * time.Second)
	for {
		cl, err := origin.ChunkList(ctx, "b1")
		if err == nil && len(cl.Chunks) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("origin never assembled chunks")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return edgeSrv.URL + "/hls", kPub, func() {
		cancel()
		origin.RTMP().Close()
		edgeSrv.Close()
	}
}

func TestHLSChunkTampering(t *testing.T) {
	edgeURL, _, done := buildSignedEdge(t, false)
	defer done()

	// The attacker proxies the viewer's HTTP traffic to the edge.
	mitm := &HTTPInterceptor{
		Target: edgeURL[:len(edgeURL)-len("/hls")],
		Tamper: BlackFrames(),
	}
	mitmSrv := httptest.NewServer(mitm)
	defer mitmSrv.Close()

	client := &hls.Client{BaseURL: mitmSrv.URL + "/hls"}
	ctx := context.Background()
	cl, err := client.FetchChunkList(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 2 {
		t.Fatalf("chunks = %d", len(cl.Chunks))
	}
	chunk, err := client.FetchChunk(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range chunk.Frames {
		for _, b := range f.Payload {
			if b != 0 {
				t.Fatal("HLS chunk not blacked out through MITM")
			}
		}
	}
	if mitm.Stats().ChunksTampered.Load() == 0 {
		t.Fatal("interceptor recorded no tampering")
	}
}

func TestHLSSignedChunkDetectsTampering(t *testing.T) {
	edgeURL, pub, done := buildSignedEdge(t, true)
	defer done()

	// Clean path first: signed chunks verify end-to-end.
	clean := &hls.Client{BaseURL: edgeURL}
	ctx := context.Background()
	chunk, err := clean.FetchChunk(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	verified, tampered, unsigned := VerifyChunk(pub, chunk)
	if tampered != 0 || unsigned != 0 || verified != len(chunk.Frames) {
		t.Fatalf("clean chunk: verified=%d tampered=%d unsigned=%d of %d",
			verified, tampered, unsigned, len(chunk.Frames))
	}

	// Through the MITM: payload rewritten, signatures now stale.
	mitm := &HTTPInterceptor{
		Target: edgeURL[:len(edgeURL)-len("/hls")],
		Tamper: BlackFrames(),
	}
	mitmSrv := httptest.NewServer(mitm)
	defer mitmSrv.Close()
	victim := &hls.Client{BaseURL: mitmSrv.URL + "/hls"}
	chunk, err = victim.FetchChunk(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	verified, tampered, _ = VerifyChunk(pub, chunk)
	if verified != 0 || tampered != len(chunk.Frames) {
		t.Fatalf("tampered chunk: verified=%d tampered=%d of %d",
			verified, tampered, len(chunk.Frames))
	}
	// The victim's chunk is zero-copy over the interceptor's response, and
	// that response was re-marshalled from the edited frames — not the
	// sealed bytes the interceptor received.
	if !bytes.Equal(chunk.Wire(), media.MarshalChunk(chunk)) {
		t.Fatal("tampered chunk's sealed bytes disagree with its frames")
	}

	// The interceptor edited its own decoded copy: the sealed buffer the
	// edge shares with every other viewer is untouched and still verifies.
	after, err := clean.FetchChunk(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if verified, tampered, _ := VerifyChunk(pub, after); tampered != 0 || verified != len(after.Frames) {
		t.Fatalf("clean chunk after the attack: verified=%d tampered=%d", verified, tampered)
	}
	if bytes.Equal(after.Wire(), chunk.Wire()) {
		t.Fatal("the attack changed nothing on the wire")
	}
}

func TestHTTPInterceptorPassesNonChunkTraffic(t *testing.T) {
	edgeURL, _, done := buildSignedEdge(t, false)
	defer done()
	mitm := &HTTPInterceptor{
		Target: edgeURL[:len(edgeURL)-len("/hls")],
		Tamper: BlackFrames(),
	}
	mitmSrv := httptest.NewServer(mitm)
	defer mitmSrv.Close()
	client := &hls.Client{BaseURL: mitmSrv.URL + "/hls"}
	// Chunklist requests are relayed untouched and still parse.
	cl, err := client.FetchChunkList(context.Background(), "b1", 0)
	if err != nil || len(cl.Chunks) != 2 {
		t.Fatalf("chunklist through MITM: %v", err)
	}
}
