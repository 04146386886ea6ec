package cdn

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/resilience"
)

// TestEdgePullsOverHTTP wires an edge to its origin across a real HTTP hop
// (the deployment shape of the Wowza→Fastly path) and verifies the full
// pull-through behaviour survives the network boundary.
func TestEdgePullsOverHTTP(t *testing.T) {
	origin := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	originSrv := httptest.NewServer(hls.Handler("/hls", origin))
	defer originSrv.Close()

	remote := hls.RemoteStore{Client: &hls.Client{BaseURL: originSrv.URL + "/hls"}}
	edge := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: remote}, nil },
	})
	origin.RegisterEdge(edge)

	feedFrames(origin, "b1", 60) // two 1s chunks
	ctx := context.Background()
	cl, err := edge.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 2 {
		t.Fatalf("edge chunks over HTTP = %d, want 2", len(cl.Chunks))
	}
	c, err := edge.Chunk(ctx, "b1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seq != 1 || len(c.Frames) != 25 {
		t.Fatalf("chunk = seq %d, %d frames", c.Seq, len(c.Frames))
	}
	// Chunks were copied during the list pull: the fetch above was a hit.
	if edge.m.chunkHits.Value() != 1 {
		t.Fatalf("ChunkHits = %d", edge.m.chunkHits.Value())
	}

	// A second edge, served BY the first edge over HTTP: the gateway
	// relay across a real network boundary.
	gwSrv := httptest.NewServer(hls.Handler("/hls", edge))
	defer gwSrv.Close()
	far := NewEdge(EdgeConfig{
		Site: site("e2", "Z"),
		Resolve: func(string) (Upstream, error) {
			return Upstream{Store: hls.RemoteStore{Client: &hls.Client{BaseURL: gwSrv.URL + "/hls"}}}, nil
		},
	})
	origin.RegisterEdge(far)
	cl2, err := far.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl2.Chunks) != 2 {
		t.Fatalf("relayed chunks = %d", len(cl2.Chunks))
	}
	if _, err := far.Chunk(ctx, "b1", 0); err != nil {
		t.Fatal(err)
	}
}

// An edge whose upstream sheds with the longest Retry-After there is passes
// that back-off on to its own viewers as the longest, not as "retry now".
func TestEdgeRelaysSaturatedRetryAfter(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(hls.RetryAfterHeader, "9300000000")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer upstream.Close()
	noWait := func(context.Context, time.Duration) error { return nil }
	remote := hls.RemoteStore{Client: &hls.Client{
		BaseURL: upstream.URL + "/hls",
		Retry:   resilience.Policy{MaxAttempts: 1, Sleep: noWait},
	}}
	edge := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: remote}, nil },
		Retry:   resilience.Policy{MaxAttempts: 1, Sleep: noWait},
	})
	h := hls.Handler("/hls", edge)
	want := strconv.FormatInt(math.MaxInt64/int64(time.Second)+1, 10)
	for _, path := range []string{"/hls/b1/chunklist.m3u8", "/hls/b1/chunk/0"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusServiceUnavailable || w.Header().Get(hls.RetryAfterHeader) != want {
			t.Errorf("%s: %d with Retry-After %q, want 503 with %s", path, w.Code, w.Header().Get(hls.RetryAfterHeader), want)
		}
	}
}
