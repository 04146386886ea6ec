package cdn

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/rng"
	"repro/internal/rtmp"
	"repro/internal/testutil"
)

func site(id, city string) geo.Datacenter {
	return geo.Datacenter{ID: id, Location: geo.Location{City: city, Lat: 1, Lon: 1}}
}

// feedFrames pushes n frames into an origin via its ingest tap path.
func feedFrames(o *Origin, id string, n int) {
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(7))
	base := time.Now()
	for i := 0; i < n; i++ {
		o.Ingest(id, enc.Next(base.Add(time.Duration(i)*media.FrameDuration)), base.Add(time.Duration(i)*media.FrameDuration))
	}
}

func TestOriginChunksFrames(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", 60) // 60 frames = 2.4 s → 2 complete 1 s chunks
	ctx := context.Background()
	cl, err := o.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(cl.Chunks))
	}
	c, err := o.Chunk(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Frames) != 25 {
		t.Fatalf("chunk frames = %d, want 25", len(c.Frames))
	}
	if _, ok := o.ChunkReadyAt("b1", 0); !ok {
		t.Fatal("missing chunk-ready timestamp")
	}
	if o.Live() != 1 {
		t.Fatalf("Live = %d", o.Live())
	}
}

func TestOriginEndFlushesPartialChunk(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", 30)
	o.endBroadcast("b1")
	cl, err := o.ChunkList(context.Background(), "b1")
	if err != nil {
		t.Fatal(err)
	}
	if !cl.Ended {
		t.Fatal("list not marked ended")
	}
	if len(cl.Chunks) != 2 { // one full (25) + one partial (5)
		t.Fatalf("chunks = %d, want 2", len(cl.Chunks))
	}
	if o.Live() != 0 {
		t.Fatalf("Live = %d after end", o.Live())
	}
}

func TestOriginUnknownBroadcast(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X")})
	if _, err := o.ChunkList(context.Background(), "nope"); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := o.Chunk(context.Background(), "nope", 0); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestOriginRemove: an ended broadcast stays queryable, list and chunks,
// until Remove forgets it; the origin keeps no clock of its own.
func TestOriginRemove(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", 30)
	o.endBroadcast("b1")
	ctx := context.Background()
	if cl, err := o.ChunkList(ctx, "b1"); err != nil || !cl.Ended {
		t.Fatalf("ended broadcast before Remove: list %+v, err %v", cl, err)
	}
	o.Remove("b1")
	if _, err := o.ChunkList(ctx, "b1"); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("removed broadcast's list: err %v", err)
	}
	if _, err := o.Chunk(ctx, "b1", 0); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("removed broadcast's chunk: err %v", err)
	}
}

func TestEdgePullOnFirstPoll(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: o}, nil },
	})
	o.RegisterEdge(e)
	feedFrames(o, "b1", 30)

	ctx := context.Background()
	cl, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 1 {
		t.Fatalf("edge list chunks = %d", len(cl.Chunks))
	}
	if e.m.listPulls.Value() != 1 {
		t.Fatalf("ListPulls = %d", e.m.listPulls.Value())
	}
	// The pull copied the chunk eagerly; the chunk fetch must be a hit.
	if _, err := e.Chunk(ctx, "b1", 0); err != nil {
		t.Fatal(err)
	}
	if e.m.chunkHits.Value() != 1 || e.m.chunkPulls.Value() != 1 {
		t.Fatalf("hits=%d pulls=%d", e.m.chunkHits.Value(), e.m.chunkPulls.Value())
	}
	if _, ok := e.ChunkArrivedAt("b1", 0); !ok {
		t.Fatal("missing edge arrival timestamp")
	}
}

func TestEdgeServesCachedUntilInvalidated(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: o}, nil },
	})
	o.RegisterEdge(e)
	feedFrames(o, "b1", 30) // chunk 0, invalidation broadcast

	ctx := context.Background()
	if _, err := e.ChunkList(ctx, "b1"); err != nil {
		t.Fatal(err)
	}
	// Repeated polls before new content: all hits, no new pulls.
	for i := 0; i < 5; i++ {
		if _, err := e.ChunkList(ctx, "b1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.m.listPulls.Value(); got != 1 {
		t.Fatalf("ListPulls = %d, want 1", got)
	}
	if got := e.m.listHits.Value(); got != 5 {
		t.Fatalf("ListHits = %d, want 5", got)
	}

	// New chunk at origin → invalidation → next poll pulls.
	feedFrames(o, "b1", 30)
	cl, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.m.listPulls.Value(); got != 2 {
		t.Fatalf("ListPulls after invalidate = %d, want 2", got)
	}
	if len(cl.Chunks) != 2 {
		t.Fatalf("chunks after refresh = %d", len(cl.Chunks))
	}
}

func TestEdgeUnknownBroadcast(t *testing.T) {
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{}, hls.ErrNotFound },
	})
	if _, err := e.ChunkList(context.Background(), "nope"); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestTopologyGatewayRelay(t *testing.T) {
	topo := Build(TopologyConfig{ChunkDuration: time.Second})
	if len(topo.Origins) != 8 || len(topo.Edges) != 23 {
		t.Fatalf("topology = %d origins, %d edges", len(topo.Origins), len(topo.Edges))
	}
	// Ashburn origin's gateway must be the Ashburn edge.
	var ashburn *Origin
	for _, o := range topo.Origins {
		if o.Site().ID == "wowza-ashburn" {
			ashburn = o
		}
	}
	gw := topo.GatewayFor(ashburn)
	if gw == nil || gw.Site().ID != "fastly-ashburn" {
		t.Fatalf("gateway for ashburn = %+v", gw)
	}
	// São Paulo origin has no gateway (no Fastly site in South America).
	for _, o := range topo.Origins {
		if o.Site().ID == "wowza-saopaulo" {
			if g := topo.GatewayFor(o); g != nil {
				t.Fatalf("São Paulo gateway = %s, want none", g.Site().ID)
			}
		}
	}

	// Wire a broadcast on the Ashburn origin and read it from Tokyo:
	// the pull must route via the gateway, populating its cache too.
	topo.AssignBroadcast("b1", ashburn, nil)
	feedFrames(ashburn, "b1", 30)
	var tokyoEdge *Edge
	for _, e := range topo.Edges {
		if e.Site().ID == "fastly-tokyo" {
			tokyoEdge = e
		}
	}
	ctx := context.Background()
	cl, err := tokyoEdge.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 1 {
		t.Fatalf("tokyo edge chunks = %d", len(cl.Chunks))
	}
	if gw.m.listPulls.Value() == 0 {
		t.Fatal("gateway was not used for the relay")
	}
}

func TestTopologyNearestSelection(t *testing.T) {
	topo := Build(TopologyConfig{})
	tokyo := geo.Location{City: "Tokyo", Lat: 35.68, Lon: 139.69}
	if o := topo.NearestOrigin(tokyo); o.Site().ID != "wowza-tokyo" {
		t.Fatalf("NearestOrigin(Tokyo) = %s", o.Site().ID)
	}
	if e := topo.NearestEdge(tokyo); e.Site().ID != "fastly-tokyo" {
		t.Fatalf("NearestEdge(Tokyo) = %s", e.Site().ID)
	}
}

func TestOriginEndToEndThroughRTMP(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Full ingest path: a real RTMP publisher feeds the origin, the edge
	// serves the resulting chunks.
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := o.RTMP().Listen(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer o.RTMP().Close()

	pub, err := rtmp.Publish(ctx, ln.Addr().String(), "b1", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(12))
	base := time.Now()
	for i := 0; i < 30; i++ {
		f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
		if err := pub.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	pub.End()

	deadline := time.Now().Add(2 * time.Second)
	for {
		cl, err := o.ChunkList(ctx, "b1")
		if err == nil && cl.Ended && len(cl.Chunks) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("origin never assembled chunks: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
