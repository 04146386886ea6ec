package cdn

import (
	"context"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/metrics"
)

// meteredEdge is an origin, a flaky view of it, and an edge whose upstream
// carries one delivery meter, as a tenanted broadcast's assignment does.
func meteredEdge() (*Origin, *flakyStore, *Edge, *metrics.Usage) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	reg := metrics.NewRegistry()
	u := &metrics.Usage{Frames: reg.Counter("f"), Chunks: reg.Counter("c"), Bytes: reg.Counter("b")}
	f := &flakyStore{inner: o}
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: f, Usage: u}, nil },
		Retry:   fastEdgeRetry(),
	})
	o.RegisterEdge(e)
	return o, f, e, u
}

// wantMetered checks the meter against the chunks served so far.
func wantMetered(t *testing.T, u *metrics.Usage, served ...*media.Chunk) {
	t.Helper()
	var bytes int64
	for _, c := range served {
		bytes += int64(c.Size())
	}
	if f, k, b := u.Frames.Value(), u.Chunks.Value(), u.Bytes.Value(); f != 0 || k != int64(len(served)) || b != bytes {
		t.Fatalf("meter = (frames %d, chunks %d, bytes %d), want (0, %d, %d)", f, k, b, len(served), bytes)
	}
}

// Each way an edge can serve a chunk meters it exactly once, with the chunk's
// size in bytes; copying a chunk in and answering a list meter nothing.
func TestEdgeMetersEachServedChunkOnce(t *testing.T) {
	ctx := context.Background()
	serve := func(t *testing.T, e *Edge, seq uint64) *media.Chunk {
		t.Helper()
		c, err := e.Chunk(ctx, "b1", seq)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("copied_by_list_pull_then_hit", func(t *testing.T) {
		o, _, e, u := meteredEdge()
		feedFrames(o, "b1", 30)
		if _, err := e.ChunkList(ctx, "b1"); err != nil {
			t.Fatal(err)
		}
		wantMetered(t, u)
		c := serve(t, e, 0)
		wantMetered(t, u, c)
		if hits, pulls := e.m.chunkHits.Value(), e.m.chunkPulls.Value(); hits != 1 || pulls != 1 {
			t.Fatalf("chunk hits %d, pulls %d; want the copy and then one hit", hits, pulls)
		}
	})

	t.Run("pull_chunk_miss", func(t *testing.T) {
		o, _, e, u := meteredEdge()
		feedFrames(o, "b1", 30)
		c := serve(t, e, 0)
		wantMetered(t, u, c)
		if hits, pulls := e.m.chunkHits.Value(), e.m.chunkPulls.Value(); hits != 0 || pulls != 1 {
			t.Fatalf("chunk hits %d, pulls %d; want one pull-through miss", hits, pulls)
		}
		wantMetered(t, u, c, serve(t, e, 0))
	})

	t.Run("stale_list_serve", func(t *testing.T) {
		o, f, e, u := meteredEdge()
		feedFrames(o, "b1", 30)
		first, err := e.ChunkList(ctx, "b1")
		if err != nil {
			t.Fatal(err)
		}
		feedFrames(o, "b1", 30)
		e.invalidate("b1", first.Version+1)
		f.failLists.Store(true)
		stale, err := e.ChunkList(ctx, "b1")
		if err != nil || stale != first || e.m.staleServes.Value() != 1 {
			t.Fatalf("poll with the upstream down = %v, %v; want the stale list", stale, err)
		}
		wantMetered(t, u)
		wantMetered(t, u, serve(t, e, stale.Chunks[0].Seq))
	})
}

// A metered chunk hit allocates nothing: the meter is a pointer the entry
// already holds, and metering is atomic adds.
func TestEdgeMeteredHitAllocBudget(t *testing.T) {
	ctx := context.Background()
	o, _, e, u := meteredEdge()
	feedFrames(o, "b1", 30)
	if _, err := e.ChunkList(ctx, "b1"); err != nil {
		t.Fatal(err)
	}
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, func() { e.Chunk(ctx, "b1", 0) }); allocs != 0 {
		t.Fatalf("metered chunk hit allocates %v times", allocs)
	}
	if n := u.Chunks.Value(); n != runs+1 {
		t.Fatalf("meter counted %d chunks for %d hits", n, runs+1)
	}
}
