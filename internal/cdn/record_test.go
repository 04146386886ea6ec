package cdn

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/resilience"
	"repro/internal/rng"
)

// edgeRecords lists the broadcast IDs an edge holds any state for.
func edgeRecords(e *Edge) []string {
	var ids []string
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for id := range sh.cache {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	return ids
}

// feeder ingests frames into one broadcast at an origin, continuing one
// encoder, so frames fed after a recovery lie above the replayed resume floor.
type feeder struct {
	o    *Origin
	id   string
	enc  *media.Encoder
	base time.Time
	n    int
}

func newFeeder(o *Origin, id string) *feeder {
	return &feeder{o: o, id: id, enc: media.NewEncoder(media.EncoderConfig{BitsPerSec: 8_000}, rng.New(7)), base: time.Now()}
}

func (f *feeder) feed(frames int) {
	for range frames {
		f.next()
	}
}

// next ingests the next frame and returns it.
func (f *feeder) next() media.Frame {
	at := f.base.Add(time.Duration(f.n) * media.FrameDuration)
	fr := f.enc.Next(at)
	f.o.Ingest(f.id, fr, at)
	f.n++
	return fr
}

// TestEdgeKeepsNoRecordForUnknownIDs: polling made-up broadcast IDs costs an
// edge nothing. The upstream answers them hls.ErrNotFound, which is not an
// upstream fault, so no breaker — and no record to hold one — is created.
func TestEdgeKeepsNoRecordForUnknownIDs(t *testing.T) {
	_, e := originAndEdge(OriginConfig{})
	ctx := context.Background()
	for i := range 1000 {
		id := "made-up-" + strconv.Itoa(i)
		if _, err := e.ChunkList(ctx, id); !errors.Is(err, hls.ErrNotFound) {
			t.Fatalf("ChunkList(%s): %v, want not found", id, err)
		}
		id = "made-up-chunk-" + strconv.Itoa(i)
		if _, err := e.Chunk(ctx, id, uint64(i)); !errors.Is(err, hls.ErrNotFound) {
			t.Fatalf("Chunk(%s): %v, want not found", id, err)
		}
	}
	if ids := edgeRecords(e); len(ids) != 0 {
		t.Fatalf("after 2000 requests for unknown IDs the edge holds %d records, want 0", len(ids))
	}
}

// TestEdgeFailedPullHoldsNothingToInvalidate: a pull that meets an upstream
// fault leaves the edge a record holding only the broadcast's breaker, and an
// invalidation of it counts nothing, as for a broadcast never pulled.
func TestEdgeFailedPullHoldsNothingToInvalidate(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", framesPerTestChunk+1)
	flaky := &flakyStore{inner: o}
	flaky.failLists.Store(true)
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: flaky}, nil },
		Retry:   resilience.Policy{MaxAttempts: 1},
	})
	if _, err := e.ChunkList(context.Background(), "b1"); err == nil {
		t.Fatal("poll through a failing upstream succeeded")
	}
	if ids := edgeRecords(e); len(ids) != 1 {
		t.Fatalf("edge holds %d records after an upstream fault, want the breaker's 1", len(ids))
	}
	e.invalidate("b1", 1)
	if n := e.m.invalidates.Value(); n != 0 {
		t.Fatalf("Invalidates = %d for a broadcast the edge holds no list of, want 0", n)
	}
}

// TestOriginEdgeRegistrationsSurviveCrash: edge registrations are process
// wiring, not state. After Crash and Recover, with nobody re-registering, the
// next chunk still invalidates the edge, whose next poll serves it.
func TestOriginEdgeRegistrationsSurviveCrash(t *testing.T) {
	o, e := originAndEdge(OriginConfig{Journal: journal.NewMem()})
	defer o.Close()
	f := newFeeder(o, "b1")
	f.feed(2 * framesPerTestChunk)
	ctx := context.Background()
	first, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}

	o.Crash()
	o.Recover()
	f.feed(2 * framesPerTestChunk)
	if n := e.m.invalidates.Value(); n != 1 {
		t.Fatalf("edge counted %d invalidations after the recovered origin sealed a chunk, want 1", n)
	}
	published, err := o.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	next, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if next.Version <= first.Version || next != published {
		t.Fatalf("edge serves version %d after the invalidation, want the origin's %d (was %d)",
			next.Version, published.Version, first.Version)
	}
}

// sealModel is what an origin must have sealed for one broadcast: its chunk
// in assembly, and the wire form of every chunk it sealed, by sequence. Once
// ended, it seals nothing more.
type sealModel struct {
	feeder  *feeder
	frames  []media.Frame
	next    uint64
	sealed  map[uint64][]byte
	ended   bool
	removed bool
}

func (m *sealModel) add(f media.Frame) {
	if m.frames = append(m.frames, f); len(m.frames) == framesPerTestChunk {
		m.seal()
	}
}

// seal records the chunk in assembly as the origin must seal it, if it has
// frames.
func (m *sealModel) seal() {
	if len(m.frames) == 0 {
		return
	}
	m.sealed[m.next] = media.MarshalChunk(&media.Chunk{Seq: m.next, Frames: m.frames})
	m.next++
	m.frames = nil
}

// FuzzEdgeRequests drives one origin and one edge with an op sequence over
// three known broadcast IDs and one fuzzed ID. After every op the edge holds
// records only for broadcasts it has pulled successfully since their last
// Evict, and an ID the origin never knew answers hls.ErrNotFound. Every
// chunk the edge serves has the bytes the origin sealed under that sequence
// for that broadcast, a chunk the origin still retains is served, and a
// sequence below the window of what the edge has served answers
// hls.ErrNotFound: an edge never serves stale bytes. Sequences are drawn
// around the broadcast's newest chunk and its window's floor, and from its
// start. Frames fed after a broadcast's end seal nothing. A removed
// broadcast is not ingested again: the platform never reuses an ID.
func FuzzEdgeRequests(f *testing.F) {
	const (
		opIngest = iota
		opEnd
		opRemove
		opChunkList
		opChunk
		opEvict
		numOps
	)
	// opIngest feeds 1 + arg chunks' worth of frames; opChunk asks for the
	// sequence back[arg] behind the one after the newest sealed, or for
	// chunk 0.
	back := [8]uint64{0, 1, 2, media.WindowSize, retainedChunks - 1, retainedChunks, retainedChunks + 1, math.MaxUint64}
	// The unknown-ID case: list and chunk polls for an ID nobody ingested.
	f.Add([]byte{opChunkList | 3<<3, opChunk | 3<<3, opChunk | 3<<3 | 1<<5}, "nope")
	f.Add([]byte{
		opIngest, opIngest | 1<<3, opChunkList, opChunk, opChunkList | 3<<3,
		opEnd, opChunkList, opRemove, opChunkList, opEvict, opChunk | 1<<3 | 2<<5,
	}, "b0")
	// Past the retention window: fourteen chunks, then chunks at and
	// around its floor, before and after the edge has caught up.
	f.Add([]byte{
		opIngest | 7<<5, opIngest | 5<<5, opChunk | 5<<5, opChunk | 6<<5, opChunk | 4<<5,
		opChunkList, opChunk | 5<<5, opChunk | 6<<5, opChunk | 7<<5, opIngest | 7<<5, opChunk | 6<<5,
		opEnd, opChunkList, opChunk,
	}, "b3")
	f.Fuzz(func(t *testing.T, ops []byte, fuzzed string) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		o, e := originAndEdge(OriginConfig{})
		ids := [4]string{"b0", "b1", "b2", fuzzed}
		models := map[string]*sealModel{}
		pulled := map[string]bool{}
		// edgeNewest is the highest sequence the edge has served or listed
		// since its last Evict of the broadcast, plus one (0: none).
		edgeNewest := map[string]uint64{}
		ctx := context.Background()
		for i, b := range ops {
			op, id, arg := int(b&7)%numOps, ids[b>>3&3], int(b>>5)
			m := models[id]
			var err error
			switch op {
			case opIngest:
				if m == nil {
					m = &sealModel{feeder: newFeeder(o, id), sealed: map[uint64][]byte{}}
					models[id] = m
				}
				if !m.removed {
					for range (framesPerTestChunk + 1) * (1 + arg) {
						// The origin drops frames after the end.
						if fr := m.feeder.next(); !m.ended {
							m.add(fr)
						}
					}
				}
			case opEnd:
				o.endBroadcast(id)
				if m != nil && !m.removed && !m.ended {
					m.seal()
					m.ended = true
				}
			case opRemove:
				o.Remove(id)
				if m != nil {
					m.removed = true
				}
			case opChunkList:
				var cl *media.ChunkList
				if cl, err = e.ChunkList(ctx, id); err == nil {
					for _, ref := range cl.Chunks {
						if m == nil || m.sealed[ref.Seq] == nil {
							t.Fatalf("op %d: the edge's list of %q names chunk %d, which the origin never sealed", i, id, ref.Seq)
						}
						edgeNewest[id] = max(edgeNewest[id], ref.Seq+1)
					}
				}
			case opChunk:
				var seq uint64
				if m != nil {
					seq = m.next - min(m.next, back[arg])
				}
				var c *media.Chunk
				c, err = e.Chunk(ctx, id, seq)
				var want []byte
				if m != nil {
					want = m.sealed[seq]
				}
				switch {
				case err == nil && !bytes.Equal(c.Wire(), want):
					t.Fatalf("op %d: the edge served chunk %d of %q with bytes the origin never sealed under it", i, seq, id)
				case err == nil:
					edgeNewest[id] = max(edgeNewest[id], seq+1)
					if edgeNewest[id] > retainedChunks && seq < edgeNewest[id]-retainedChunks {
						t.Fatalf("op %d: the edge served chunk %d of %q, below the window of chunk %d it served", i, seq, id, edgeNewest[id]-1)
					}
				case want != nil && !m.removed && seq+retainedChunks >= m.next:
					t.Fatalf("op %d: chunk %d of %q, inside the origin's window: %v", i, seq, id, err)
				case edgeNewest[id] > retainedChunks && seq < edgeNewest[id]-retainedChunks && !errors.Is(err, hls.ErrNotFound):
					t.Fatalf("op %d: chunk %d of %q, below the edge's window: %v, want not found", i, seq, id, err)
				}
			case opEvict:
				e.Evict(id)
				delete(pulled, id)
				delete(edgeNewest, id)
			}
			if op == opChunkList || op == opChunk {
				if err == nil {
					pulled[id] = true
				} else if !errors.Is(err, hls.ErrNotFound) {
					t.Fatalf("op %d on %q: %v, want success or not found", i, id, err)
				}
				if m == nil && !errors.Is(err, hls.ErrNotFound) {
					t.Fatalf("op %d: %q, never ingested, answered %v, want not found", i, id, err)
				}
			}
			for _, rid := range edgeRecords(e) {
				if !pulled[rid] {
					t.Fatalf("op %d: the edge holds a record for %q, which it never pulled successfully", i, rid)
				}
			}
		}
	})
}
