package cdn

import (
	"context"
	"errors"
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
		at := f.base.Add(time.Duration(f.n) * media.FrameDuration)
		f.o.Ingest(f.id, f.enc.Next(at), at)
		f.n++
	}
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
	e.Invalidate("b1", 1)
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

// FuzzEdgeRequests drives one origin and one edge with an op sequence over
// three known broadcast IDs and one fuzzed ID. After every op the edge holds
// records only for broadcasts it has pulled successfully since their last
// Evict, and an ID the origin never knew answers hls.ErrNotFound.
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
	// The unknown-ID case: list and chunk polls for an ID nobody ingested.
	f.Add([]byte{opChunkList | 3<<3, opChunk | 3<<3, opChunk | 3<<3 | 1<<5}, "nope")
	f.Add([]byte{
		opIngest, opIngest | 1<<3, opChunkList, opChunk, opChunkList | 3<<3,
		opEnd, opChunkList, opRemove, opChunkList, opEvict, opChunk | 1<<3 | 2<<5,
	}, "b0")
	f.Fuzz(func(t *testing.T, ops []byte, fuzzed string) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		o, e := originAndEdge(OriginConfig{})
		ids := [4]string{"b0", "b1", "b2", fuzzed}
		feeders := map[string]*feeder{}
		knew := map[string]bool{}
		pulled := map[string]bool{}
		ctx := context.Background()
		for i, b := range ops {
			op, id, seq := int(b&7)%numOps, ids[b>>3&3], uint64(b>>5)
			var err error
			switch op {
			case opIngest:
				if feeders[id] == nil {
					feeders[id] = newFeeder(o, id)
				}
				feeders[id].feed(framesPerTestChunk + 1)
				knew[id] = true
			case opEnd:
				o.endBroadcast(id)
			case opRemove:
				o.Remove(id)
			case opChunkList:
				_, err = e.ChunkList(ctx, id)
			case opChunk:
				_, err = e.Chunk(ctx, id, seq)
			case opEvict:
				e.Evict(id)
				delete(pulled, id)
			}
			if op == opChunkList || op == opChunk {
				if err == nil {
					pulled[id] = true
				} else if !errors.Is(err, hls.ErrNotFound) {
					t.Fatalf("op %d on %q: %v, want success or not found", i, id, err)
				}
				if !knew[id] && !errors.Is(err, hls.ErrNotFound) {
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
