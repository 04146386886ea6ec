package cdn

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/rng"
)

// held counts the chunks the window answers for.
func (w *chunkWindow) held() int {
	n := 0
	for _, s := range w.slots {
		if _, ok := w.get(s.seq); ok && s.chunk != nil {
			n++
		}
	}
	return n
}

// mapWindow is the retention window as origin and edge kept it before
// chunkWindow: a map, and after every store a scan that deletes each sequence
// at or below newest − retainedChunks. It is the reference chunkWindow is
// checked against.
type mapWindow struct {
	chunks map[uint64]storedChunk
	newest uint64
}

func (m *mapWindow) put(seq uint64, c *media.Chunk, at time.Time) {
	m.chunks[seq] = storedChunk{seq: seq, chunk: c, at: at}
	m.newest = max(m.newest, seq)
	dropExpired(m.chunks, m.newest)
}

func dropExpired(chunks map[uint64]storedChunk, newest uint64) {
	if newest < retainedChunks {
		return
	}
	for seq := range chunks {
		if seq <= newest-retainedChunks {
			delete(chunks, seq)
		}
	}
}

// TestChunkWindowMatchesMap runs 10⁴ seeded op sequences against the ring and
// the map: stores inside the window, behind it, just past it and far ahead of
// it, and after every store a lookup of every sequence from three windows
// behind the newest to one past it. Both must answer the same chunk and stamp,
// or both nothing, and hold as many chunks.
func TestChunkWindowMatchesMap(t *testing.T) {
	const sequences, ops = 10_000, 48
	chunks := make([]media.Chunk, ops) // one identity per op of a sequence
	base := time.Unix(1_700_000_000, 0)
	for seed := uint64(1); seed <= sequences; seed++ {
		src := rng.New(seed)
		var ring chunkWindow
		ref := mapWindow{chunks: make(map[uint64]storedChunk)}
		for op := 0; op < ops; op++ {
			newest := ref.newest
			var seq uint64
			switch src.Intn(5) {
			case 0: // the next chunk
				seq = newest + 1
			case 1: // inside the window
				seq = newest - min(newest, src.Uint64n(retainedChunks))
			case 2: // behind it, into a slot a live chunk may hold
				back := retainedChunks + src.Uint64n(2*retainedChunks)
				if back > newest {
					continue
				}
				seq = newest - back
			case 3: // far ahead: the whole window expires
				seq = newest + retainedChunks + src.Uint64n(3*retainedChunks)
			case 4: // anywhere near the start
				seq = src.Uint64n(3 * retainedChunks)
			}
			c, at := &chunks[op], base.Add(time.Duration(op))
			ring.put(seq, c, at)
			ref.put(seq, c, at)
			from := ref.newest - min(ref.newest, 3*retainedChunks)
			for q := from; q <= ref.newest+1; q++ {
				got, gotOK := ring.get(q)
				want, wantOK := ref.chunks[q]
				if gotOK != wantOK || got.chunk != want.chunk || !got.at.Equal(want.at) {
					t.Fatalf("seed %d op %d (stored %d, newest %d): get(%d) = %p, %v; the map answers %p, %v",
						seed, op, seq, ref.newest, q, got.chunk, gotOK, want.chunk, wantOK)
				}
			}
			if ring.held() != len(ref.chunks) {
				t.Fatalf("seed %d op %d: the ring holds %d chunks, the map %d", seed, op, ring.held(), len(ref.chunks))
			}
		}
	}
}

// The origin assembles 3 s chunks of 75 frames, numbered from 0, and an end
// of broadcast seals the partial chunk left; a second end seals nothing.
func TestOriginChunksFillAt75(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X")})
	ctx := context.Background()
	base := time.Unix(1000, 0)
	for i := 0; i < 200; i++ {
		at := base.Add(time.Duration(i) * media.FrameDuration)
		o.Ingest("b1", media.Frame{Seq: uint64(i), CapturedAt: at}, at)
	}
	cl, err := o.ChunkList(ctx, "b1")
	if err != nil || len(cl.Chunks) != 2 || cl.Chunks[0].Seq != 0 || cl.Chunks[1].Seq != 1 {
		t.Fatalf("200 frames published %+v (err %v), want chunks 0 and 1", cl, err)
	}
	c, err := o.Chunk(ctx, "b1", 0)
	if err != nil || len(c.Frames) != 75 || c.Duration() != 3*time.Second || !c.FirstCapturedAt().Equal(base) {
		t.Fatalf("chunk 0: %d frames, %v long, first captured %v (err %v)", len(c.Frames), c.Duration(), c.FirstCapturedAt(), err)
	}
	o.endBroadcast("b1")
	if rem, err := o.Chunk(ctx, "b1", 2); err != nil || len(rem.Frames) != 50 || rem.Frames[0].Seq != 150 {
		t.Fatalf("the end flush sealed %+v (err %v), want chunk 2 with frames 150–199", rem, err)
	}
	o.endBroadcast("b1")
	if cl, _ := o.ChunkList(ctx, "b1"); len(cl.Chunks) != 3 || !cl.Ended {
		t.Fatalf("after a second end the list is %+v, want the same three chunks, ended", cl)
	}
}

// A 1 s origin seals on the 25th frame, not before.
func TestOriginCustomChunkDuration(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		o.Ingest("b1", media.Frame{Seq: uint64(i)}, time.Time{})
	}
	if cl, _ := o.ChunkList(ctx, "b1"); len(cl.Chunks) != 0 {
		t.Fatalf("1 s origin sealed after 24 frames: %+v", cl)
	}
	o.Ingest("b1", media.Frame{Seq: 24}, time.Time{})
	if c, err := o.Chunk(ctx, "b1", 0); err != nil || len(c.Frames) != 25 {
		t.Fatalf("the 25th frame sealed %+v (err %v), want a 25-frame chunk", c, err)
	}
}

// TestOriginAllocsPerChunk pins what assembling and publishing chunks costs
// an unjournaled origin, counted exactly over 64 chunks: at viewersim's
// one-frame chunks one slab of sealed chunks and one of frames, at 75 frames
// a sealed chunk and a frame array of its own per chunk. Each seal's list is
// carved with its chunk.
func TestOriginAllocsPerChunk(t *testing.T) {
	for _, tc := range []struct{ perChunk, want int }{{1, 2}, {75, 2 * 64}} {
		o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Duration(tc.perChunk) * media.FrameDuration})
		f := media.Frame{Payload: []byte("p")}
		ctx := context.Background()
		gc := debug.SetGCPercent(-1) // see TestIngestAllocBudget
		got := testing.AllocsPerRun(1, func() {
			for range slabSize * tc.perChunk {
				o.Ingest("b1", f, time.Time{})
			}
		})
		debug.SetGCPercent(gc)
		if got != float64(tc.want) {
			t.Fatalf("%d-frame chunks: %.0f allocations per %d chunks, want %d", tc.perChunk, got, slabSize, tc.want)
		}
		cl, _ := o.ChunkList(ctx, "b1")
		last := cl.Chunks[len(cl.Chunks)-1].Seq
		if c, err := o.Chunk(ctx, "b1", last); err != nil || len(c.Frames) != tc.perChunk || cap(c.Frames) != tc.perChunk || last != 2*slabSize-1 {
			t.Fatalf("%d-frame chunks: chunk %d is %+v (err %v)", tc.perChunk, last, c, err)
		}
	}
}

// TestPublishedListsNeverRewritten holds every list a journaled origin hands
// out — a broadcast's version-0 list, its 2×retainedChunks seals' lists, its
// end flush's and its end marker's — across its Remove, a new broadcast beside
// it and one under the same ID, a crash, the journal replay and the seals
// after it. Every held list must keep the version, end flag and refs it was
// handed out with: a seal's list lives, never written again, as long as the
// chunk it was carved with, and stream records, each holding its version-0
// list, are not recycled.
func TestPublishedListsNeverRewritten(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: 2 * media.FrameDuration, Journal: journal.NewMem()})
	defer o.Close()
	ctx := context.Background()
	type held struct {
		list    *media.ChunkList
		id      string
		version uint64
		ended   bool
		refs    []media.ChunkRef
	}
	var lists []held
	hold := func(id string) {
		cl, err := o.ChunkList(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n := len(lists); n > 0 && lists[n-1].list == cl {
			return
		}
		lists = append(lists, held{cl, cl.BroadcastID, cl.Version, cl.Ended, slices.Clone(cl.Chunks)})
	}
	next := map[string]uint64{}
	feed := func(id string, frames int) {
		for range frames {
			o.Ingest(id, media.Frame{Seq: next[id], Payload: []byte("p")}, time.Time{})
			next[id]++
			hold(id)
		}
	}
	feed("b1", 2*2*retainedChunks+1) // version 0, 2×retainedChunks seals, a frame in assembly
	o.endBroadcast("b1")             // the flush's seal and the end marker
	hold("b1")
	o.Remove("b1")
	feed("b2", 2*retainedChunks)
	next["b1"] = 0
	feed("b1", 2*3)
	o.Crash()
	o.Recover()
	hold("b1") // replayed: the seals' lists and the version-0 list are new
	hold("b2")
	feed("b2", 2*retainedChunks)
	o.endBroadcast("b2")
	hold("b2")
	if len(lists) < 2*retainedChunks+4 {
		t.Fatalf("held %d lists", len(lists))
	}
	for i, h := range lists {
		if h.list.BroadcastID != h.id || h.list.Version != h.version || h.list.Ended != h.ended || !slices.Equal(h.list.Chunks, h.refs) {
			t.Fatalf("list %d, handed out as %s version %d (ended %v) with %v, now reads %s version %d (ended %v) with %v",
				i, h.id, h.version, h.ended, h.refs, h.list.BroadcastID, h.list.Version, h.list.Ended, h.list.Chunks)
		}
	}
}

// discardBackend accepts and forgets, so a budget counts the origin alone.
type discardBackend struct{}

func (discardBackend) Append([]byte) error   { return nil }
func (discardBackend) Load() ([]byte, error) { return nil, nil }
func (discardBackend) Truncate(int64) error  { return nil }

// TestIngestAllocBudget pins what Origin.Ingest allocates for 4 KB frames at
// 160 ms chunks (four frames a chunk), counted exactly over 64 chunks: four
// slabs of sealed chunks, each chunk with its list, and four of frames (16
// chunks each), and nothing per frame or per list. Journaling adds exactly the seal's wire form per chunk:
// the frames are re-pointed into it in place, and an append copies it into
// the writer's batch, whose two buffers are grown to the batch bound first so
// that no lag of the writer's goroutine can make one grow inside the count.
func TestIngestAllocBudget(t *testing.T) {
	const framesPerChunk = 4
	for _, tc := range []struct {
		name    string
		backend journal.Backend
		want    float64
	}{
		{"journal=off", nil, 8},
		{"journal=on", discardBackend{}, 64 + 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: framesPerChunk * media.FrameDuration, Journal: tc.backend})
			defer o.Close()
			if o.jw != nil {
				// Two records just under the writer's 4 MiB batch bound grow
				// both of its buffers to it; a batch that holds one makes the
				// next append wait for the drain instead of growing it.
				grow := journal.Record{Type: journal.RecordSeal, BroadcastID: "grow", Payload: make([]byte, 4<<20-4<<10)}
				journalAppend(o.jw, grow)
				journalAppend(o.jw, grow)
			}
			payload := make([]byte, 4096)
			base := time.Unix(1_700_000_000, 0)
			seq := 0
			// The collector is off for the count: a cycle that starts
			// inside it allocates a few objects of its own, which a count
			// over 64 chunks' working set would catch now and then.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			got := testing.AllocsPerRun(1, func() {
				for range slabSize * framesPerChunk {
					f := media.Frame{Seq: uint64(seq), CapturedAt: base.Add(time.Duration(seq) * media.FrameDuration), Keyframe: seq%25 == 0, Payload: payload}
					o.Ingest("b1", f, base)
					seq++
				}
			})
			if got != tc.want {
				t.Fatalf("Ingest allocates %.0f times per %d %d-frame chunks, want %.0f", got, slabSize, framesPerChunk, tc.want)
			}
			if list, err := o.ChunkList(context.Background(), "b1"); err != nil || list.Version != 2*slabSize {
				t.Fatalf("chunks were not sealed: list %+v, err %v", list, err)
			}
		})
	}
}

// Making an edge's record of a broadcast allocates the record alone: its
// chunk window is part of it.
func TestEdgeEntryAllocBudget(t *testing.T) {
	_, e := originAndEdge(OriginConfig{})
	sh := e.shard("b1")
	allocs := testing.AllocsPerRun(100, func() {
		sh.mu.Lock()
		sh.entryLocked("b1")
		sh.mu.Unlock()
		e.Evict("b1")
	})
	if allocs != 1 {
		t.Fatalf("a new edge record allocates %.0f times, want 1", allocs)
	}
}

// A journaled origin seals in place: the frames of the chunk it serves are
// views of the wire form its journal got, not of what the publisher sent.
func TestJournaledSealIsInPlace(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second, Journal: journal.NewMem()})
	defer o.Close()
	feedFrames(o, "b1", framesPerTestChunk)
	c, err := o.Chunk(context.Background(), "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range c.Frames {
		if !inside(f.Payload, c.Wire()) {
			t.Fatalf("frame %d of the sealed chunk is not a view of its wire", i)
		}
	}
}

// inside reports whether view's bytes lie inside buf's.
func inside(view, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &view[0] {
			return len(view) <= len(buf)-i
		}
	}
	return false
}
