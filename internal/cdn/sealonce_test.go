package cdn

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/metrics"
)

// framesPerTestChunk is one 1 s chunk's worth of frames.
const framesPerTestChunk = 25

func originAndEdge(cfg OriginConfig) (*Origin, *Edge) {
	cfg.Site, cfg.ChunkDuration = site("o1", "X"), time.Second
	o := NewOrigin(cfg)
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: o}, nil },
	})
	o.RegisterEdge(e)
	return o, e
}

// replayStore is an upstream whose every list poll brings the next of a
// series of lists an origin published, with their chunks by sequence, at no
// allocation of its own — so what a pull allocates is the edge's.
type replayStore struct {
	lists  []*media.ChunkList
	next   int
	chunks map[uint64]*media.Chunk
}

func (r *replayStore) ChunkList(context.Context, string) (*media.ChunkList, error) {
	l := r.lists[r.next]
	r.next++
	return l, nil
}

func (r *replayStore) Chunk(_ context.Context, _ string, seq uint64) (*media.Chunk, error) {
	return r.chunks[seq], nil
}

// An edge refresh that pulls one new list and copies the one new chunk it
// names allocates nothing at the edge: the flight is the group's spare, the
// missing refs are gathered on the stack, and list and chunk are the
// upstream's pointers.
func TestEdgePullAllocBudget(t *testing.T) {
	const runs = 100
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	ctx := context.Background()
	up := &replayStore{chunks: make(map[uint64]*media.Chunk)}
	for seq := uint64(0); seq < runs+3; seq++ {
		feedFrames(o, "b1", framesPerTestChunk)
		list, err := o.ChunkList(ctx, "b1")
		if err != nil {
			t.Fatal(err)
		}
		up.lists = append(up.lists, list)
		if up.chunks[seq], err = o.Chunk(ctx, "b1", seq); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: up}, nil },
	})
	refresh := func() {
		next := up.lists[up.next]
		e.Invalidate("b1", next.Version)
		if cl, err := e.ChunkList(ctx, "b1"); err != nil || cl != next {
			t.Fatalf("refresh served %p (err %v), want the upstream's version %d", cl, err, next.Version)
		}
	}
	refresh() // the broadcast's record is made by its first pull
	if allocs := testing.AllocsPerRun(runs, refresh); allocs != 0 {
		t.Fatalf("a one-chunk refresh allocates %.0f times at the edge, want 0", allocs)
	}
	if pulls := e.m.chunkPulls.Value(); pulls != runs+2 {
		t.Fatalf("the edge copied %d chunks in %d refreshes, want one each", pulls, runs+2)
	}
}

// A warm edge answers from the upstream's own immutable values: the list and
// chunk pointers the origin published, no copies, no allocations.
func TestEdgeWarmHitServesByReference(t *testing.T) {
	o, e := originAndEdge(OriginConfig{})
	feedFrames(o, "b1", framesPerTestChunk)
	ctx := context.Background()

	published, err := o.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	pulled, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	hit, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if pulled != published || hit != published {
		t.Fatal("the edge copied the chunklist instead of caching the origin's pointer")
	}
	stored, _ := o.Chunk(ctx, "b1", 0)
	if got, err := e.Chunk(ctx, "b1", 0); err != nil || got != stored {
		t.Fatalf("the edge copied the chunk instead of caching the origin's pointer (err %v)", err)
	}
	if allocs := testing.AllocsPerRun(200, func() { e.ChunkList(ctx, "b1") }); allocs != 0 {
		t.Fatalf("warm ChunkList allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { e.Chunk(ctx, "b1", 0) }); allocs != 0 {
		t.Fatalf("warm Chunk allocates %v times", allocs)
	}

	// Copy-on-write: the next update publishes a new list and leaves the one
	// readers may still hold exactly as it was.
	feedFrames(o, "b1", framesPerTestChunk)
	if published.Version != 1 || len(published.Chunks) != 1 {
		t.Fatalf("a published list was edited in place: %+v", published)
	}
	if next, _ := e.ChunkList(ctx, "b1"); next == published || next.Version != 2 || len(next.Chunks) != 2 {
		t.Fatalf("after an update the edge serves %+v", next)
	}
}

// With a journal the origin seals a chunk at the journal append: the stored
// chunk's frames are views into the very bytes that were journaled.
func TestOriginJournalAppendIsTheSeal(t *testing.T) {
	backend := journal.NewMem()
	o, _ := originAndEdge(OriginConfig{Journal: backend})
	feedFrames(o, "b1", framesPerTestChunk)
	c, err := o.Chunk(context.Background(), "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	wire := c.Wire()
	const firstPayload = 12 + 21 // chunk header + first frame header
	if &c.Frames[0].Payload[0] != &wire[firstPayload] {
		t.Fatal("a journaled chunk still owns its frames beside its bytes")
	}
	o.Close() // drains the group-commit writer
	data, _ := backend.Load()
	var sealedPayload []byte
	journal.Replay(data, func(r journal.Record) error {
		if r.Type == journal.RecordSeal {
			sealedPayload = r.Payload
		}
		return nil
	})
	if string(sealedPayload) != string(wire) {
		t.Fatal("the journaled payload differs from the served bytes")
	}
}

// TestOriginIngestAfterEndChangesNothing: an ended broadcast's list is final.
// Frames that reach the origin after the end, and a second end, publish no
// new version and seal no chunk, and the journal holds no record after the
// end's.
func TestOriginIngestAfterEndChangesNothing(t *testing.T) {
	backend := journal.NewMem()
	o, _ := originAndEdge(OriginConfig{Journal: backend})
	ctx := context.Background()
	f := newFeeder(o, "b1")
	f.feed(framesPerTestChunk + 5)
	o.endBroadcast("b1")
	ended, err := o.ChunkList(ctx, "b1")
	if err != nil || ended.Version != 3 || len(ended.Chunks) != 2 || !ended.Ended {
		t.Fatalf("after the end: %+v, %v; want v3 with 2 chunks, ended", ended, err)
	}
	f.feed(2 * framesPerTestChunk)
	o.endBroadcast("b1")
	if cl, _ := o.ChunkList(ctx, "b1"); cl != ended {
		t.Fatalf("frames after the end moved the list from v%d with %d chunks to v%d with %d",
			ended.Version, len(ended.Chunks), cl.Version, len(cl.Chunks))
	}
	o.Close() // drains the group-commit writer
	data, _ := backend.Load()
	var types []journal.RecordType
	journal.Replay(data, func(r journal.Record) error {
		types = append(types, r.Type)
		return nil
	})
	want := []journal.RecordType{journal.RecordCreate, journal.RecordSeal, journal.RecordSeal, journal.RecordEnd}
	if !slices.Equal(types, want) {
		t.Fatalf("journal holds %v, want %v", types, want)
	}
}

// flakyLoad is a journal backend whose first Load fails, as a disk with a
// transient read error would.
type flakyLoad struct {
	*journal.Mem
	failed bool
}

func (b *flakyLoad) Load() ([]byte, error) {
	if !b.failed {
		b.failed = true
		return nil, errors.New("read error")
	}
	return b.Mem.Load()
}

// An origin whose journal cannot be read starts empty and unjournaled: it
// appends nothing after bytes it could not read, so the next load that
// succeeds replays the old log exactly as it was. The failure is counted.
func TestOriginAppendsNothingAfterFailedLoad(t *testing.T) {
	mem := journal.NewMem()
	o, _ := originAndEdge(OriginConfig{Journal: mem})
	feedFrames(o, "b1", framesPerTestChunk)
	o.Close()
	before, _ := mem.Load()

	reg := metrics.NewRegistry()
	o2, _ := originAndEdge(OriginConfig{Journal: &flakyLoad{Mem: mem}, Metrics: reg})
	feedFrames(o2, "b1", 2*framesPerTestChunk)
	o2.endBroadcast("b1")
	o2.Close()
	if after, _ := mem.Load(); !bytes.Equal(after, before) {
		t.Fatalf("the origin appended %d bytes after a journal it could not read", len(after)-len(before))
	}
	var loadErrors int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "journal_load_errors_total" && c.Labels["site"] == "o1" {
			loadErrors += c.Value
		}
	}
	if loadErrors != 1 {
		t.Fatalf("journal_load_errors_total{site=o1} = %d, want 1", loadErrors)
	}
}

// Origin, edge and a recovered origin keep exactly the retention window —
// the playlist's chunks plus one window of grace — and answer not-found below
// it, on every path a chunk can arrive by (ingest, end flush, journal replay).
func TestRetentionWindow(t *testing.T) {
	o, e := originAndEdge(OriginConfig{Journal: journal.NewMem()})
	srv := httptest.NewServer(hls.Handler("/hls", e))
	defer srv.Close()
	ctx := context.Background()

	const sealed = 20
	for i := 0; i < sealed; i++ {
		feedFrames(o, "b1", framesPerTestChunk)
		if _, err := e.ChunkList(ctx, "b1"); err != nil { // the edge copies each new chunk
			t.Fatal(err)
		}
	}
	check := func(name string, store hls.Store, held int, newest uint64) {
		t.Helper()
		if held != retainedChunks {
			t.Fatalf("%s holds %d chunks, want %d", name, held, retainedChunks)
		}
		floor := newest + 1 - retainedChunks
		if _, err := store.Chunk(ctx, "b1", floor); err != nil {
			t.Fatalf("%s: oldest retained chunk %d: %v", name, floor, err)
		}
		if _, err := store.Chunk(ctx, "b1", floor-1); !errors.Is(err, hls.ErrNotFound) {
			t.Fatalf("%s: chunk %d below the window: err %v, want ErrNotFound", name, floor-1, err)
		}
	}
	originHeld := func() int {
		o.mu.Lock()
		defer o.mu.Unlock()
		return o.streams["b1"].chunks.held()
	}
	edgeHeld := func() int {
		sh := e.shard("b1")
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.cache["b1"].chunks.held()
	}
	check("origin", o, originHeld(), sealed-1)
	check("edge", e, edgeHeld(), sealed-1)
	for seq, want := range map[int]int{sealed - retainedChunks: http.StatusOK, sealed - retainedChunks - 1: http.StatusNotFound} {
		resp, err := http.Get(srv.URL + "/hls/b1/chunk/" + strconv.Itoa(seq))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET chunk %d = %d, want %d", seq, resp.StatusCode, want)
		}
	}

	// The end-of-broadcast flush goes through the same window.
	feedFrames(o, "b1", 10)
	o.endBroadcast("b1")
	check("origin after end flush", o, originHeld(), sealed)

	// So does replay: the journal holds every chunk, the recovered origin
	// only the window.
	o.Crash()
	o.Recover()
	defer o.Close()
	check("recovered origin", o, originHeld(), sealed)
	cl, err := o.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if !cl.Ended || len(cl.Chunks) != media.WindowSize || cl.Chunks[0].Seq != sealed+1-media.WindowSize {
		t.Fatalf("recovered list: ended=%v chunks=%+v", cl.Ended, cl.Chunks)
	}
	if last := cl.Chunks[media.WindowSize-1].Seq; last != uint64(sealed) {
		t.Fatalf("last chunk = %d, want %d", last, sealed)
	}
}

// Remove forgets a rehydrated broadcast entirely, pending flag included, as
// Crash does.
func TestOriginRemoveClearsPending(t *testing.T) {
	o, _ := originAndEdge(OriginConfig{Journal: journal.NewMem()})
	defer o.Close()
	feedFrames(o, "b1", framesPerTestChunk)
	o.Crash()
	o.Recover()
	if !o.pendingBroadcast("b1") {
		t.Fatal("a replayed live broadcast is not pending")
	}
	o.Remove("b1")
	if o.pendingBroadcast("b1") {
		t.Fatal("Remove left the broadcast pending")
	}
}

// TestOriginRemoveSurvivesRecovery: a broadcast the janitor removed stays
// removed across a crash. Its end stamp is gone with it, so a replay that
// brought it back would serve and hold it for good. A broadcast that was only
// ended, whose log holds no remove record, replays to the list it had.
func TestOriginRemoveSurvivesRecovery(t *testing.T) {
	o, _ := originAndEdge(OriginConfig{Journal: journal.NewMem()})
	defer o.Close()
	ctx := context.Background()
	for _, id := range []string{"gone", "kept"} {
		feedFrames(o, id, 3*framesPerTestChunk+1)
		o.endBroadcast(id)
	}
	kept, err := o.ChunkList(ctx, "kept")
	if err != nil {
		t.Fatal(err)
	}
	o.Remove("gone")
	o.Remove("never-ingested")
	o.Crash()
	o.Recover()
	if _, err := o.ChunkList(ctx, "gone"); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("removed broadcast's list after recovery: err %v, want hls.ErrNotFound", err)
	}
	if _, err := o.Chunk(ctx, "gone", 0); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("removed broadcast's chunk after recovery: err %v, want hls.ErrNotFound", err)
	}
	cl, err := o.ChunkList(ctx, "kept")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cl.Marshal(), kept.Marshal()) || cl.Version != kept.Version {
		t.Fatalf("ended broadcast replayed to version %d:\n%s\nwant version %d:\n%s", cl.Version, cl.Marshal(), kept.Version, kept.Marshal())
	}
}
