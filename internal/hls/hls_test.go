package hls

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// memStore is an in-memory Store for tests.
type memStore struct {
	mu     sync.Mutex
	lists  map[string]*media.ChunkList
	chunks map[string]map[uint64]*media.Chunk
}

func newMemStore() *memStore {
	return &memStore{
		lists:  make(map[string]*media.ChunkList),
		chunks: make(map[string]map[uint64]*media.Chunk),
	}
}

// add publishes a successor list naming c, trimmed to the window, as the
// origin does: a served list is never edited.
func (m *memStore) add(id string, c *media.Chunk) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cl, ok := m.lists[id]
	if !ok {
		cl = &media.ChunkList{BroadcastID: id}
		m.chunks[id] = make(map[uint64]*media.Chunk)
	}
	keep := cl.Chunks[max(0, len(cl.Chunks)-(media.WindowSize-1)):]
	m.lists[id] = &media.ChunkList{
		BroadcastID: id,
		Version:     cl.Version + 1,
		Chunks:      append(keep[:len(keep):len(keep)], media.ChunkRef{Seq: c.Seq, Duration: c.Duration()}),
	}
	m.chunks[id][c.Seq] = c
}

// end publishes the ended successor of id's list.
func (m *memStore) end(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if cl, ok := m.lists[id]; ok {
		m.lists[id] = &media.ChunkList{BroadcastID: id, Version: cl.Version + 1, Chunks: cl.Chunks, Ended: true}
	}
}

func (m *memStore) ChunkList(_ context.Context, id string) (*media.ChunkList, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cl, ok := m.lists[id]
	if !ok {
		return nil, ErrNotFound
	}
	return cl, nil
}

func (m *memStore) Chunk(_ context.Context, id string, seq uint64) (*media.Chunk, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.chunks[id][seq]
	if !ok {
		return nil, ErrNotFound
	}
	return c, nil
}

func makeChunks(n int) []*media.Chunk {
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(5))
	perChunk := media.FramesPerChunk(time.Second)
	base := time.Now()
	out := make([]*media.Chunk, n)
	for seq := range out {
		c := &media.Chunk{Seq: uint64(seq), Frames: make([]media.Frame, perChunk)}
		for i := range c.Frames {
			c.Frames[i] = enc.Next(base.Add(time.Duration(seq*perChunk+i) * media.FrameDuration))
		}
		out[seq] = c
	}
	return out
}

func startHLS(t *testing.T) (*memStore, *Client) {
	t.Helper()
	store := newMemStore()
	srv := httptest.NewServer(Handler("/hls", store))
	t.Cleanup(srv.Close)
	return store, &Client{BaseURL: srv.URL + "/hls"}
}

func TestFetchChunkListAndChunk(t *testing.T) {
	testutil.CheckGoroutines(t)
	store, client := startHLS(t)
	chunks := makeChunks(3)
	for _, c := range chunks {
		store.add("b1", c)
	}
	ctx := context.Background()
	cl, err := client.FetchChunkList(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 3 || cl.Version != 3 {
		t.Fatalf("chunklist = %+v", cl)
	}
	got, err := client.FetchChunk(ctx, "b1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 1 || len(got.Frames) != len(chunks[1].Frames) {
		t.Fatalf("chunk roundtrip mismatch: %+v", got.Seq)
	}
}

func TestFetchNotFound(t *testing.T) {
	_, client := startHLS(t)
	ctx := context.Background()
	if _, err := client.FetchChunkList(ctx, "missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("chunklist err = %v", err)
	}
	if _, err := client.FetchChunk(ctx, "missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("chunk err = %v", err)
	}
}

func TestConditionalFetch(t *testing.T) {
	store, client := startHLS(t)
	store.add("b1", makeChunks(1)[0])
	ctx := context.Background()
	cl, err := client.FetchChunkList(ctx, "b1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.FetchChunkList(ctx, "b1", cl.Version); !errors.Is(err, ErrNotModified) {
		t.Fatalf("conditional fetch err = %v, want ErrNotModified", err)
	}
	// A stale version still gets the full list.
	if _, err := client.FetchChunkList(ctx, "b1", cl.Version+100); err != nil {
		t.Fatalf("mismatched version fetch err = %v", err)
	}
}

func TestHandlerRejectsBadRequests(t *testing.T) {
	store := newMemStore()
	srv := httptest.NewServer(Handler("/hls", store))
	defer srv.Close()
	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodPost, "/hls/b1/chunklist.m3u8", http.StatusMethodNotAllowed},
		{http.MethodGet, "/other/b1/chunklist.m3u8", http.StatusNotFound},
		{http.MethodGet, "/hls/b1/chunk/notanumber", http.StatusBadRequest},
		{http.MethodGet, "/hls/b1/bogus", http.StatusNotFound},
		{http.MethodGet, "/hls/b1/chunk/1/extra", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s = %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestPollReceivesChunksInOrder(t *testing.T) {
	testutil.CheckGoroutines(t)
	store, client := startHLS(t)
	chunks := makeChunks(5)
	store.add("b1", chunks[0])

	var mu sync.Mutex
	var seqs []uint64
	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() {
		done <- client.Poll(ctx, "b1", PollerConfig{
			Interval: 10 * time.Millisecond,
			OnChunk: func(ev ChunkEvent) {
				mu.Lock()
				seqs = append(seqs, ev.Ref.Seq)
				mu.Unlock()
				if ev.Chunk == nil {
					t.Error("missing chunk data")
				}
				if ev.PolledAt.After(ev.ListFetchedAt) || ev.ListFetchedAt.After(ev.FetchedAt) {
					t.Error("timestamps out of order")
				}
			},
		})
	}()

	for _, c := range chunks[1:] {
		time.Sleep(25 * time.Millisecond)
		store.add("b1", c)
	}
	time.Sleep(25 * time.Millisecond)
	store.end("b1")

	if err := <-done; err != nil {
		t.Fatalf("Poll returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 5 {
		t.Fatalf("observed %d chunks, want 5: %v", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("chunks out of order: %v", seqs)
		}
	}
}

// Poll returns nil once the list carries the end marker, after delivering
// the chunks it names.
func TestPollReturnsNilAtEnd(t *testing.T) {
	testutil.CheckGoroutines(t)
	store, client := startHLS(t)
	store.add("b1", makeChunks(1)[0])
	store.end("b1")
	chunks := 0
	err := client.Poll(context.Background(), "b1", PollerConfig{
		Interval: 5 * time.Millisecond,
		OnChunk:  func(ChunkEvent) { chunks++ },
	})
	if err != nil || chunks != 1 {
		t.Fatalf("Poll of an ended broadcast = %v after %d chunks, want nil after 1", err, chunks)
	}
}

func TestPollUnknownBroadcast(t *testing.T) {
	_, client := startHLS(t)
	err := client.Poll(context.Background(), "missing", PollerConfig{Interval: time.Millisecond})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Poll err = %v, want ErrNotFound", err)
	}
}

func TestPollContextCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	store, client := startHLS(t)
	store.add("b1", makeChunks(1)[0])
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	err := client.Poll(ctx, "b1", PollerConfig{Interval: 5 * time.Millisecond})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Poll err = %v, want context.Canceled", err)
	}
}

// discardWriter is the cheapest possible http.ResponseWriter, so what a
// handler call allocates is the handler's own doing.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// A chunk is marshalled once and every GET is answered from those bytes:
// identical bodies with an explicit Content-Length (identity, not chunked
// transfer), and a serve that allocates nothing.
func TestServeChunkSharesSealedBytes(t *testing.T) {
	store, client := startHLS(t)
	chunk := makeChunks(1)[0]
	want := media.MarshalChunk(chunk)
	store.add("b1", chunk)

	var bodies [2][]byte
	for i := range bodies {
		resp, err := http.Get(client.BaseURL + "/b1/chunk/0")
		if err != nil {
			t.Fatal(err)
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != int64(len(want)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("GET %d: Content-Length %d (want %d), Transfer-Encoding %v",
				i, resp.ContentLength, len(want), resp.TransferEncoding)
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("GET %d: body differs from media.MarshalChunk", i)
		}
	}
	sealed := chunk.Wire()
	if again := chunk.Wire(); &again[0] != &sealed[0] {
		t.Fatal("the served chunk was marshalled more than once")
	}

	h := Handler("/hls", store)
	req := httptest.NewRequest(http.MethodGet, "/hls/b1/chunk/0", nil)
	w := &discardWriter{h: make(http.Header)}
	serve := func() {
		w.n = 0
		h.ServeHTTP(w, req)
		if w.n != len(want) {
			t.Fatalf("served %d bytes, want %d", w.n, len(want))
		}
	}
	// Both header values are ready-made: the chunk's Content-Length was
	// built by its first serve.
	if allocs := testing.AllocsPerRun(200, serve); allocs != 0 {
		t.Fatalf("chunk serve allocates %v times per request, want 0", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 100
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	if perServe := (after.TotalAlloc - before.TotalAlloc) / runs; perServe > 256 {
		t.Fatalf("chunk serve allocates %d B per request; a %d B chunk must be served by reference", perServe, len(want))
	}
}

// fixedStore answers every poll with one published list and every chunk
// request with one chunk, by reference, as a warm cdn.Edge does: a handler
// budget over it counts the handler alone.
type fixedStore struct {
	cl *media.ChunkList
	c  *media.Chunk
}

func (s fixedStore) ChunkList(context.Context, string) (*media.ChunkList, error) { return s.cl, nil }
func (s fixedStore) Chunk(context.Context, string, uint64) (*media.Chunk, error) {
	if s.c == nil {
		return nil, ErrNotFound
	}
	return s.c, nil
}

// TestServeChunkListAllocBudget pins the poll path at zero allocations, for a
// full answer and for a 304, from a live edge and from a draining one: every
// header value is ready-made (the version's was built by the list's first
// serve), and the list renders once per version and is written by
// reference. (The version is past 99, which strconv would answer with an
// interned string.)
func TestServeChunkListAllocBudget(t *testing.T) {
	cl := &media.ChunkList{BroadcastID: "b1", Version: 1234, Chunks: []media.ChunkRef{
		{Seq: 0, Duration: time.Second},
	}}
	draining := &drainingStore{Store: fixedStore{cl: cl}}
	draining.draining.Store(true)
	for _, store := range []Store{fixedStore{cl: cl}, draining} {
		h := Handler("/hls", store)
		for _, tc := range []struct {
			query  string
			status int
		}{
			{"", http.StatusOK},
			{"have_version=" + strconv.FormatUint(cl.Version, 10), http.StatusNotModified},
		} {
			req := httptest.NewRequest(http.MethodGet, "/hls/b1/chunklist.m3u8?"+tc.query, nil)
			w := &discardWriter{h: make(http.Header)}
			allocs := testing.AllocsPerRun(200, func() {
				w.status = http.StatusOK // what an unset WriteHeader means
				h.ServeHTTP(w, req)
			})
			if w.status != tc.status {
				t.Fatalf("%T ?%s: status %d, want %d", store, tc.query, w.status, tc.status)
			}
			if _, ok := store.(Drainer); ok != (w.h.Get(DrainingHeader) != "") {
				t.Fatalf("%T ?%s: draining header %q", store, tc.query, w.h.Get(DrainingHeader))
			}
			if allocs != 0 {
				t.Errorf("%T ?%s: list serve allocates %v times per poll, want 0", store, tc.query, allocs)
			}
		}
	}
}

// Routing and the conditional check read the URL in place.
func TestServeChunkListAllocFreeRouting(t *testing.T) {
	store := newMemStore()
	store.add("b1", makeChunks(1)[0])
	h := Handler("/hls", store)
	cases := []struct {
		query string
		want  int
	}{
		{"", http.StatusOK},
		{"have_version=1", http.StatusNotModified},
		{"x=1&have_version=1", http.StatusNotModified},
		{"have_version=2", http.StatusOK},
		{"have_version=one", http.StatusOK},
		{"not_have_version=1", http.StatusOK},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodGet, "/hls/b1/chunklist.m3u8?"+tc.query, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("?%s = %d, want %d", tc.query, rec.Code, tc.want)
		}
	}
	for _, rawQuery := range []string{"have_version=1", "a=b&c=d&have_version=18446744073709551615", ""} {
		if allocs := testing.AllocsPerRun(100, func() { haveVersion(rawQuery) }); allocs != 0 {
			t.Errorf("haveVersion(%q) allocates %v times", rawQuery, allocs)
		}
	}
}

// FetchChunk reads a declared-length body into one exact-size buffer, which
// the decoded chunk then keeps as its sealed form; without a usable
// Content-Length it still decodes, through the capped ReadAll.
func TestFetchChunkReadsExactSizeBuffer(t *testing.T) {
	// Through a real Handler, which declares the length: fetching a 4 MiB
	// chunk allocates about one body, where io.ReadAll's growth allocated
	// about five (the sealed form's cap is clipped, so bytes allocated is
	// the only place the difference shows).
	store, client := startHLS(t)
	big := &media.Chunk{Frames: []media.Frame{{Keyframe: true, CapturedAt: time.Unix(1, 0), Payload: make([]byte, 4<<20)}}}
	store.add("b1", big)
	want := big.Wire()
	ctx := context.Background()
	if _, err := client.FetchChunk(ctx, "b1", 0); err != nil { // dial and warm the connection
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := client.FetchChunk(ctx, "b1", 0)
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(got.Wire(), want) {
		t.Fatalf("declared-length fetch: %v", err)
	}
	// TotalAlloc is process-wide, so the server's goroutines count too: the
	// bound leaves two bodies of slack and still sits far below ReadAll's five.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 3*uint64(len(want)) {
		t.Errorf("fetching a %d-byte chunk allocated %d bytes, want one body-sized buffer", len(want), alloc)
	}

	want = media.MarshalChunk(makeChunks(1)[0])
	// End to end against a server that streams the chunk without a length.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		w.Write(want)
	}))
	defer srv.Close()
	got, err = (&Client{BaseURL: srv.URL}).FetchChunk(ctx, "b1", 0)
	if err != nil || !bytes.Equal(got.Wire(), want) {
		t.Fatalf("chunked-transfer fetch: %v", err)
	}
}
