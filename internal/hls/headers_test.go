package hls

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/resilience"
)

// httpGet issues a GET and returns the response with its body read.
func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// The header keys the handler assigns directly must already be canonical, or
// net/http would not find them.
func TestReadyMadeHeaderKeysAreCanonical(t *testing.T) {
	for _, key := range []string{VersionHeader, DrainingHeader} {
		if http.CanonicalHeaderKey(key) != key {
			t.Errorf("%q is not canonical", key)
		}
	}
}

// A 200 and a 304 both carry the list's decimal version, past the versions
// strconv interns, through a real net/http server.
func TestServedVersionIsExact(t *testing.T) {
	cl := &media.ChunkList{BroadcastID: "b1", Version: 1<<63 + 12345, Chunks: []media.ChunkRef{{Seq: 0, Duration: time.Second}}}
	srv := httptest.NewServer(Handler("/hls", fixedStore{cl: cl}))
	defer srv.Close()
	want := strconv.FormatUint(cl.Version, 10)
	for _, tc := range []struct {
		query  string
		status int
	}{
		{"", http.StatusOK},
		{"?have_version=" + want, http.StatusNotModified},
		{"", http.StatusOK},
	} {
		resp, _ := httpGet(t, srv.URL+"/hls/b1/chunklist.m3u8"+tc.query)
		if resp.StatusCode != tc.status {
			t.Fatalf("%q: status %d, want %d", tc.query, resp.StatusCode, tc.status)
		}
		if got := resp.Header.Values(VersionHeader); len(got) != 1 || got[0] != want {
			t.Fatalf("%q: %s %q, want [%s]", tc.query, VersionHeader, got, want)
		}
	}
}

// No list answers a version it does not carry: a successor of a served list
// answers its own version, and the served list still answers its own after
// the successor's first serve.
func TestServedVersionIsNotInherited(t *testing.T) {
	cl := &media.ChunkList{BroadcastID: "b1", Version: 500, Chunks: []media.ChunkRef{{Seq: 0, Duration: time.Second}}}
	serve := func(cl *media.ChunkList) {
		t.Helper()
		w := httptest.NewRecorder()
		Handler("/hls", fixedStore{cl: cl}).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/hls/b1/chunklist.m3u8", nil))
		want := strconv.FormatUint(cl.Version, 10)
		if got := w.Header().Get(VersionHeader); got != want {
			t.Fatalf("version %d served as %q", cl.Version, got)
		}
		if parsed, err := media.ParseChunkList(w.Body.Bytes()); err != nil || parsed.Version != cl.Version {
			t.Fatalf("version %d: body parses as %+v, %v", cl.Version, parsed, err)
		}
	}
	serve(cl)
	next := &media.ChunkList{BroadcastID: "b1", Version: cl.Version + 1, Chunks: []media.ChunkRef{{Seq: 0, Duration: time.Second}, {Seq: 1, Duration: time.Second}}}
	serve(next)
	serve(cl)
}

// A chunk decoded from a buffer with bytes after its wire form is served as
// that form alone: Content-Length is len(Wire()), and so is the body.
func TestServedContentLengthIsSealedPrefix(t *testing.T) {
	wire := media.MarshalChunk(makeChunks(1)[0])
	c, err := media.SealedChunk(append(wire, "trailing bytes"...))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Wire()) != len(wire) {
		t.Fatalf("sealed form is %d bytes, want %d", len(c.Wire()), len(wire))
	}
	srv := httptest.NewServer(Handler("/hls", fixedStore{c: c}))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		resp, body := httpGet(t, srv.URL+"/hls/b1/chunk/0")
		if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(wire)) || resp.ContentLength != int64(len(wire)) {
			t.Fatalf("GET %d: Content-Length %q, want %d", i, got, len(wire))
		}
		if !bytes.Equal(body, c.Wire()) {
			t.Fatalf("GET %d: body is not the sealed form", i)
		}
	}
}

// The first serves of a fresh list and a fresh chunk, racing, all assign the
// same value: one is built and every racer gets it. Run under -race.
func TestConcurrentFirstServesShareOneValue(t *testing.T) {
	cl := &media.ChunkList{BroadcastID: "b1", Version: 777, Chunks: []media.ChunkRef{{Seq: 0, Duration: time.Second}}}
	c := makeChunks(1)[0]
	h := Handler("/hls", fixedStore{cl: cl, c: c})
	const racers = 32
	var versions, lengths [racers]*string
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			lw := &discardWriter{h: make(http.Header)}
			h.ServeHTTP(lw, httptest.NewRequest(http.MethodGet, "/hls/b1/chunklist.m3u8", nil))
			cw := &discardWriter{h: make(http.Header)}
			h.ServeHTTP(cw, httptest.NewRequest(http.MethodGet, "/hls/b1/chunk/0", nil))
			versions[i], lengths[i] = &lw.h[VersionHeader][0], &cw.h["Content-Length"][0]
		}(i)
	}
	close(start)
	wg.Wait()
	v, l := cl.VersionValue(), c.LengthValue()
	for i := 0; i < racers; i++ {
		if versions[i] != &v[0] || lengths[i] != &l[0] {
			t.Fatalf("racer %d was served a value of its own", i)
		}
	}
	if v[0] != strconv.FormatUint(cl.Version, 10) || l[0] != strconv.Itoa(len(c.Wire())) {
		t.Fatalf("values %q, %q", v, l)
	}
}

// A response's header map may be edited after the handler is done with it;
// no edit reaches the object's value or the next response.
func TestResponseHeaderEditsStayInTheirResponse(t *testing.T) {
	cl := &media.ChunkList{BroadcastID: "b1", Version: 4321, Chunks: []media.ChunkRef{{Seq: 0, Duration: time.Second}}}
	c := makeChunks(1)[0]
	h := Handler("/hls", fixedStore{cl: cl, c: c})
	for _, tc := range []struct {
		path, key, want string
	}{
		{"/hls/b1/chunklist.m3u8", VersionHeader, strconv.FormatUint(cl.Version, 10)},
		{"/hls/b1/chunk/0", "Content-Length", strconv.Itoa(len(c.Wire()))},
	} {
		serve := func() http.Header {
			w := &discardWriter{h: make(http.Header)}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, tc.path, nil))
			return w.h
		}
		check := func(step string, got []string, want ...string) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s after %s: %q, want %q", tc.key, step, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s after %s: %q, want %q", tc.key, step, got, want)
				}
			}
		}
		first := serve()
		first.Add(tc.key, "added")
		second := serve()
		second.Add(tc.key, "other")
		check("Add", first[tc.key], tc.want, "added")
		check("Add", second[tc.key], tc.want, "other")
		first.Set(tc.key, "set")
		check("Set", first[tc.key], "set")
		check("Set", serve()[tc.key], tc.want)
	}
	if v, l := cl.VersionValue(), c.LengthValue(); len(v) != 1 || v[0] != strconv.FormatUint(cl.Version, 10) || len(l) != 1 || l[0] != strconv.Itoa(len(c.Wire())) {
		t.Fatalf("object values edited: %q, %q", v, l)
	}
}

// An upstream's longest back-off is relayed as the longest, not as "retry
// now": a hint past the longest time.Duration saturates in the client, and
// rounding it up to seconds must not overflow.
func TestHandlerRelaysSaturatedRetryAfter(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(RetryAfterHeader, "9300000000")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer upstream.Close()
	var rec sleepRecorder
	remote := RemoteStore{Client: &Client{
		BaseURL: upstream.URL + "/hls",
		Retry:   resilience.Policy{MaxAttempts: 1, Sleep: rec.sleep},
	}}
	h := Handler("/hls", remote)
	want := strconv.FormatInt(math.MaxInt64/int64(time.Second)+1, 10)
	for _, path := range []string{"/hls/b1/chunklist.m3u8", "/hls/b1/chunk/0"} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusServiceUnavailable || w.Header().Get(RetryAfterHeader) != want {
			t.Errorf("%s: %d with Retry-After %q, want 503 with %s", path, w.Code, w.Header().Get(RetryAfterHeader), want)
		}
	}
}
