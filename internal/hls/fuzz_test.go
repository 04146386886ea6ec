package hls

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// FuzzHLSHandler throws arbitrary requests at the handler over a small
// store: it must never panic, answer only 200/304/400/404/405, serve a chunk
// as exactly the store's sealed bytes under a Content-Length of their length
// and a chunklist as exactly its rendered form, and treat a have_version it cannot read as absent — a full 200.
func FuzzHLSHandler(f *testing.F) {
	store := newMemStore()
	for _, c := range makeChunks(3) {
		store.add("b1", c)
	}
	list, _ := store.ChunkList(context.Background(), "b1")
	// A 304 needs a have_version pair that reads as the list's version.
	current := regexp.MustCompile(fmt.Sprintf(`(^|&)have_version=0*%d(&|$)`, list.Version))
	h := Handler("/hls", store)

	f.Add("GET", "/hls/b1/chunklist.m3u8", "")
	f.Add("GET", "/hls/b1/chunklist.m3u8", fmt.Sprintf("x=1&have_version=%d", list.Version))
	f.Add("GET", "/hls/b1/chunklist.m3u8", "have_version=zz&have_version=3")
	f.Add("GET", "/hls/b1/chunklist.m3u8", "have_version=%33")
	f.Add("GET", "/hls/b1/chunk/0", "")
	f.Add("GET", "/hls/b1/chunk/99", "have_version=3")
	f.Add("GET", "/hls/b1/chunk/-1", "")
	f.Add("GET", "/hls/b1/chunk/1/2", "")
	f.Add("GET", "/hls/nope/chunklist.m3u8", "")
	f.Add("GET", "/hls/", "")
	f.Add("GET", "/elsewhere", "")
	f.Add("POST", "/hls/b1/chunk/0", "")
	f.Fuzz(func(t *testing.T, method, path, query string) {
		req := &http.Request{Method: method, URL: &url.URL{Path: path, RawQuery: query}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusNotModified, http.StatusBadRequest, http.StatusNotFound:
			if method != http.MethodGet {
				t.Fatalf("%s %q: status %d, want 405", method, path, rec.Code)
			}
		case http.StatusMethodNotAllowed:
			if method == http.MethodGet {
				t.Fatalf("GET %q: 405", path)
			}
		default:
			t.Fatalf("%s %q?%q: status %d", method, path, query, rec.Code)
		}

		if path == "/hls/b1/chunklist.m3u8" && method == http.MethodGet {
			switch {
			case rec.Code == http.StatusNotModified && current.MatchString(query) && rec.Body.Len() == 0:
			case rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), list.Marshal()):
			default:
				t.Fatalf("chunklist ?%q: status %d with %d body bytes", query, rec.Code, rec.Body.Len())
			}
			if got := rec.Header().Get(VersionHeader); got != strconv.FormatUint(list.Version, 10) {
				t.Fatalf("chunklist ?%q: version header %q, want %d", query, got, list.Version)
			}
		}
		if rec.Code == http.StatusOK && rec.Header().Get("Content-Type") == contentTypeChunk[0] {
			seq, err := strconv.ParseUint(path[strings.LastIndexByte(path, '/')+1:], 10, 64)
			if err != nil {
				t.Fatalf("%q served a chunk", path)
			}
			want, err := store.Chunk(context.Background(), "b1", seq)
			if err != nil || !bytes.Equal(rec.Body.Bytes(), want.Wire()) {
				t.Fatalf("%q: body is not chunk %d's sealed bytes (%v)", path, seq, err)
			}
			if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want.Wire())) {
				t.Fatalf("%q: Content-Length %q, want %d", path, got, len(want.Wire()))
			}
		}
	})
}
