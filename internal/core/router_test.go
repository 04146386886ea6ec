package core

import (
	"net/http"
	"testing"
	"time"
)

// TestPlatformRouteAnswers pins what the platform's HTTP surface answers for
// requests that are not a plain call of one of its endpoints: the status, the
// Allow header of a 405 and the Location of a redirect. A path that is not
// canonical is redirected to its cleaned form, a prefix named without its
// trailing slash is redirected to it, and everything else off the surface is
// a 404. Segments are compared unescaped, but an escaped slash stays inside
// its segment.
func TestPlatformRouteAnswers(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	edge := "/edge/" + p.Topo.Edges[0].Site().ID + "/hls"
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	defer hc.CloseIdleConnections()
	for _, tc := range []struct {
		method, target string
		status         int
		allow, loc     string
	}{
		{"GET", "//api/global", http.StatusMovedPermanently, "", "/api/global"},
		{"GET", "/api/../api/global", http.StatusMovedPermanently, "", "/api/global"},
		{"GET", "/api/./global?x=1", http.StatusMovedPermanently, "", "/api/global?x=1"},
		{"GET", "/api/broadcasts//edge", http.StatusMovedPermanently, "", "/api/broadcasts/edge"},
		{"GET", "/nothing//here", http.StatusMovedPermanently, "", "/nothing/here"},
		{"GET", "/api", http.StatusMovedPermanently, "", "/api/"},
		{"GET", "//api", http.StatusMovedPermanently, "", "/api/"},
		{"GET", "/api?x=1", http.StatusMovedPermanently, "", "/api/?x=1"},
		{"POST", "/channel", http.StatusMovedPermanently, "", "/channel/"},
		{"GET", edge, http.StatusMovedPermanently, "", edge + "/"},
		{"GET", "/ap%69", http.StatusMovedPermanently, "", "/api/"},
		{"GET", "/api/global", http.StatusOK, "", ""},
		{"HEAD", "/api/global", http.StatusOK, "", ""},
		{"GET", "/ap%69/global", http.StatusOK, "", ""},
		{"DELETE", "/api/global", http.StatusMethodNotAllowed, "GET, HEAD", ""},
		{"GET", "/api/broadcasts/x/join", http.StatusMethodNotAllowed, "POST", ""},
		{"GET", "/api/broadcasts/a%2Fb", http.StatusNotFound, "", ""},
		{"POST", "/api/broadcasts/a%2Fend", http.StatusMethodNotAllowed, "GET, HEAD", ""},
		{"GET", "/api/", http.StatusNotFound, "", ""},
		{"GET", "/api/global/", http.StatusNotFound, "", ""},
		{"GET", "/channel/", http.StatusNotFound, "", ""},
		{"GET", edge + "/", http.StatusNotFound, "", ""},
		{"GET", "/edge/nosuch/hls", http.StatusNotFound, "", ""},
		{"GET", "/edge/nosuch/hls/b/chunklist.m3u8", http.StatusNotFound, "", ""},
		{"GET", "/edge/", http.StatusNotFound, "", ""},
		{"GET", "/fleet", http.StatusOK, "", ""},
		{"GET", "/fleet/", http.StatusNotFound, "", ""},
		{"GET", "/metrics", http.StatusOK, "", ""},
		{"GET", "/debug/vars", http.StatusOK, "", ""},
		{"GET", "/debug", http.StatusNotFound, "", ""},
		{"GET", "/debug/vars/", http.StatusNotFound, "", ""},
		{"GET", "/debug/pprof", http.StatusMovedPermanently, "", "/debug/pprof/"},
		{"GET", "/debug/pprof/", http.StatusOK, "", ""},
		{"GET", "/debug/pprof/goroutine?debug=1", http.StatusOK, "", ""},
		{"GET", "/", http.StatusNotFound, "", ""},
		{"GET", "/apix/global", http.StatusNotFound, "", ""},
	} {
		req, err := http.NewRequest(tc.method, p.BaseURL()+tc.target, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if allow, loc := resp.Header.Get("Allow"), resp.Header.Get("Location"); resp.StatusCode != tc.status || allow != tc.allow || loc != tc.loc {
			t.Errorf("%s %s = %d Allow %q Location %q, want %d Allow %q Location %q",
				tc.method, tc.target, resp.StatusCode, allow, loc, tc.status, tc.allow, tc.loc)
		}
	}
}
