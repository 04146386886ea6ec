package core

import (
	"net/http"
	"net/http/pprof"
	"net/url"
	"path"
	"strings"

	"repro/internal/resilience"
)

// surface is the platform's HTTP handler: the control API under /api/, the
// message channel under /channel/, each edge's HLS under /edge/<site>/hls/,
// /fleet, /metrics and /debug/vars, and the runtime profiles under
// /debug/pprof/. It answers as an http.ServeMux with
// those patterns would — a path that is not canonical is redirected to its
// cleaned form, a prefix named without its trailing slash is redirected to
// it, and anything else off the surface is a 404 — without the mux's
// allocations on every request. Segments are compared unescaped
// (resilience.CutSegment).
type surface struct {
	api, channel, fleet, metrics, vars http.Handler
	edges                              map[string]http.Handler // site ID → the edge's HLS handler, built at Start
}

//livesim:hotpath TestPlatformDispatchAllocs
func (s *surface) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.RequestURI == "*" {
		refuseAsterisk(w, r)
		return
	}
	escaped := r.URL.EscapedPath()
	clean := escaped
	// As with ServeMux, a CONNECT request's path is not canonicalized.
	if r.Method != http.MethodConnect {
		clean = cleanPath(escaped)
	}
	h, bare := s.route(clean)
	switch {
	case bare:
		redirect(w, r, cleanPath(r.URL.Path), true)
	case clean != escaped:
		redirect(w, r, clean, false)
	case h != nil:
		h.ServeHTTP(w, r)
	default:
		http.NotFound(w, r)
	}
}

// route returns the handler serving an escaped path, or reports that the
// path is one of the prefixes without its trailing slash (bare).
//
//livesim:hotpath TestPlatformDispatchAllocs
func (s *surface) route(p string) (h http.Handler, bare bool) {
	if p == "" || p[0] != '/' {
		return nil, false
	}
	first, rest := resilience.CutSegment(p)
	switch first {
	case "api":
		return under(s.api, rest)
	case "channel":
		return under(s.channel, rest)
	case "fleet":
		return only(s.fleet, rest)
	case "metrics":
		return only(s.metrics, rest)
	case "debug":
		if rest != "" {
			switch seg, rest := resilience.CutSegment(rest); seg {
			case "vars":
				return only(s.vars, rest)
			case "pprof":
				return under(profiles, rest)
			}
		}
	case "edge":
		if rest == "" {
			return nil, false
		}
		site, rest := resilience.CutSegment(rest)
		if h := s.edges[site]; h != nil && rest != "" {
			if seg, rest := resilience.CutSegment(rest); seg == "hls" {
				return under(h, rest)
			}
		}
	}
	return nil, false
}

// profiles serves /debug/pprof/ as net/http/pprof's own registration does,
// without going through http.DefaultServeMux: the profiles that take a
// duration or read the symbol table by name, every other name through the
// index (which answers /debug/pprof/ itself with the list of profiles).
var profiles = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
})

// under serves a prefix pattern's subtree: rest is what follows the prefix's
// last segment, so "" is the prefix without its trailing slash.
func under(h http.Handler, rest string) (http.Handler, bool) {
	if rest == "" {
		return nil, true
	}
	return h, false
}

// only serves an exact pattern: nothing may follow it.
func only(h http.Handler, rest string) (http.Handler, bool) {
	if rest != "" {
		return nil, false
	}
	return h, false
}

// cleanPath is ServeMux's canonical form of a path: rooted, without . and ..
// elements or repeated slashes, and with a trailing slash kept. path.Clean
// allocates nothing on a path that is already clean.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		if len(p) == len(np)+1 && p[:len(np)] == np {
			return p
		}
		np += "/"
	}
	return np
}

// redirect answers 301 to p (with a slash appended) and the request's query,
// the redirect ServeMux builds.
func redirect(w http.ResponseWriter, r *http.Request, p string, slash bool) {
	if slash {
		p += "/"
	}
	u := &url.URL{Path: p, RawQuery: r.URL.RawQuery}
	http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
}

// refuseAsterisk answers the server-wide target "*" as ServeMux does: 400.
// (net/http answers OPTIONS * before any handler sees it.)
func refuseAsterisk(w http.ResponseWriter, r *http.Request) {
	if r.ProtoAtLeast(1, 1) {
		w.Header().Set("Connection", "close")
	}
	w.WriteHeader(http.StatusBadRequest)
}
