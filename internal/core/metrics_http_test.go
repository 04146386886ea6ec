package core

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/testutil"
)

// TestPlatformMetricsEndpoints scrapes the assembled platform's /metrics and
// /debug/vars endpoints and checks every subsystem registered its instruments
// in the shared registry: RTMP ingest counters, CDN cache counters and the
// per-site breaker gauge, the paper's delay-component histograms, the fleet
// state gauges, and the pubsub hub counters.
func TestPlatformMetricsEndpoints(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})

	resp, err := http.Get(p.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}

	names := make(map[string]bool)
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, h := range snap.Histograms {
		names[h.Name] = true
	}
	for _, want := range []string{
		"rtmp_frames_in_total",
		"rtmp_frames_out_total",
		"rtmp_active_viewers",
		"rtmp_push_latency_seconds",
		"cdn_list_hits_total",
		"cdn_chunk_pulls_total",
		"cdn_breakers_open",
		"cdn_origin_chunks_total",
		metrics.DelayChunking,
		metrics.DelayOriginEdge,
		"fleet_nodes",
		"pubsub_publishes_total",
		"pubsub_channels",
	} {
		if !names[want] {
			t.Errorf("/metrics missing instrument %q", want)
		}
	}

	// The fleet gauges must account for every node: 2 origins + 3 edges,
	// all healthy at boot.
	var healthy int64
	for _, g := range snap.Gauges {
		if g.Name == "fleet_nodes" && g.Labels["state"] == "healthy" {
			healthy = g.Value
		}
	}
	if healthy != 5 {
		t.Errorf("fleet_nodes{state=healthy} = %d, want 5", healthy)
	}

	// The flat expvar-style view serves the same series as float64s.
	vresp, err := http.Get(p.BaseURL() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars status = %d", vresp.StatusCode)
	}
	var vars map[string]float64
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if len(vars) == 0 {
		t.Fatal("/debug/vars is empty")
	}
	found := false
	for k := range vars {
		if k == "pubsub_publishes_total" {
			found = true
		}
	}
	if !found {
		t.Error("/debug/vars missing pubsub_publishes_total")
	}
}

// TestPlatformServesProfiles: the runtime profiles are one request away on
// the platform's own surface — the index, a live-heap profile in text, the
// symbol table — and a name that is no profile is a 404.
func TestPlatformServesProfiles(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	for _, tc := range []struct {
		target, want string
		status       int
	}{
		{"/debug/pprof/", "heap", http.StatusOK},
		{"/debug/pprof/heap?debug=1", "heap profile:", http.StatusOK},
		{"/debug/pprof/symbol", "num_symbols:", http.StatusOK},
		{"/debug/pprof/nosuch", "Unknown profile", http.StatusNotFound},
	} {
		resp, err := http.Get(p.BaseURL() + tc.target)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.status || !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s = %d (%v), want %d with %q in the body", tc.target, resp.StatusCode, err, tc.status, tc.want)
		}
	}
}

// TestPlatformClosesStalledRequest: a client that sends a partial request
// line and then nothing has its connection closed once the header timeout
// passes, rather than holding it for as long as it likes.
func TestPlatformClosesStalledRequest(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	conn, err := net.Dial("tcp", strings.TrimPrefix(p.BaseURL(), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(headerReadTimeout + 5*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("a stalled request's connection after %v: %v, want it closed by the server", time.Since(start).Round(time.Millisecond), err)
	}
}
