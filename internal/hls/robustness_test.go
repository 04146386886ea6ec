package hls

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/resilience"
	"repro/internal/testutil"
)

// sleepRecorder captures the durations a client was told to sleep without
// actually sleeping, so Retry-After handling is observable and instant.
type sleepRecorder struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (r *sleepRecorder) sleep(_ context.Context, d time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sleeps = append(r.sleeps, d)
	return nil
}

func (r *sleepRecorder) all() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.sleeps...)
}

func instantRetry(rec *sleepRecorder) resilience.Policy {
	return resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Sleep: rec.sleep}
}

// shedOnce wraps a handler, answering the first n requests with 503 +
// Retry-After before letting traffic through.
func shedOnce(h http.Handler, n int, retryAfter string) http.Handler {
	var served atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= int64(n) {
			w.Header().Set(RetryAfterHeader, retryAfter)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func TestClientHonorsRetryAfterOn503(t *testing.T) {
	store := newMemStore()
	for _, c := range makeChunks(2) {
		store.add("b1", c)
	}
	srv := httptest.NewServer(shedOnce(Handler("/hls", store), 1, "2"))
	defer srv.Close()

	rec := &sleepRecorder{}
	client := &Client{BaseURL: srv.URL + "/hls", Retry: instantRetry(rec)}
	cl, err := client.FetchChunkList(context.Background(), "b1", 0)
	if err != nil {
		t.Fatalf("FetchChunkList after shed = %v, want success on retry", err)
	}
	if len(cl.Chunks) != 2 {
		t.Fatalf("chunks = %d, want 2", len(cl.Chunks))
	}
	var sawHint bool
	for _, d := range rec.all() {
		if d == 2*time.Second {
			sawHint = true
		}
	}
	if !sawHint {
		t.Fatalf("sleeps = %v, want a 2s Retry-After honor", rec.all())
	}
}

func TestClientHonorsRetryAfterHTTPDateAnd429(t *testing.T) {
	store := newMemStore()
	for _, c := range makeChunks(1) {
		store.add("b1", c)
	}
	date := time.Now().Add(3 * time.Second).UTC().Format(http.TimeFormat)
	var served atomic.Int64
	inner := Handler("/hls", store)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			w.Header().Set(RetryAfterHeader, date)
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	client := &Client{BaseURL: srv.URL + "/hls", Retry: instantRetry(rec)}
	if _, err := client.FetchChunkList(context.Background(), "b1", 0); err != nil {
		t.Fatalf("FetchChunkList = %v", err)
	}
	var sawDate bool
	for _, d := range rec.all() {
		// The date is ~3s out; clock skew between formatting and parsing
		// makes the exact value fuzzy.
		if d > time.Second && d <= 3*time.Second {
			sawDate = true
		}
	}
	if !sawDate {
		t.Fatalf("sleeps = %v, want ~3s from HTTP-date Retry-After", rec.all())
	}
}

// A day-long hint and one whose seconds overflow a time.Duration both wait
// exactly the cap: the overflow must not wrap into "retry now".
func TestClientCapsHostileRetryAfter(t *testing.T) {
	store := newMemStore()
	for _, c := range makeChunks(1) {
		store.add("b1", c)
	}
	for _, hint := range []string{"86400", "9300000000"} {
		srv := httptest.NewServer(shedOnce(Handler("/hls", store), 1, hint))
		rec := &sleepRecorder{}
		client := &Client{
			BaseURL:       srv.URL + "/hls",
			Retry:         instantRetry(rec),
			RetryAfterCap: 4 * time.Second,
		}
		_, err := client.FetchChunkList(context.Background(), "b1", 0)
		srv.Close()
		if err != nil {
			t.Fatalf("Retry-After %s: FetchChunkList = %v", hint, err)
		}
		sleeps := rec.all()
		if len(sleeps) == 0 || sleeps[0] != 4*time.Second {
			t.Fatalf("Retry-After %s: sleeps %v, want the 4s cap first", hint, sleeps)
		}
		for _, d := range sleeps {
			if d > 4*time.Second {
				t.Fatalf("Retry-After %s: slept %v, beyond the 4s cap", hint, d)
			}
		}
	}
}

func TestShedIsTerminalWhenPersistent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(RetryAfterHeader, "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	rec := &sleepRecorder{}
	client := &Client{BaseURL: srv.URL + "/hls", Retry: instantRetry(rec)}
	_, err := client.FetchChunkList(context.Background(), "b1", 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != time.Second {
		t.Fatalf("err = %#v, want OverloadedError carrying the 1s hint", err)
	}
}

// overloadedStore makes the handler side of shedding observable: every call
// reports an OverloadedError, which must surface as 503 + Retry-After.
type overloadedStore struct{ retryAfter time.Duration }

func (s *overloadedStore) ChunkList(context.Context, string) (*media.ChunkList, error) {
	return nil, &OverloadedError{RetryAfter: s.retryAfter}
}

func (s *overloadedStore) Chunk(context.Context, string, uint64) (*media.Chunk, error) {
	return nil, &OverloadedError{RetryAfter: s.retryAfter}
}

func TestHandlerMapsOverloadTo503RetryAfter(t *testing.T) {
	srv := httptest.NewServer(Handler("/hls", &overloadedStore{retryAfter: 2500 * time.Millisecond}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/hls/b1/chunklist.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// 2.5s must round up: a client sleeping 2s would come back early.
	if got := resp.Header.Get(RetryAfterHeader); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}
}

// drainingStore flags itself as draining so the handler decorates responses.
type drainingStore struct {
	Store
	draining atomic.Bool
}

func (s *drainingStore) Draining() bool { return s.draining.Load() }

func TestHandlerSetsDrainHeaderAndClientFiresHint(t *testing.T) {
	mem := newMemStore()
	for _, c := range makeChunks(2) {
		mem.add("b1", c)
	}
	ds := &drainingStore{Store: mem}
	srv := httptest.NewServer(Handler("/hls", ds))
	defer srv.Close()

	var hints atomic.Int64
	client := &Client{BaseURL: srv.URL + "/hls", OnDrainHint: func() { hints.Add(1) }}
	if _, err := client.FetchChunkList(context.Background(), "b1", 0); err != nil {
		t.Fatal(err)
	}
	if hints.Load() != 0 {
		t.Fatalf("drain hint fired while not draining")
	}
	ds.draining.Store(true)
	if _, err := client.FetchChunkList(context.Background(), "b1", 0); err != nil {
		t.Fatal(err)
	}
	if hints.Load() == 0 {
		t.Fatalf("drain hint never fired on a draining edge")
	}
}

// edgePair spins up two HLS servers over one shared store — stand-ins for
// sibling edges caching the same broadcast — plus a resolver that hands out
// whichever is currently preferred.
type edgePair struct {
	store    *memStore
	a, b     *httptest.Server
	preferB  atomic.Bool
	resolves atomic.Int64
}

func newEdgePair(t *testing.T, wrapA func(http.Handler) http.Handler) *edgePair {
	t.Helper()
	p := &edgePair{store: newMemStore()}
	ha := http.Handler(Handler("/hls", p.store))
	if wrapA != nil {
		ha = wrapA(ha)
	}
	p.a = httptest.NewServer(ha)
	p.b = httptest.NewServer(Handler("/hls", p.store))
	t.Cleanup(p.a.Close)
	t.Cleanup(p.b.Close)
	return p
}

func (p *edgePair) resolve(context.Context) (string, error) {
	p.resolves.Add(1)
	if p.preferB.Load() {
		return p.b.URL + "/hls", nil
	}
	return p.a.URL + "/hls", nil
}

func fastFailoverCfg(p *edgePair, onChunk func(ChunkEvent)) FailoverConfig {
	return FailoverConfig{
		Resolve: p.resolve,
		NewClient: func(baseURL string) *Client {
			return &Client{
				BaseURL: baseURL,
				Retry:   resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
			}
		},
		Poller:  PollerConfig{Interval: 5 * time.Millisecond, OnChunk: onChunk},
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}
}

func TestFailoverPollerResumesOnSiblingEdge(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Edge A starts healthy, then turns into a hard 500 — the viewer must
	// migrate to edge B and resume from the last delivered sequence.
	var broken atomic.Bool
	p := newEdgePair(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if broken.Load() {
				http.Error(w, "edge down", http.StatusInternalServerError)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	chunks := makeChunks(10)
	for _, c := range chunks[:4] {
		p.store.add("b1", c)
	}

	var mu sync.Mutex
	var seqs []uint64
	fp := NewFailoverPoller("b1", fastFailoverCfg(p, func(ev ChunkEvent) {
		mu.Lock()
		seqs = append(seqs, ev.Ref.Seq)
		n := len(seqs)
		mu.Unlock()
		if n == 3 {
			broken.Store(true)
			p.preferB.Store(true)
		}
	}))

	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { done <- fp.Run(ctx) }()

	// Keep feeding the shared store while the viewer migrates, then end.
	for _, c := range chunks[4:] {
		time.Sleep(10 * time.Millisecond)
		p.store.add("b1", c)
	}
	time.Sleep(20 * time.Millisecond)
	p.store.end("b1")

	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want clean end after failover", err)
	}
	if fp.Failovers() < 1 {
		t.Fatalf("Failovers = %d, want ≥ 1", fp.Failovers())
	}
	if fp.BaseURL() != p.b.URL+"/hls" {
		t.Fatalf("BaseURL = %q, want the sibling edge %q", fp.BaseURL(), p.b.URL+"/hls")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("seq %d after %d: duplicate or reordered across failover", seqs[i], seqs[i-1])
		}
	}
	// Everything was in the shared store, so no gaps either: full coverage.
	if len(seqs) != len(chunks) {
		t.Fatalf("delivered %d chunks, want %d (seqs=%v)", len(seqs), len(chunks), seqs)
	}
}

func TestFailoverPollerTreatsShedAsFailover(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Edge A sheds every request; the viewer must move to B immediately.
	p := newEdgePair(t, func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(RetryAfterHeader, "0")
			w.WriteHeader(http.StatusServiceUnavailable)
		})
	})
	for _, c := range makeChunks(3) {
		p.store.add("b1", c)
	}
	p.store.end("b1")

	var got atomic.Int64
	cfg := fastFailoverCfg(p, func(ChunkEvent) { got.Add(1) })
	fp := NewFailoverPoller("b1", cfg)
	// Once A sheds, prefer B on the re-resolve (the control plane would
	// steer new lookups away from an overloaded edge the same way).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fp.Run(ctx) }()
	go func() {
		for p.resolves.Load() < 1 {
			time.Sleep(time.Millisecond)
		}
		p.preferB.Store(true)
	}()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want clean end via sibling edge", err)
	}
	if fp.Overloads() < 1 {
		t.Fatalf("Overloads = %d, want ≥ 1", fp.Overloads())
	}
	if fp.Failovers() < 1 {
		t.Fatalf("Failovers = %d, want ≥ 1", fp.Failovers())
	}
	if got.Load() != 3 {
		t.Fatalf("chunks delivered = %d, want 3", got.Load())
	}
}

func TestFailoverPollerMigratesOffDrainingEdge(t *testing.T) {
	testutil.CheckGoroutines(t)
	mem := newMemStore()
	ds := &drainingStore{Store: mem}
	p := &edgePair{store: mem}
	p.a = httptest.NewServer(Handler("/hls", ds))
	p.b = httptest.NewServer(Handler("/hls", mem))
	t.Cleanup(p.a.Close)
	t.Cleanup(p.b.Close)

	chunks := makeChunks(6)
	for _, c := range chunks[:2] {
		mem.add("b1", c)
	}

	var mu sync.Mutex
	var seqs []uint64
	fp := NewFailoverPoller("b1", fastFailoverCfg(p, func(ev ChunkEvent) {
		mu.Lock()
		seqs = append(seqs, ev.Ref.Seq)
		n := len(seqs)
		mu.Unlock()
		if n == 2 {
			// Drain edge A; the hint header must push the viewer to B.
			ds.draining.Store(true)
			p.preferB.Store(true)
		}
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- fp.Run(ctx) }()

	for _, c := range chunks[2:] {
		time.Sleep(10 * time.Millisecond)
		mem.add("b1", c)
	}
	time.Sleep(20 * time.Millisecond)
	mem.end("b1")

	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want clean end after drain migration", err)
	}
	if fp.DrainHints() < 1 {
		t.Fatalf("DrainHints = %d, want ≥ 1", fp.DrainHints())
	}
	if fp.Failovers() < 1 {
		t.Fatalf("Failovers = %d, want ≥ 1 (viewer migrated)", fp.Failovers())
	}
	if fp.BaseURL() != p.b.URL+"/hls" {
		t.Fatalf("BaseURL = %q, want drained viewer on %q", fp.BaseURL(), p.b.URL+"/hls")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != len(chunks) {
		t.Fatalf("delivered %d chunks, want %d", len(seqs), len(chunks))
	}
}

func TestFailoverPollerGivesUpWhenBroadcastGone(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := newEdgePair(t, nil) // store is empty: every edge 404s
	cfg := fastFailoverCfg(p, nil)
	fp := NewFailoverPoller("missing", cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fp.Run(ctx)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Run = %v, want ErrNotFound after consecutive edges agree", err)
	}
	// One retry round at most: two edges agreeing is terminal, not budget
	// exhaustion.
	if fp.Failovers() > 2 {
		t.Fatalf("Failovers = %d, want ≤ 2 for a missing broadcast", fp.Failovers())
	}
}

func TestFailoverPollerExhaustsBudget(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Every edge hard-fails; the poller must stop at MaxFailovers and
	// surface the last error rather than looping forever.
	p := newEdgePair(t, nil)
	srvErr := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	p.a.Config.Handler = srvErr
	p.b.Config.Handler = srvErr

	cfg := fastFailoverCfg(p, nil)
	cfg.FailureThreshold = 1
	cfg.MaxFailovers = 2
	fp := NewFailoverPoller("b1", cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fp.Run(ctx)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want terminal upstream error within budget", err)
	}
	if fp.Failovers() != 2 {
		t.Fatalf("Failovers = %d, want exactly MaxFailovers=2", fp.Failovers())
	}
}

// TestFailoverPollerRetriesTransientResolve is the regression test for the
// bug where a control-plane resolve failure consumed the failover budget:
// with MaxFailovers=1 and five consecutive resolve failures before the first
// success, the old loop died with "failover budget exhausted" before ever
// reaching an edge. Resolve retries must ride their own capped backoff,
// leave the budget untouched, and count zero failovers.
func TestFailoverPollerRetriesTransientResolve(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := newEdgePair(t, nil)
	for _, c := range makeChunks(3) {
		p.store.add("b1", c)
	}
	p.store.end("b1")

	var calls atomic.Int64
	cfg := fastFailoverCfg(p, nil)
	cfg.MaxFailovers = 1
	cfg.Resolve = func(ctx context.Context) (string, error) {
		if calls.Add(1) <= 5 {
			return "", errors.New("control plane down")
		}
		return p.resolve(ctx)
	}
	fp := NewFailoverPoller("b1", cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fp.Run(ctx); err != nil {
		t.Fatalf("Run = %v, want clean end despite transient resolve failures", err)
	}
	if fp.Failovers() != 0 {
		t.Fatalf("Failovers = %d, want 0: resolve retries must not consume the budget", fp.Failovers())
	}
	if fp.ResolveRetries() != 5 {
		t.Fatalf("ResolveRetries = %d, want 5", fp.ResolveRetries())
	}
	if fp.LastSeq() == 0 {
		t.Fatal("no chunks delivered")
	}
}

// TestFailoverPollerResolveRetriesAreBounded: with no cached edge and a
// control plane that never answers, the session must stop after
// ResolveRetries attempts — capped backoff, not an infinite loop.
func TestFailoverPollerResolveRetriesAreBounded(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := newEdgePair(t, nil)
	var calls atomic.Int64
	cfg := fastFailoverCfg(p, nil)
	cfg.ResolveRetries = 4
	cfg.Resolve = func(ctx context.Context) (string, error) {
		calls.Add(1)
		return "", errors.New("control plane down")
	}
	fp := NewFailoverPoller("b1", cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fp.Run(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want the resolve error after bounded retries", err)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("resolve attempts = %d, want exactly ResolveRetries=4", got)
	}
}

// TestFailoverPollerFallsBackToCachedEdgeDuringOutage: a session that has
// already resolved once keeps streaming from its last-known edge when a
// mid-session failover coincides with a control outage.
func TestFailoverPollerFallsBackToCachedEdgeDuringOutage(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Edge A sheds a burst of polls mid-stream (outlasting the client's
	// internal retry budget), forcing a failover round while the control
	// plane is down: the session must fall back to the cached mapping for A
	// and finish the stream there.
	var shed atomic.Int64
	p := newEdgePair(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, ".m3u8") && shed.Load() > 0 {
				shed.Add(-1)
				w.Header().Set(RetryAfterHeader, "0")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	chunks := makeChunks(6)
	for _, c := range chunks[:3] {
		p.store.add("b1", c)
	}

	var controlDown atomic.Bool
	var mu sync.Mutex
	var seqs []uint64
	cfg := fastFailoverCfg(p, func(ev ChunkEvent) {
		mu.Lock()
		seqs = append(seqs, ev.Ref.Seq)
		n := len(seqs)
		mu.Unlock()
		if n == 2 {
			controlDown.Store(true)
			shed.Store(3)
		}
	})
	inner := cfg.Resolve
	cfg.Resolve = func(ctx context.Context) (string, error) {
		if controlDown.Load() {
			return "", errors.New("control plane down")
		}
		return inner(ctx)
	}
	fp := NewFailoverPoller("b1", cfg)

	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { done <- fp.Run(ctx) }()

	for _, c := range chunks[3:] {
		time.Sleep(10 * time.Millisecond)
		p.store.add("b1", c)
	}
	time.Sleep(20 * time.Millisecond)
	p.store.end("b1")

	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want clean end via cached-edge fallback", err)
	}
	if fp.StaleResolves() < 1 {
		t.Fatalf("StaleResolves = %d, want ≥ 1", fp.StaleResolves())
	}
	if fp.BaseURL() != p.a.URL+"/hls" {
		t.Fatalf("BaseURL = %q, want the cached edge %q", fp.BaseURL(), p.a.URL+"/hls")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != len(chunks) {
		t.Fatalf("delivered %d chunks, want %d (seqs=%v)", len(seqs), len(chunks), seqs)
	}
}

// TestFailoverPollerWaitsThroughBackoffSleep: every wait of the session goes
// through its Backoff.Sleep — here two resolve retries, then the waits
// before two failover rounds against edges that always fail.
func TestFailoverPollerWaitsThroughBackoffSleep(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := newEdgePair(t, nil)
	srvErr := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	p.a.Config.Handler = srvErr
	p.b.Config.Handler = srvErr

	rec := &sleepRecorder{}
	var calls atomic.Int64
	cfg := fastFailoverCfg(p, nil)
	cfg.FailureThreshold = 1
	cfg.MaxFailovers = 2
	cfg.Backoff = resilience.Policy{BaseDelay: 3 * time.Millisecond, MaxDelay: 10 * time.Millisecond, Jitter: -1, Sleep: rec.sleep}
	cfg.Resolve = func(ctx context.Context) (string, error) {
		if calls.Add(1) <= 2 {
			return "", errors.New("control plane down")
		}
		return p.resolve(ctx)
	}
	fp := NewFailoverPoller("b1", cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fp.Run(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want terminal upstream error within budget", err)
	}
	d := cfg.Backoff.Delay
	want := []time.Duration{d(0), d(1), d(0), d(1)}
	if got := rec.all(); !slices.Equal(got, want) {
		t.Fatalf("recorded waits %v, want resolve retries then failover rounds %v", got, want)
	}
}

// TestFailoverPollerStopsOnPermanentResolve: an authoritative rejection from
// a healthy control plane must surface immediately, not retry.
func TestFailoverPollerStopsOnPermanentResolve(t *testing.T) {
	testutil.CheckGoroutines(t)
	terminal := errors.New("no such broadcast")
	var calls atomic.Int64
	fp := NewFailoverPoller("b1", FailoverConfig{
		Resolve: func(ctx context.Context) (string, error) {
			calls.Add(1)
			return "", resilience.Permanent(terminal)
		},
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fp.Run(ctx); !errors.Is(err, terminal) {
		t.Fatalf("Run = %v, want the permanent resolve error", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("resolve attempts = %d, want 1 for a permanent error", calls.Load())
	}
}

// quotaHintErr mimics control.QuotaError over the resolve path: a transient
// rejection carrying a server-computed Retry-After.
type quotaHintErr struct{ hint time.Duration }

func (e *quotaHintErr) Error() string                 { return "quota exceeded" }
func (e *quotaHintErr) RetryAfterHint() time.Duration { return e.hint }

// TestFailoverResolveHonorsRetryAfterHint: a 429 resolve rejection with a
// Retry-After longer than the backoff delay must pace the retry on the
// server's hint — retrying sooner than the quota window reopens is wasted
// load.
func TestFailoverResolveHonorsRetryAfterHint(t *testing.T) {
	var calls atomic.Int64
	fp := NewFailoverPoller("b1", FailoverConfig{
		Resolve: func(ctx context.Context) (string, error) {
			if calls.Add(1) == 1 {
				return "", &quotaHintErr{hint: 60 * time.Millisecond}
			}
			return "http://edge-1/hls", nil
		},
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	start := time.Now()
	url, err := fp.resolveEdge(context.Background())
	if err != nil || url != "http://edge-1/hls" {
		t.Fatalf("resolveEdge = (%q, %v)", url, err)
	}
	if elapsed := time.Since(start); elapsed < 55*time.Millisecond {
		t.Fatalf("retry after %v, want the 60ms Retry-After hint honored", elapsed)
	}
	if calls.Load() != 2 {
		t.Fatalf("resolve attempts = %d, want 2", calls.Load())
	}
}

// TestFailoverResolveHintKeepsSessionCancelable: even a huge hint (a spent
// daily quota) leaves the session responsive to cancellation — the sleep is
// context-bounded, and the hint itself is capped at maxRetryAfterHint.
func TestFailoverResolveHintKeepsSessionCancelable(t *testing.T) {
	fp := NewFailoverPoller("b1", FailoverConfig{
		Resolve: func(ctx context.Context) (string, error) {
			return "", &quotaHintErr{hint: 10 * time.Hour}
		},
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := fp.resolveEdge(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("resolveEdge = %v, want DeadlineExceeded", err)
	}
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond || elapsed > maxRetryAfterHint {
		t.Fatalf("canceled after %v, want ~80ms (sleeping on the capped hint)", elapsed)
	}
}

// TestClientKeepsConnectionAcrossRefusals: a shed (503) or missing (404)
// reply carries an http.Error body; the client reads it out before closing,
// so the retry and the next fetch reuse the connection instead of redialing an
// edge that has just said it is overloaded.
func TestClientKeepsConnectionAcrossRefusals(t *testing.T) {
	store := newMemStore()
	store.add("b1", makeChunks(1)[0])
	var served atomic.Int64
	inner := Handler("/hls", store)
	srv, conns := testutil.CountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 1 {
			http.Error(w, "edge overloaded, retry shortly", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c := &Client{BaseURL: srv.URL + "/hls", HTTPClient: hc, Retry: instantRetry(&sleepRecorder{})}
	ctx := context.Background()

	if cl, err := c.FetchChunkList(ctx, "b1", 0); err != nil || len(cl.Chunks) != 1 {
		t.Fatalf("poll answered 503 then 200: %v", err)
	}
	if _, err := c.FetchChunk(ctx, "b1", 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing chunk: %v, want ErrNotFound", err)
	}
	if _, err := c.FetchChunk(ctx, "b1", 0); err != nil {
		t.Fatal(err)
	}
	if got := served.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want 4", got)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("four sequential requests opened %d connections, want 1", n)
	}
}
