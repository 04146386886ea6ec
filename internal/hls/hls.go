// Package hls implements the HLS-like half of the delivery path (§4.1):
// chunklists served over HTTP, binary chunk downloads, and the viewer-side
// periodic poller. HLS trades latency for scalability — viewers poll instead
// of holding per-viewer server state, which is why Periscope routes every
// viewer beyond the first ~100 here.
package hls

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// ErrNotFound is returned by stores for unknown broadcasts or chunks.
var ErrNotFound = errors.New("hls: not found")

// ErrOverloaded reports that the server shed the request (HTTP 503/429) —
// the admission-control answer an edge over its inflight cap gives instead
// of queueing unboundedly. Clients treat it as a failover trigger.
var ErrOverloaded = errors.New("hls: overloaded")

// OverloadedError carries the server's Retry-After hint alongside
// ErrOverloaded; errors.Is(err, ErrOverloaded) matches it.
type OverloadedError struct {
	// RetryAfter is how long the server asked us to back off; zero when
	// the response carried no (parsable) Retry-After header.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadedError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("hls: overloaded (retry after %s)", e.RetryAfter)
	}
	return "hls: overloaded"
}

// Is matches ErrOverloaded.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Drainer is implemented by stores that can be gracefully drained: the
// cdn.Edge and, in this package's tests, drainingStore. While draining, the
// Handler stamps every response with DrainingHeader so attached viewers
// migrate to a sibling edge before shutdown.
type Drainer interface {
	Draining() bool
}

// DrainingHeader marks responses from a draining edge.
const DrainingHeader = "X-Edge-Draining"

// RetryAfterHeader is the standard backoff hint on 503/429 responses.
const RetryAfterHeader = "Retry-After"

// Store supplies chunklists and chunks for serving. Implementations are the
// CDN origin (authoritative) and edge caches.
type Store interface {
	// ChunkList returns the current chunklist for a broadcast.
	ChunkList(ctx context.Context, broadcastID string) (*media.ChunkList, error)
	// Chunk returns one chunk of a broadcast.
	Chunk(ctx context.Context, broadcastID string, seq uint64) (*media.Chunk, error)
}

// RawChunkList and RawLister were the second, pre-marshalled list path. A
// *media.ChunkList now caches its own bytes (Marshal renders once), so Store
// is the only path and nothing in this module implements or calls RawLister;
// the declarations stay only because the frozen bench/ module names them, and
// go with its next revision.
type RawChunkList struct {
	Version uint64
	Data    []byte
}

// RawLister: see RawChunkList.
type RawLister interface {
	ChunkListRaw(ctx context.Context, broadcastID string) (RawChunkList, error)
}

// VersionHeader carries the chunklist version so pollers and edges can
// detect staleness without parsing.
const VersionHeader = "X-Chunklist-Version"

// Ready-made header values: assigning one directly (every key here is
// already canonical) spares the serve paths the []string http.Header.Set
// builds on every response. The per-object values — a list's version, a
// chunk's length — are built once on the list or chunk they describe
// (media.ChunkList.VersionValue, media.Chunk.LengthValue).
var (
	contentTypeM3U8  = []string{"application/vnd.apple.mpegurl"}
	contentTypeChunk = []string{"application/octet-stream"}
	drainingValue    = []string{"1"}
)

// Handler serves the HLS HTTP surface over a Store:
//
//	GET {prefix}/{broadcastID}/chunklist.m3u8
//	GET {prefix}/{broadcastID}/chunk/{seq}
//
// The prefix must not end in '/'.
func Handler(prefix string, store Store) http.Handler {
	root := prefix + "/"
	drainer, _ := store.(Drainer)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if drainer != nil && drainer.Draining() {
			w.Header()[DrainingHeader] = drainingValue
		}
		// Routing cuts substrings of the path; it allocates nothing.
		rest, ok := strings.CutPrefix(r.URL.Path, root)
		if !ok {
			http.NotFound(w, r)
			return
		}
		id, tail, _ := strings.Cut(rest, "/")
		if tail == "chunklist.m3u8" {
			serveChunkList(w, r, store, id)
			return
		}
		seqStr, ok := strings.CutPrefix(tail, "chunk/")
		if !ok || strings.Contains(seqStr, "/") {
			http.NotFound(w, r)
			return
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			http.Error(w, "bad chunk seq", http.StatusBadRequest)
			return
		}
		serveChunk(w, r, store, id, seq)
	})
}

// haveVersion reads the have_version query parameter straight out of the raw
// query — r.URL.Query() would build a map and a slice per poll to find it.
// The value is a decimal number, so no unescaping applies; anything else is
// treated as absent, which only costs the poller a full 200.
func haveVersion(rawQuery string) (uint64, bool) {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if v, ok := strings.CutPrefix(pair, "have_version="); ok {
			have, err := strconv.ParseUint(v, 10, 64)
			return have, err == nil
		}
	}
	return 0, false
}

// writeStoreError maps store errors onto the HTTP surface: not-found → 404,
// shed → 503 + Retry-After (the load-shedding contract viewers key off),
// everything else → 500.
func writeStoreError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		wait := time.Second
		var oe *OverloadedError
		if errors.As(err, &oe) {
			wait = oe.RetryAfter
		}
		w.Header().Set(RetryAfterHeader, resilience.FormatRetryAfter(wait))
	}
	http.Error(w, err.Error(), status)
}

// serveChunkList answers the steady stream of viewer polls — the edge's
// hottest HTTP path (one hit per viewer per chunk interval).
//
//livesim:hotpath TestServeChunkListAllocBudget
func serveChunkList(w http.ResponseWriter, r *http.Request, store Store, id string) {
	//lint:allow hotpathescape inlined r.Context() fallback is the zero-size context.backgroundCtx; zero bytes allocated
	cl, err := store.ChunkList(r.Context(), id)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	h := w.Header()
	h[VersionHeader] = cl.VersionValue()
	// Conditional fetch: a poller or edge that already has this version
	// gets an empty 304, the paper's "chunklist not yet expired" case.
	if have, ok := haveVersion(r.URL.RawQuery); ok && have == cl.Version {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = contentTypeM3U8
	// The list renders once; every poll of this version writes those bytes.
	w.Write(cl.Marshal())
}

// serveChunk answers a chunk download with the chunk's sealed bytes — shared
// with every other viewer of the chunk, never re-marshalled. The explicit
// Content-Length lets net/http send the body as is instead of re-framing
// ~40 KB as chunked transfer.
//
//livesim:hotpath TestServeChunkSharesSealedBytes
func serveChunk(w http.ResponseWriter, r *http.Request, store Store, id string, seq uint64) {
	//lint:allow hotpathescape inlined r.Context() fallback is the zero-size context.backgroundCtx; zero bytes allocated
	c, err := store.Chunk(r.Context(), id, seq)
	if err != nil {
		writeStoreError(w, err)
		return
	}
	wire := c.Wire()
	h := w.Header()
	h["Content-Type"] = contentTypeChunk
	h["Content-Length"] = c.LengthValue()
	w.Write(wire)
}

// Client fetches chunklists and chunks from an HLS server.
type Client struct {
	// BaseURL is the server root including prefix, e.g.
	// "http://edge1:8080/hls".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds each request as a per-attempt deadline (default
	// 10 s), so a hung origin can no longer block a viewer poll forever.
	Timeout time.Duration
	// Retry bounds transient-failure retries per fetch with jittered
	// backoff; the zero value makes 3 attempts. MaxAttempts 1 disables
	// retries.
	Retry resilience.Policy
	// RetryAfterCap bounds how long a server's Retry-After hint is honored
	// (default 30 s) so a hostile or buggy header cannot park the client.
	RetryAfterCap time.Duration
	// OnDrainHint, when set, is invoked every time a response carries the
	// edge-draining header — the failover poller uses it to migrate off a
	// draining edge between polls.
	OnDrainHint func()
	// Clock times poll events, the poll interval and every retry and
	// Retry-After wait; nil means the real clock.
	Clock clock.Clock
	// Metrics is the registry the client's poll instruments register in
	// (observed poll gaps, last-mile chunk fetches, pre-buffer fill); nil
	// means a private registry. Set it to the platform registry to fold
	// client-side delay components into the same scrape as the server
	// side.
	Metrics *metrics.Registry

	// metricsOnce guards lazy registration: instruments appear on first
	// poll, so a Client struct literal stays valid with no constructor.
	metricsOnce sync.Once
	m           *clientMetrics
}

// clientMetrics instrument the poll loop with the paper's client-side delay
// components: polling (observed inter-poll gap, §4.3), last-mile (chunk
// transfer to the player, §4.2), and buffering (time to fill the player's
// pre-buffer, §6).
type clientMetrics struct {
	polls        *metrics.Counter
	intervalConf *metrics.Gauge
	polling      *metrics.Histogram
	lastMile     *metrics.Histogram
	buffering    *metrics.Histogram
}

func (c *Client) metrics() *clientMetrics {
	c.metricsOnce.Do(func() {
		reg := c.Metrics
		if reg == nil {
			reg = metrics.NewRegistry()
		}
		c.m = &clientMetrics{
			polls:        reg.Counter("hls_polls_total"),
			intervalConf: reg.Gauge("hls_poll_interval_configured_ms"),
			polling:      reg.Histogram(metrics.DelayPolling, metrics.DelayBuckets),
			lastMile:     reg.Histogram(metrics.DelayLastMile, metrics.DelayBuckets),
			buffering:    reg.Histogram(metrics.DelayBuffering, metrics.DelayBuckets),
		}
	})
	return c.m
}

// clock returns the configured time source, defaulting to the real clock.
func (c *Client) clock() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.Real{}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// get issues one GET with the clients' shared header; a URL that does not
// parse is a permanent failure.
func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := resilience.NewRequest(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	return c.http().Do(req)
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 10 * time.Second
}

func (c *Client) retryAfterCap() time.Duration {
	if c.RetryAfterCap > 0 {
		return c.RetryAfterCap
	}
	return 30 * time.Second
}

// retry is the fetch retry policy; unless it brings its own sleeper, every
// wait — back-off and Retry-After alike — is on the client's clock.
func (c *Client) retry() resilience.Policy {
	p := c.Retry
	if p.Sleep == nil {
		p.Sleep = c.clock().Sleep
	}
	return p
}

// shed handles a 503/429 response: honor the server's Retry-After (capped,
// on the retry loop's context — not the expired attempt deadline), then
// report ErrOverloaded so the retry loop or failover poller reacts.
func (c *Client) shed(ctx context.Context, resp *http.Response) error {
	d := resilience.ParseRetryAfter(resp.Header.Get(RetryAfterHeader), c.clock().Now())
	if wait := min(d, c.retryAfterCap()); wait > 0 {
		if err := c.retry().Sleep(ctx, wait); err != nil {
			return resilience.Permanent(err)
		}
	}
	return &OverloadedError{RetryAfter: d}
}

// observe surfaces response-level hints (the drain header) to the session.
func (c *Client) observe(resp *http.Response) {
	if c.OnDrainHint != nil && resp.Header.Get(DrainingHeader) != "" {
		c.OnDrainHint()
	}
}

// ErrNotModified reports a conditional chunklist fetch that matched.
var ErrNotModified = errors.New("hls: chunklist not modified")

// FetchChunkList downloads the playlist, retrying transient failures with
// backoff under a per-attempt deadline. If haveVersion is non-zero it is
// sent as a conditional and ErrNotModified is returned on a match.
func (c *Client) FetchChunkList(ctx context.Context, broadcastID string, haveVersion uint64) (*media.ChunkList, error) {
	url := c.BaseURL + "/" + broadcastID + "/chunklist.m3u8"
	if haveVersion != 0 {
		url += "?have_version=" + strconv.FormatUint(haveVersion, 10)
	}
	return resilience.RetryValue(ctx, c.retry(), func(ctx context.Context) (*media.ChunkList, error) {
		reqCtx, cancel := context.WithTimeout(ctx, c.timeout())
		defer cancel()
		resp, err := c.get(reqCtx, url)
		if err != nil {
			return nil, fmt.Errorf("hls: fetch chunklist: %w", err)
		}
		defer resilience.DrainClose(resp)
		switch resp.StatusCode {
		case http.StatusOK:
			c.observe(resp)
		case http.StatusNotModified:
			c.observe(resp)
			return nil, resilience.Permanent(ErrNotModified)
		case http.StatusNotFound:
			return nil, resilience.Permanent(ErrNotFound)
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			return nil, c.shed(ctx, resp)
		default:
			return nil, fmt.Errorf("hls: chunklist status %d", resp.StatusCode)
		}
		data, err := resilience.ReadBody(resp.Body, resp.ContentLength, 1<<20)
		if err != nil {
			// A truncated body (dropped edge connection) is transient.
			return nil, fmt.Errorf("hls: chunklist body: %w", err)
		}
		return media.ParseChunkList(data)
	})
}

// FetchChunk downloads one chunk, retrying transient failures with backoff
// under a per-attempt deadline.
func (c *Client) FetchChunk(ctx context.Context, broadcastID string, seq uint64) (*media.Chunk, error) {
	url := c.BaseURL + "/" + broadcastID + "/chunk/" + strconv.FormatUint(seq, 10)
	return resilience.RetryValue(ctx, c.retry(), func(ctx context.Context) (*media.Chunk, error) {
		reqCtx, cancel := context.WithTimeout(ctx, c.timeout())
		defer cancel()
		resp, err := c.get(reqCtx, url)
		if err != nil {
			return nil, fmt.Errorf("hls: fetch chunk: %w", err)
		}
		defer resilience.DrainClose(resp)
		switch resp.StatusCode {
		case http.StatusOK:
			c.observe(resp)
		case http.StatusNotFound:
			return nil, resilience.Permanent(ErrNotFound)
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			return nil, c.shed(ctx, resp)
		default:
			return nil, fmt.Errorf("hls: chunk status %d", resp.StatusCode)
		}
		data, err := resilience.ReadBody(resp.Body, resp.ContentLength, maxChunkBody)
		if err != nil {
			return nil, fmt.Errorf("hls: chunk body: %w", err)
		}
		return media.SealedChunk(data)
	})
}

// maxChunkBody caps a chunk download.
const maxChunkBody = 64 << 20

// ChunkEvent describes one newly observed chunk, with the timestamps the
// paper's measurement methodology records (§4.3).
type ChunkEvent struct {
	Ref media.ChunkRef
	// Chunk is the downloaded data.
	Chunk *media.Chunk
	// PolledAt is when the poll that discovered the chunk was issued (⑨/⑭).
	PolledAt time.Time
	// ListFetchedAt is when the updated chunklist arrived.
	ListFetchedAt time.Time
	// FetchedAt is when the chunk download finished (⑫/⑮).
	FetchedAt time.Time
}

// PollerConfig tunes a Poller.
type PollerConfig struct {
	// Interval between chunklist polls. Periscope clients use 2–2.8 s
	// (§5.2); the paper's measurement crawler uses 100 ms.
	Interval time.Duration
	// OnChunk receives every newly observed chunk in order. The end marker
	// has no callback: Client.Poll and FailoverPoller.Run return nil when
	// they see it.
	OnChunk func(ev ChunkEvent)
	// PreBuffer models the player's startup buffer (§6: Periscope's HLS
	// player waits for ~9 s of content, and playback stalls trace back to
	// this fill time). When the cumulative content delivered first reaches
	// PreBuffer, the wall time since the first chunk arrived is observed
	// into the delay_buffering_seconds histogram. Zero disables the
	// observation.
	PreBuffer time.Duration
}

// pollState is the cross-poll viewer position: highest delivered chunk seq
// and last seen chunklist version. The failover poller carries one pollState
// across edges so a migrated session resumes from where it left off — no
// duplicate deliveries, gaps allowed.
type pollState struct {
	lastSeq uint64
	haveAny bool
	version uint64
	// lastPolledAt times the observed inter-poll gap (the paper's polling
	// delay component); zero until the first poll.
	lastPolledAt time.Time
	// buffered / firstFetchAt / bufferObserved drive the one-shot
	// pre-buffer fill observation (PollerConfig.PreBuffer).
	buffered       time.Duration
	firstFetchAt   time.Time
	bufferObserved bool
}

// pollOnce performs one poll: a conditional chunklist fetch followed by
// delivery of every not-yet-seen chunk. A matched conditional (nothing new)
// is a successful no-op poll. It reports whether the end marker was seen.
func (c *Client) pollOnce(ctx context.Context, broadcastID string, cfg *PollerConfig, st *pollState) (ended bool, err error) {
	m := c.metrics()
	polledAt := c.clock().Now()
	m.polls.Inc()
	if !st.lastPolledAt.IsZero() {
		// The observed poll gap — what the paper calls the polling delay
		// component (§4.3): a fresh chunk waits on average half this gap
		// before any client learns of it.
		m.polling.Observe(polledAt.Sub(st.lastPolledAt))
	}
	st.lastPolledAt = polledAt
	cl, err := c.FetchChunkList(ctx, broadcastID, st.version)
	if err != nil {
		if errors.Is(err, ErrNotModified) {
			return false, nil
		}
		return false, err
	}
	listAt := c.clock().Now()
	st.version = cl.Version
	for _, ref := range cl.Chunks {
		if st.haveAny && ref.Seq <= st.lastSeq {
			continue
		}
		ev := ChunkEvent{Ref: ref, PolledAt: polledAt, ListFetchedAt: listAt}
		fetchStart := c.clock().Now()
		chunk, err := c.FetchChunk(ctx, broadcastID, ref.Seq)
		if err != nil {
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
			continue
		}
		ev.Chunk = chunk
		ev.FetchedAt = c.clock().Now()
		// Last-mile: edge→player transfer for this chunk.
		m.lastMile.Observe(ev.FetchedAt.Sub(fetchStart))
		st.lastSeq, st.haveAny = ref.Seq, true
		if cfg.PreBuffer > 0 && !st.bufferObserved {
			if st.firstFetchAt.IsZero() {
				st.firstFetchAt = ev.FetchedAt
			}
			st.buffered += ref.Duration
			if st.buffered >= cfg.PreBuffer {
				st.bufferObserved = true
				m.buffering.Observe(ev.FetchedAt.Sub(st.firstFetchAt))
			}
		}
		if cfg.OnChunk != nil {
			cfg.OnChunk(ev)
		}
	}
	return cl.Ended, nil
}

// Poll runs the periodic polling loop until the broadcast ends or ctx is
// done. It returns nil on a clean end-of-broadcast.
func (c *Client) Poll(ctx context.Context, broadcastID string, cfg PollerConfig) error {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	// Configured interval sits next to the observed-gap histogram so a
	// scrape can read configured vs. observed directly (§5.2's 2–2.8 s).
	c.metrics().intervalConf.Set(int64(cfg.Interval / time.Millisecond))
	var st pollState
	clk := c.clock()
	for {
		ended, err := c.pollOnce(ctx, broadcastID, &cfg, &st)
		switch {
		case err == nil:
			if ended {
				return nil
			}
		case errors.Is(err, ErrNotFound):
			return err
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Transient error: keep polling.
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clk.After(cfg.Interval):
		}
	}
}
