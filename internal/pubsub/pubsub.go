// Package pubsub implements the message channel of the platform — the
// PubNub analog of Figure 8(c). Comments and hearts flow over HTTPS-style
// HTTP, separate from the video path, and are merged client-side by
// timestamp. Periscope's policy of allowing only the first ~100 viewers to
// comment (§2.1) is enforced here as a per-channel commenter cap; hearts are
// unlimited.
package pubsub

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// Kind distinguishes the two interaction types.
type Kind string

// Interaction kinds.
const (
	KindComment Kind = "comment"
	KindHeart   Kind = "heart"
)

// UnmarshalText decodes a known kind to its constant, so it keeps nothing of
// the body it came from; any other kind decodes as its text.
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case string(KindComment):
		*k = KindComment
	case string(KindHeart):
		*k = KindHeart
	default:
		*k = Kind(text)
	}
	return nil
}

// Event is one published interaction.
type Event struct {
	Seq         uint64    `json:"seq"`
	BroadcastID string    `json:"broadcast_id"`
	UserID      string    `json:"user_id"`
	Kind        Kind      `json:"kind"`
	Text        string    `json:"text,omitempty"`
	At          time.Time `json:"at"`
}

// ErrNotCommenter reports a comment from a user outside the commenter set.
var ErrNotCommenter = errors.New("pubsub: commenter cap reached")

// ErrNoChannel reports a publish or subscribe on a missing channel.
var ErrNoChannel = errors.New("pubsub: no such channel")

// DefaultCommenterCap is Periscope's observed comment limit (§2.1).
const DefaultCommenterCap = 100

// Hub is the in-process message service: one channel per broadcast.
type Hub struct {
	commenterCap int
	clock        clock.Clock
	m            *hubMetrics

	mu       sync.Mutex
	channels map[string]*channel
}

// hubMetrics are the hub's registered instruments: publish/deliver counters
// plus gauges for open channels and total buffered (retained) events — the
// channel-depth signal a capacity planner watches on the PubNub analog.
type hubMetrics struct {
	publishes *metrics.Counter
	delivers  *metrics.Counter
	channels  *metrics.Gauge
	buffered  *metrics.Gauge
}

func newHubMetrics(reg *metrics.Registry) *hubMetrics {
	return &hubMetrics{
		publishes: reg.Counter("pubsub_publishes_total"),
		delivers:  reg.Counter("pubsub_delivers_total"),
		channels:  reg.Gauge("pubsub_channels"),
		buffered:  reg.Gauge("pubsub_buffered_events"),
	}
}

type channel struct {
	mu         sync.Mutex
	seq        uint64
	events     []Event
	commenters map[string]bool
	waiters    []chan struct{}
	closed     bool
}

// NewHub returns a Hub with the given commenter cap; cap<0 means unlimited,
// cap==0 means DefaultCommenterCap. Its instruments register in reg (nil
// means a private registry), and clk stamps published events (nil means the
// real clock).
func NewHub(commenterCap int, reg *metrics.Registry, clk clock.Clock) *Hub {
	if commenterCap == 0 {
		commenterCap = DefaultCommenterCap
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if clk == nil {
		clk = clock.Real{}
	}
	return &Hub{
		commenterCap: commenterCap,
		clock:        clk,
		m:            newHubMetrics(reg),
		channels:     make(map[string]*channel),
	}
}

// Open creates the channel for a broadcast. Opening twice is a no-op.
func (h *Hub) Open(broadcastID string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.channels[broadcastID]; !ok {
		h.channels[broadcastID] = &channel{commenters: make(map[string]bool)}
		h.m.channels.Add(1)
	}
}

// Close marks a channel finished, waking all waiters. Events stay readable.
func (h *Hub) Close(broadcastID string) {
	h.mu.Lock()
	ch := h.channels[broadcastID]
	h.mu.Unlock()
	if ch == nil {
		return
	}
	ch.mu.Lock()
	ch.closed = true
	ch.wakeLocked()
	ch.mu.Unlock()
}

// Remove deletes a channel entirely.
func (h *Hub) Remove(broadcastID string) {
	h.mu.Lock()
	ch := h.channels[broadcastID]
	delete(h.channels, broadcastID)
	h.mu.Unlock()
	if ch == nil {
		return
	}
	// Count the retained events outside h.mu: ch.mu must never nest under
	// the hub lock (locksend invariant). Wake parked waiters too: the
	// channel is already unreachable through the hub, so an un-woken Wait
	// would block until its context expired — a goroutine leak for every
	// long-poll viewer on a garbage-collected broadcast. Woken waiters
	// re-lookup the channel and surface ErrNoChannel.
	ch.mu.Lock()
	buffered := len(ch.events)
	ch.wakeLocked()
	ch.mu.Unlock()
	h.m.channels.Add(-1)
	h.m.buffered.Add(-int64(buffered))
}

func (h *Hub) channel(broadcastID string) (*channel, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.channels[broadcastID]
	if !ok {
		return nil, ErrNoChannel
	}
	return ch, nil
}

// Publish appends an interaction. Comments enforce the commenter cap: the
// first cap distinct users to comment join the commenter set; later users
// get ErrNotCommenter. The event's Seq and At (if zero) are assigned here.
func (h *Hub) Publish(broadcastID string, ev Event) (Event, error) {
	ch, err := h.channel(broadcastID)
	if err != nil {
		return Event{}, err
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		return Event{}, ErrNoChannel
	}
	if ev.Kind == KindComment && h.commenterCap > 0 {
		if !ch.commenters[ev.UserID] {
			if len(ch.commenters) >= h.commenterCap {
				return Event{}, ErrNotCommenter
			}
			ch.commenters[ev.UserID] = true
		}
	}
	ch.seq++
	ev.Seq = ch.seq
	ev.BroadcastID = broadcastID
	if ev.At.IsZero() {
		ev.At = h.clock.Now()
	}
	ch.events = append(ch.events, ev)
	ch.wakeLocked()
	h.m.publishes.Inc()
	h.m.buffered.Add(1)
	return ev, nil
}

// EventsSince returns events with Seq > since and whether the channel is
// closed.
func (h *Hub) EventsSince(broadcastID string, since uint64) ([]Event, bool, error) {
	ch, err := h.channel(broadcastID)
	if err != nil {
		return nil, false, err
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	evs := eventsAfterLocked(ch, since)
	h.m.delivers.Add(int64(len(evs)))
	return evs, ch.closed, nil
}

func eventsAfterLocked(ch *channel, since uint64) []Event {
	// Events are in Seq order starting at 1, so the suffix is an index.
	if since >= uint64(len(ch.events)) {
		return nil
	}
	return append([]Event(nil), ch.events[since:]...)
}

// Wait blocks until the channel has events newer than since, is closed, or
// ctx is done, then returns the new events.
func (h *Hub) Wait(ctx context.Context, broadcastID string, since uint64) ([]Event, bool, error) {
	for {
		ch, err := h.channel(broadcastID)
		if err != nil {
			return nil, false, err
		}
		ch.mu.Lock()
		evs := eventsAfterLocked(ch, since)
		closed := ch.closed
		if len(evs) > 0 || closed {
			ch.mu.Unlock()
			h.m.delivers.Add(int64(len(evs)))
			return evs, closed, nil
		}
		wake := make(chan struct{})
		ch.waiters = append(ch.waiters, wake)
		ch.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-wake:
		}
	}
}

func (ch *channel) wakeLocked() {
	for _, w := range ch.waiters {
		close(w)
	}
	ch.waiters = nil
}

// Counts returns (comments, hearts) totals for a broadcast.
func (h *Hub) Counts(broadcastID string) (comments, hearts int) {
	ch, err := h.channel(broadcastID)
	if err != nil {
		return 0, 0
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for _, ev := range ch.events {
		switch ev.Kind {
		case KindComment:
			comments++
		case KindHeart:
			hearts++
		}
	}
	return comments, hearts
}

// --- HTTP surface ----------------------------------------------------------

// Handler serves the hub over HTTP:
//
//	POST {prefix}/{broadcastID}/publish          body: Event JSON
//	GET  {prefix}/{broadcastID}/events?since=N[&wait=1]
//
// An absent or empty since means 0; one that is not a number is refused with
// 400, because read as 0 a typo would replay the whole channel.
func Handler(prefix string, hub *Hub) http.Handler {
	root := prefix + "/"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Routing cuts substrings of the path; it allocates nothing.
		rest, ok := strings.CutPrefix(r.URL.Path, root)
		if !ok {
			http.NotFound(w, r)
			return
		}
		id, op, ok := strings.Cut(rest, "/")
		if !ok || strings.Contains(op, "/") {
			http.NotFound(w, r)
			return
		}
		switch {
		case op == "publish" && r.Method == http.MethodPost:
			var ev Event
			if resilience.DecodeJSON(r.Body, r.ContentLength, maxEventBody, &ev) != nil {
				http.Error(w, "bad event", http.StatusBadRequest)
				return
			}
			stored, err := hub.Publish(id, ev)
			switch {
			case errors.Is(err, ErrNotCommenter):
				http.Error(w, err.Error(), http.StatusForbidden)
			case errors.Is(err, ErrNoChannel):
				http.Error(w, err.Error(), http.StatusNotFound)
			case err != nil:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			default:
				resilience.WriteJSON(w, stored)
			}
		case op == "events" && r.Method == http.MethodGet:
			var since uint64
			if v := queryValue(r.URL.RawQuery, "since"); v != "" {
				n, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					http.Error(w, "bad since parameter", http.StatusBadRequest)
					return
				}
				since = n
			}
			var evs []Event
			var closed bool
			var err error
			if queryValue(r.URL.RawQuery, "wait") == "1" {
				ctx, cancel := context.WithTimeout(r.Context(), 25*time.Second)
				defer cancel()
				evs, closed, err = hub.Wait(ctx, id, since)
				if errors.Is(err, context.DeadlineExceeded) {
					evs, err = nil, nil
				}
			} else {
				evs, closed, err = hub.EventsSince(id, since)
			}
			if errors.Is(err, ErrNoChannel) {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			resilience.WriteJSON(w, eventsPage{Events: evs, Closed: closed})
		default:
			http.NotFound(w, r)
		}
	})
}

// maxEventBody caps a published event's JSON.
const maxEventBody = 64 << 10

// eventsPage is the events response body.
type eventsPage struct {
	Events []Event `json:"events"`
	Closed bool    `json:"closed"`
}

// queryValue returns the value of the first name=value pair of a raw query,
// or "" — read in place, where r.URL.Query() would build a map and a slice
// per request to find it. Both parameters here are numbers, which need no
// unescaping.
func queryValue(rawQuery, name string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if k, v, _ := strings.Cut(pair, "="); k == name {
			return v
		}
	}
	return ""
}

// Client talks to a remote hub.
type Client struct {
	// BaseURL includes the prefix, e.g. "http://msg:8080/channel".
	BaseURL    string
	HTTPClient *http.Client
	// Timeout bounds each non-waiting request as a per-attempt deadline
	// (default 10 s), so a hung hub can no longer block a client forever.
	Timeout time.Duration
	// LongPollTimeout bounds long-poll Events requests (default 40 s —
	// the server holds them up to 25 s before answering empty).
	LongPollTimeout time.Duration
	// Retry bounds transient-failure retries per call with jittered
	// backoff; the zero value makes 3 attempts. MaxAttempts 1 disables
	// retries. Note a Publish retried across a transport failure may
	// duplicate the event, exactly as a real client resubmitting would.
	Retry resilience.Policy
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) timeout(wait bool) time.Duration {
	if wait {
		if c.LongPollTimeout > 0 {
			return c.LongPollTimeout
		}
		return 40 * time.Second
	}
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 10 * time.Second
}

// do issues one request; a URL that does not parse is a permanent failure.
func (c *Client) do(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	req, err := resilience.NewRequest(ctx, method, url, body)
	if err != nil {
		return nil, resilience.Permanent(err)
	}
	return c.http().Do(req)
}

// maxResponseBody caps a response the client reads: a page of some 400,000
// events, far beyond any incremental poll's.
const maxResponseBody = 64 << 20

// Publish sends one event, retrying transient transport failures.
func (c *Client) Publish(ctx context.Context, broadcastID string, ev Event) (Event, error) {
	body, err := json.Marshal(ev)
	if err != nil {
		return Event{}, err
	}
	url := c.BaseURL + "/" + broadcastID + "/publish"
	return resilience.RetryValue(ctx, c.Retry, func(ctx context.Context) (Event, error) {
		ctx, cancel := context.WithTimeout(ctx, c.timeout(false))
		defer cancel()
		resp, err := c.do(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return Event{}, fmt.Errorf("pubsub: publish: %w", err)
		}
		defer resilience.DrainClose(resp)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusForbidden:
			return Event{}, resilience.Permanent(ErrNotCommenter)
		case http.StatusNotFound:
			return Event{}, resilience.Permanent(ErrNoChannel)
		default:
			return Event{}, fmt.Errorf("pubsub: publish status %d", resp.StatusCode)
		}
		var stored Event
		if err := resilience.DecodeJSON(resp.Body, resp.ContentLength, maxResponseBody, &stored); err != nil {
			return Event{}, fmt.Errorf("pubsub: publish body: %w", err)
		}
		return stored, nil
	})
}

// Events fetches events after since, retrying transient failures; wait
// enables server-side long polling.
func (c *Client) Events(ctx context.Context, broadcastID string, since uint64, wait bool) ([]Event, bool, error) {
	url := c.BaseURL + "/" + broadcastID + "/events?since=" + strconv.FormatUint(since, 10)
	if wait {
		url += "&wait=1"
	}
	out, err := resilience.RetryValue(ctx, c.Retry, func(ctx context.Context) (eventsPage, error) {
		ctx, cancel := context.WithTimeout(ctx, c.timeout(wait))
		defer cancel()
		resp, err := c.do(ctx, http.MethodGet, url, nil)
		if err != nil {
			return eventsPage{}, fmt.Errorf("pubsub: events: %w", err)
		}
		defer resilience.DrainClose(resp)
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			return eventsPage{}, resilience.Permanent(ErrNoChannel)
		default:
			return eventsPage{}, fmt.Errorf("pubsub: events status %d", resp.StatusCode)
		}
		var page eventsPage
		if err := resilience.DecodeJSON(resp.Body, resp.ContentLength, maxResponseBody, &page); err != nil {
			return eventsPage{}, fmt.Errorf("pubsub: events body: %w", err)
		}
		return page, nil
	})
	if err != nil {
		return nil, false, err
	}
	return out.Events, out.Closed, nil
}
