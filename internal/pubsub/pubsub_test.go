package pubsub

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestPublishAndRead(t *testing.T) {
	h := NewHub(0, nil, nil)
	h.Open("b1")
	ev, err := h.Publish("b1", Event{UserID: "u1", Kind: KindComment, Text: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || ev.BroadcastID != "b1" || ev.At.IsZero() {
		t.Fatalf("stored event = %+v", ev)
	}
	h.Publish("b1", Event{UserID: "u2", Kind: KindHeart})
	evs, closed, err := h.EventsSince("b1", 0)
	if err != nil || closed {
		t.Fatalf("EventsSince: %v closed=%v", err, closed)
	}
	if len(evs) != 2 || evs[0].Kind != KindComment || evs[1].Kind != KindHeart {
		t.Fatalf("events = %+v", evs)
	}
	evs, _, _ = h.EventsSince("b1", 1)
	if len(evs) != 1 || evs[0].Seq != 2 {
		t.Fatalf("incremental read = %+v", evs)
	}
}

func TestPublishNoChannel(t *testing.T) {
	h := NewHub(0, nil, nil)
	if _, err := h.Publish("missing", Event{Kind: KindHeart}); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := h.EventsSince("missing", 0); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("err = %v", err)
	}
}

func TestCommenterCap(t *testing.T) {
	h := NewHub(3, nil, nil)
	h.Open("b1")
	for i := 0; i < 3; i++ {
		u := fmt.Sprintf("u%d", i)
		if _, err := h.Publish("b1", Event{UserID: u, Kind: KindComment, Text: "x"}); err != nil {
			t.Fatalf("commenter %d rejected: %v", i, err)
		}
	}
	if _, err := h.Publish("b1", Event{UserID: "u99", Kind: KindComment}); !errors.Is(err, ErrNotCommenter) {
		t.Fatalf("4th commenter err = %v", err)
	}
	// Existing commenters can keep commenting.
	if _, err := h.Publish("b1", Event{UserID: "u0", Kind: KindComment}); err != nil {
		t.Fatalf("existing commenter rejected: %v", err)
	}
	// Hearts are never capped (§2.1: all viewers can send hearts).
	if _, err := h.Publish("b1", Event{UserID: "u99", Kind: KindHeart}); err != nil {
		t.Fatalf("heart rejected: %v", err)
	}
}

func TestUnlimitedCap(t *testing.T) {
	h := NewHub(-1, nil, nil)
	h.Open("b1")
	for i := 0; i < 200; i++ {
		if _, err := h.Publish("b1", Event{UserID: fmt.Sprintf("u%d", i), Kind: KindComment}); err != nil {
			t.Fatalf("comment %d rejected: %v", i, err)
		}
	}
}

func TestDefaultCapIs100(t *testing.T) {
	h := NewHub(0, nil, nil)
	h.Open("b1")
	for i := 0; i < DefaultCommenterCap; i++ {
		if _, err := h.Publish("b1", Event{UserID: fmt.Sprintf("u%d", i), Kind: KindComment}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Publish("b1", Event{UserID: "overflow", Kind: KindComment}); !errors.Is(err, ErrNotCommenter) {
		t.Fatalf("101st commenter err = %v", err)
	}
}

func TestWaitWakesOnPublish(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(0, nil, nil)
	h.Open("b1")
	got := make(chan []Event, 1)
	go func() {
		evs, _, err := h.Wait(context.Background(), "b1", 0)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		got <- evs
	}()
	time.Sleep(10 * time.Millisecond)
	h.Publish("b1", Event{UserID: "u1", Kind: KindHeart})
	select {
	case evs := <-got:
		if len(evs) != 1 || evs[0].Kind != KindHeart {
			t.Fatalf("woke with %+v", evs)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never woke")
	}
}

func TestWaitWakesOnClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(0, nil, nil)
	h.Open("b1")
	done := make(chan bool, 1)
	go func() {
		_, closed, err := h.Wait(context.Background(), "b1", 0)
		if err != nil {
			t.Errorf("Wait: %v", err)
		}
		done <- closed
	}()
	time.Sleep(10 * time.Millisecond)
	h.Close("b1")
	select {
	case closed := <-done:
		if !closed {
			t.Fatal("Wait returned without closed flag")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait never woke on close")
	}
}

func TestWaitContextCancel(t *testing.T) {
	h := NewHub(0, nil, nil)
	h.Open("b1")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := h.Wait(ctx, "b1", 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublishAfterCloseFails(t *testing.T) {
	h := NewHub(0, nil, nil)
	h.Open("b1")
	h.Close("b1")
	if _, err := h.Publish("b1", Event{Kind: KindHeart}); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("publish after close err = %v", err)
	}
	// Events remain readable after close.
	if _, closed, err := h.EventsSince("b1", 0); err != nil || !closed {
		t.Fatalf("read after close: %v closed=%v", err, closed)
	}
}

func TestCounts(t *testing.T) {
	h := NewHub(0, nil, nil)
	h.Open("b1")
	for i := 0; i < 3; i++ {
		h.Publish("b1", Event{UserID: "u1", Kind: KindHeart})
	}
	h.Publish("b1", Event{UserID: "u1", Kind: KindComment, Text: "x"})
	c, hearts := h.Counts("b1")
	if c != 1 || hearts != 3 {
		t.Fatalf("counts = %d comments, %d hearts", c, hearts)
	}
}

func TestHTTPRoundtrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(2, nil, nil)
	h.Open("b1")
	srv := httptest.NewServer(Handler("/channel", h))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL + "/channel"}
	ctx := context.Background()

	ev, err := client.Publish(ctx, "b1", Event{UserID: "u1", Kind: KindComment, Text: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 {
		t.Fatalf("seq = %d", ev.Seq)
	}
	client.Publish(ctx, "b1", Event{UserID: "u2", Kind: KindComment})
	if _, err := client.Publish(ctx, "b1", Event{UserID: "u3", Kind: KindComment}); !errors.Is(err, ErrNotCommenter) {
		t.Fatalf("cap not enforced over HTTP: %v", err)
	}
	evs, closed, err := client.Events(ctx, "b1", 0, false)
	if err != nil || closed {
		t.Fatalf("Events: %v", err)
	}
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if _, _, err := client.Events(ctx, "missing", 0, false); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("missing channel err = %v", err)
	}
}

func TestHTTPLongPoll(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(0, nil, nil)
	h.Open("b1")
	srv := httptest.NewServer(Handler("/channel", h))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL + "/channel"}

	got := make(chan int, 1)
	go func() {
		evs, _, err := client.Events(context.Background(), "b1", 0, true)
		if err != nil {
			t.Errorf("long poll: %v", err)
		}
		got <- len(evs)
	}()
	time.Sleep(20 * time.Millisecond)
	h.Publish("b1", Event{UserID: "u1", Kind: KindHeart})
	select {
	case n := <-got:
		if n != 1 {
			t.Fatalf("long poll returned %d events", n)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long poll never returned")
	}
}

// waitResult carries one Wait return across the goroutine boundary.
type waitResult struct {
	evs    []Event
	closed bool
	err    error
}

// startWaiters parks n Wait calls on a channel and returns their results
// channel plus a gate that confirms all n are actually blocked (parked
// waiters registered, not racing the wake).
func startWaiters(h *Hub, id string, n int) chan waitResult {
	results := make(chan waitResult, n)
	for i := 0; i < n; i++ {
		go func() {
			evs, closed, err := h.Wait(context.Background(), id, 0)
			results <- waitResult{evs: evs, closed: closed, err: err}
		}()
	}
	// Wait until all n are parked in ch.waiters.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ch, err := h.channel(id)
		if err != nil {
			break // channel already gone; waiters error out on their own
		}
		ch.mu.Lock()
		parked := len(ch.waiters)
		ch.mu.Unlock()
		if parked >= n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return results
}

// TestWaitWokenByClose: a mid-wait Close must wake every parked waiter with
// closed=true — no waiting out the context.
func TestWaitWokenByClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(0, nil, nil)
	h.Open("b1")
	results := startWaiters(h, "b1", 3)
	h.Close("b1")
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if r.err != nil || !r.closed {
				t.Fatalf("waiter %d: (closed=%v, err=%v), want clean closed wake", i, r.closed, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still parked after Close", i)
		}
	}
}

// TestWaitWokenByRemove is the regression test for Remove leaking parked
// waiters: deleting a channel mid-wait must wake every waiter, which then
// surfaces ErrNoChannel — not block until its context expires.
func TestWaitWokenByRemove(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(0, nil, nil)
	h.Open("b1")
	results := startWaiters(h, "b1", 3)
	h.Remove("b1")
	for i := 0; i < 3; i++ {
		select {
		case r := <-results:
			if !errors.Is(r.err, ErrNoChannel) {
				t.Fatalf("waiter %d: err = %v, want ErrNoChannel after Remove", i, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still parked after Remove: leaked until ctx expiry", i)
		}
	}
}

// TestWaitCancelledByContext: context cancellation frees a parked waiter
// without disturbing the channel, and the goroutine does not leak.
func TestWaitCancelledByContext(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(0, nil, nil)
	h.Open("b1")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := h.Wait(ctx, "b1", 0)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ch, _ := h.channel("b1")
		ch.mu.Lock()
		parked := len(ch.waiters)
		ch.mu.Unlock()
		if parked > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}
	// The channel still works for everyone else.
	if _, err := h.Publish("b1", Event{UserID: "u1", Kind: KindHeart}); err != nil {
		t.Fatalf("publish after cancelled wait: %v", err)
	}
}

// TestWaitCloseRemoveHammer drives Wait against concurrent Publish, Close,
// and Remove across many channels; under -race this is the lock-ordering
// check, and CheckGoroutines asserts nothing stays parked.
func TestWaitCloseRemoveHammer(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHub(-1, nil, nil)
	const channels = 8
	const waitersPerChannel = 4
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan struct{}, channels*waitersPerChannel)
	for c := 0; c < channels; c++ {
		id := fmt.Sprintf("b%d", c)
		h.Open(id)
		for w := 0; w < waitersPerChannel; w++ {
			go func(id string) {
				var since uint64
				for {
					evs, closed, err := h.Wait(ctx, id, since)
					if err != nil || closed {
						done <- struct{}{}
						return
					}
					since += uint64(len(evs))
				}
			}(id)
		}
	}
	for c := 0; c < channels; c++ {
		id := fmt.Sprintf("b%d", c)
		go func(id string) {
			for i := 0; i < 20; i++ {
				h.Publish(id, Event{UserID: "u", Kind: KindHeart})
			}
			if id == "b0" || id == "b1" {
				h.Remove(id) // waiters must exit via ErrNoChannel
			} else {
				h.Close(id) // waiters must exit via closed=true
			}
		}(id)
	}
	for i := 0; i < channels*waitersPerChannel; i++ {
		select {
		case <-done:
		case <-ctx.Done():
			t.Fatalf("only %d/%d waiters exited: waiters leaked", i, channels*waitersPerChannel)
		}
	}
}

// TestClientKeepsConnectionAcrossRefusals: the 403 and 404 replies carry an
// http.Error body the client reads out before closing, so a refused call does
// not cost the next one a dial.
func TestClientKeepsConnectionAcrossRefusals(t *testing.T) {
	h := NewHub(1, nil, nil)
	h.Open("b1")
	srv, conns := testutil.CountingServer(t, Handler("/channel", h))
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	client := &Client{BaseURL: srv.URL + "/channel", HTTPClient: hc}
	ctx := context.Background()

	if _, err := client.Publish(ctx, "b1", Event{UserID: "u1", Kind: KindComment}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Publish(ctx, "b1", Event{UserID: "u2", Kind: KindComment}); !errors.Is(err, ErrNotCommenter) {
		t.Fatalf("second commenter: %v, want ErrNotCommenter", err)
	}
	if _, _, err := client.Events(ctx, "missing", 0, false); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("missing channel: %v, want ErrNoChannel", err)
	}
	if evs, _, err := client.Events(ctx, "b1", 0, false); err != nil || len(evs) != 1 {
		t.Fatalf("events after the refusals: %d (%v)", len(evs), err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("four sequential calls opened %d connections, want 1", n)
	}
}

// TestHandlerAllocBudgets pins what the two message-channel endpoints a
// lifecycle calls allocate per request, routing, handler and recorder
// together, through httptest.NewRecorder and no socket so the count is
// exact: the routing cut, the in-place query read, the pooled body read,
// decoder and response encode, the kind decoded to its constant, and the
// ready-made Content-Type each show in it.
func TestHandlerAllocBudgets(t *testing.T) {
	if testutil.Race {
		t.Skip("sync.Pool drops puts under the race detector, so the count is not exact")
	}
	hub := NewHub(0, nil, nil)
	hub.Open("b1")
	hub.Open("b2")
	for _, ev := range []Event{{UserID: "u1", Kind: KindComment, Text: "hello"}, {UserID: "u1", Kind: KindHeart}} {
		if _, err := hub.Publish("b2", ev); err != nil {
			t.Fatal(err)
		}
	}
	h := Handler("/channel", hub)
	for _, tc := range []struct {
		name   string
		method string
		target string
		body   string
		want   float64
	}{
		// Hearts: a comment would also grow the commenter set.
		{"publish", "POST", "/channel/b1/publish", `{"user_id":"viewer-7","kind":"heart"}`, 12},
		{"events", "GET", "/channel/b2/events?since=0", "", 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := bytes.NewReader([]byte(tc.body))
			req := httptest.NewRequest(tc.method, tc.target, body)
			// The run's publishes grow the channel's event log, a fraction
			// of an allocation per request that the whole-number average
			// drops.
			allocs := testing.AllocsPerRun(200, func() {
				body.Seek(0, io.SeekStart)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			})
			if allocs != tc.want {
				t.Fatalf("%s allocates %.0f times per request, want %.0f", tc.name, allocs, tc.want)
			}
		})
	}
}

// A since that is not a number is refused; read as 0 it would replay the
// whole channel. Absent or empty, it means 0.
func TestEventsRejectsMalformedSince(t *testing.T) {
	hub := NewHub(0, nil, nil)
	hub.Open("b1")
	if _, err := hub.Publish("b1", Event{UserID: "u1", Kind: KindHeart}); err != nil {
		t.Fatal(err)
	}
	h := Handler("/channel", hub)
	for query, want := range map[string]int{
		"since=abc":       http.StatusBadRequest,
		"since=-1":        http.StatusBadRequest,
		"since=1x&wait=1": http.StatusBadRequest,
		"since=0":         http.StatusOK,
		"since=":          http.StatusOK,
		"":                http.StatusOK,
		"wait=0&since=1":  http.StatusOK,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/channel/b1/events?"+query, nil))
		if rec.Code != want {
			t.Errorf("?%s: status %d, want %d: %s", query, rec.Code, want, rec.Body)
		}
	}
}
