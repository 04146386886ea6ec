package cdn

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/testutil"
)

// gatedStore blocks ChunkList calls on a gate so a test can pile concurrent
// pollers onto one in-flight pull, and counts upstream calls.
type gatedStore struct {
	inner     hls.Store
	gate      chan struct{} // pull blocks until closed
	entered   chan struct{} // closed when the first pull arrives
	enterOnce sync.Once
	listCalls atomic.Int64
}

func (g *gatedStore) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	g.listCalls.Add(1)
	g.enterOnce.Do(func() { close(g.entered) })
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.ChunkList(ctx, id)
}

func (g *gatedStore) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	return g.inner.Chunk(ctx, id, seq)
}

// flakyStore fails list and/or chunk fetches on demand.
type flakyStore struct {
	inner      hls.Store
	failLists  atomic.Bool
	failChunks atomic.Bool
	listErrs   atomic.Int64
	chunkErrs  atomic.Int64
}

type errUpstream struct{ msg string }

func (e *errUpstream) Error() string { return e.msg }

func (f *flakyStore) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	if f.failLists.Load() {
		f.listErrs.Add(1)
		return nil, &errUpstream{"upstream list unavailable"}
	}
	return f.inner.ChunkList(ctx, id)
}

func (f *flakyStore) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	if f.failChunks.Load() {
		f.chunkErrs.Add(1)
		return nil, &errUpstream{"upstream chunk unavailable"}
	}
	return f.inner.Chunk(ctx, id, seq)
}

func fastEdgeRetry() resilience.Policy {
	return resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

// TestEdgePollStampedeSingleFlight drives 50 concurrent polls at an edge
// whose cache is empty: the single-flight group must collapse them into
// exactly one upstream pull (§5.2's chunklist-expiry stampede).
func TestEdgePollStampedeSingleFlight(t *testing.T) {
	testutil.CheckGoroutines(t)
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", 60)
	g := &gatedStore{inner: o, gate: make(chan struct{}), entered: make(chan struct{})}
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: g}, nil },
	})

	ctx := context.Background()
	const pollers = 50
	start := make(chan struct{})
	results := make(chan *media.ChunkList, pollers)
	errs := make(chan error, pollers)
	var wg sync.WaitGroup
	for i := 0; i < pollers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cl, err := e.ChunkList(ctx, "b1")
			if err != nil {
				errs <- err
				return
			}
			results <- cl
		}()
	}
	close(start)
	// Hold the gate until the first pull is in flight and the remaining
	// pollers wait on it.
	<-g.entered
	testutil.WaitParked(t, flightFrame, pollers-1)
	close(g.gate)
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	if n := g.listCalls.Load(); n != 1 {
		t.Fatalf("upstream list pulls = %d, want 1 (stampede not collapsed)", n)
	}
	if n := e.m.listPulls.Value(); n != 1 {
		t.Fatalf("edge ListPulls = %d, want 1", n)
	}
	n := 0
	for cl := range results {
		if len(cl.Chunks) != 2 {
			t.Fatalf("poller got %d chunks, want 2", len(cl.Chunks))
		}
		n++
	}
	if n != pollers {
		t.Fatalf("%d/%d pollers got a list", n, pollers)
	}
}

// flightFrame is the single-flight group's Do in a stack dump: a poller
// parked on it waits for another poller's pull.
const flightFrame = "repro/internal/resilience.(*Group[...]).Do"

// A viewer that hangs up mid-pull takes only its own poll down. The pull runs
// under its leader's context; when that ends, the leader gets its own error
// (not the stale list, which would count a stale serve against a healthy
// upstream) and a waiter still listening gets a fresh pull, cold cache or
// warm.
func TestEdgeLeaderHangupIsNotShared(t *testing.T) {
	for _, tc := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		warm := tc.warm
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
			feedFrames(o, "b1", 2*framesPerTestChunk)
			g := &gatedStore{inner: o, gate: make(chan struct{}), entered: make(chan struct{})}
			var up hls.Store = o
			e := NewEdge(EdgeConfig{
				Site:    site("e1", "Y"),
				Resolve: func(string) (Upstream, error) { return Upstream{Store: up}, nil },
			})
			o.RegisterEdge(e)
			want := 2
			if warm {
				if _, err := e.ChunkList(context.Background(), "b1"); err != nil {
					t.Fatal(err)
				}
				feedFrames(o, "b1", framesPerTestChunk) // invalidates the cached list
				want = 3
			}
			up = g

			type result struct {
				list *media.ChunkList
				err  error
			}
			poll := func(ctx context.Context) chan result {
				ch := make(chan result, 1)
				go func() {
					list, err := e.ChunkList(ctx, "b1")
					ch <- result{list, err}
				}()
				return ch
			}
			ctx, hangUp := context.WithCancel(context.Background())
			leader := poll(ctx)
			<-g.entered
			waiter := poll(context.Background())
			testutil.WaitParked(t, flightFrame, 1)
			hangUp()
			if r := <-leader; !errors.Is(r.err, context.Canceled) || r.list != nil {
				t.Fatalf("the leader that hung up got list %v, err %v; want its own context.Canceled", r.list, r.err)
			}
			close(g.gate)
			if r := <-waiter; r.err != nil || len(r.list.Chunks) != want {
				t.Fatalf("the waiter got list %+v, err %v; want a fresh %d-chunk list", r.list, r.err, want)
			}
			if n := g.listCalls.Load(); n != 2 {
				t.Fatalf("upstream list pulls = %d, want 2 (the abandoned one and the waiter's own)", n)
			}
			if n := e.m.staleServes.Value(); n != 0 {
				t.Fatalf("%d stale serves against a healthy upstream", n)
			}
		})
	}
}

// TestEdgeServesStaleWhenUpstreamDown checks the graceful-degradation path:
// with a cached list and a dead upstream, polls are answered from the stale
// copy instead of an error, and fresh pulls resume once the upstream heals
// and the breaker's open window elapses.
func TestEdgeServesStaleWhenUpstreamDown(t *testing.T) {
	testutil.CheckGoroutines(t)
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", 30) // one complete chunk
	f := &flakyStore{inner: o}
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: f}, nil },
		Retry:   fastEdgeRetry(),
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenFor: 20 * time.Millisecond},
	})
	ctx := context.Background()

	first, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}

	// New content arrives, the edge is invalidated, then the origin dies.
	feedFrames(o, "b1", 60)
	e.invalidate("b1", first.Version+1)
	f.failLists.Store(true)

	for i := 0; i < 5; i++ {
		cl, err := e.ChunkList(ctx, "b1")
		if err != nil {
			t.Fatalf("poll %d with upstream down: %v (want stale list)", i, err)
		}
		if cl.Version != first.Version {
			t.Fatalf("poll %d version = %d, want stale %d", i, cl.Version, first.Version)
		}
	}
	if n := e.m.staleServes.Value(); n < 5 {
		t.Fatalf("StaleServes = %d, want ≥ 5", n)
	}
	if n := e.m.pullRetries.Value(); n == 0 {
		t.Fatal("no pull retries recorded while upstream was down")
	}
	// The breaker opened after the failure streak, so later polls failed
	// fast instead of re-hammering the dead upstream with retries.
	if f.listErrs.Load() >= 10 {
		t.Fatalf("upstream saw %d failed pulls for 5 polls — breaker never opened", f.listErrs.Load())
	}

	// Upstream heals; after the open window the next polls pull fresh.
	f.failLists.Store(false)
	time.Sleep(25 * time.Millisecond)
	deadline := time.Now().Add(time.Second)
	for {
		cl, err := e.ChunkList(ctx, "b1")
		if err != nil {
			t.Fatal(err)
		}
		if cl.Version > first.Version {
			if len(cl.Chunks) != 3 {
				t.Fatalf("recovered list has %d chunks, want 3", len(cl.Chunks))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("edge never recovered a fresh list after upstream healed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEdgeChunkPullErrorLeavesStale checks the satellite fix: a failed chunk
// copy during a list pull is counted and leaves the entry stale, so the next
// poll pulls again instead of serving a list whose chunks are missing.
func TestEdgeChunkPullErrorLeavesStale(t *testing.T) {
	testutil.CheckGoroutines(t)
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", 30)
	f := &flakyStore{inner: o}
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: f}, nil },
		Retry:   fastEdgeRetry(),
	})
	ctx := context.Background()

	f.failChunks.Store(true)
	cl, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Chunks) != 1 {
		t.Fatalf("chunks = %d, want 1", len(cl.Chunks))
	}
	if n := e.m.chunkPullErrors.Value(); n == 0 {
		t.Fatal("failed chunk copy not counted")
	}
	if n := e.m.chunkPulls.Value(); n != 0 {
		t.Fatalf("ChunkPulls = %d, want 0", n)
	}

	// The entry stayed stale: the next poll re-pulls and completes the
	// chunk copy once the upstream heals.
	f.failChunks.Store(false)
	if _, err := e.ChunkList(ctx, "b1"); err != nil {
		t.Fatal(err)
	}
	if n := e.m.listPulls.Value(); n != 2 {
		t.Fatalf("ListPulls = %d, want 2 (stale entry must re-pull)", n)
	}
	if n := e.m.chunkPulls.Value(); n != 1 {
		t.Fatalf("ChunkPulls = %d, want 1 after retry", n)
	}
	// Now the list is complete and fresh: the chunk serves from cache and
	// a third poll is a pure hit.
	if _, err := e.Chunk(ctx, "b1", 0); err != nil {
		t.Fatal(err)
	}
	if n := e.m.chunkHits.Value(); n != 1 {
		t.Fatalf("ChunkHits = %d, want 1", n)
	}
	if _, err := e.ChunkList(ctx, "b1"); err != nil {
		t.Fatal(err)
	}
	if n := e.m.listHits.Value(); n != 1 {
		t.Fatalf("ListHits = %d, want 1", n)
	}
}

// TestEdgeInvalidateCountsOnlyWhenMarkingStale checks the satellite fix:
// Invalidates counts only invalidations that actually flip a cached, fresh
// entry to stale — not no-ops on uncached broadcasts, already-seen versions,
// or already-stale entries.
func TestEdgeInvalidateCountsOnlyWhenMarkingStale(t *testing.T) {
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", 30)
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: o}, nil },
	})
	ctx := context.Background()

	// Not cached here: an invalidation for a broadcast this edge never
	// served must not count.
	e.invalidate("b1", 1)
	e.invalidate("nope", 1)
	if n := e.m.invalidates.Value(); n != 0 {
		t.Fatalf("Invalidates = %d before anything was cached, want 0", n)
	}

	cl, err := e.ChunkList(ctx, "b1")
	if err != nil {
		t.Fatal(err)
	}
	// Stale version replays (re-delivered invalidations) must not count.
	e.invalidate("b1", cl.Version)
	e.invalidate("b1", cl.Version-1)
	if n := e.m.invalidates.Value(); n != 0 {
		t.Fatalf("Invalidates = %d after old-version replays, want 0", n)
	}

	// A genuinely newer version marks the entry stale and counts once,
	// even when re-delivered.
	e.invalidate("b1", cl.Version+1)
	e.invalidate("b1", cl.Version+2)
	if n := e.m.invalidates.Value(); n != 1 {
		t.Fatalf("Invalidates = %d, want 1 (only the marking invalidation counts)", n)
	}
}

// TestBreakersOpenGaugeCountsEveryEdgeAtSite: several edges at one site in one
// registry (a multi-core simulated day builds one per core) share the
// cdn_breakers_open{site} series, and it counts every edge's open breakers —
// not only those of the edge registered last.
func TestBreakersOpenGaugeCountsEveryEdgeAtSite(t *testing.T) {
	reg := metrics.NewRegistry()
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", framesPerTestChunk)
	flaky := &flakyStore{inner: o}
	flaky.failLists.Store(true)
	newEdge := func() *Edge {
		return NewEdge(EdgeConfig{
			Site:    site("e1", "Y"),
			Resolve: func(string) (Upstream, error) { return Upstream{Store: flaky}, nil },
			Retry:   resilience.Policy{MaxAttempts: 1},
			Breaker: resilience.BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour},
			Metrics: reg,
		})
	}
	first, _ := newEdge(), newEdge()
	if _, err := first.ChunkList(context.Background(), "b1"); err == nil {
		t.Fatal("poll through a failing upstream succeeded")
	}
	var open int64 = -1
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == "cdn_breakers_open" && g.Labels["site"] == "e1" {
			open = g.Value
		}
	}
	if open != 1 {
		t.Fatalf("cdn_breakers_open{site=e1} = %d with one breaker open on the first of two edges, want 1", open)
	}
}

// TestEdgeWaitsOnInjectedClock: an edge on a clock.Wheel takes every wait on
// a failing upstream from that wheel. The retry schedule completes, the
// breaker opens, and it goes half-open again because the test advances the
// wheel — never because wall time passed.
func TestEdgeWaitsOnInjectedClock(t *testing.T) {
	testutil.CheckGoroutines(t)
	wh := clock.NewWheel(clock.WheelConfig{})
	o := NewOrigin(OriginConfig{Site: site("o1", "X"), ChunkDuration: time.Second})
	feedFrames(o, "b1", framesPerTestChunk)
	flaky := &flakyStore{inner: o}
	flaky.failLists.Store(true)
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: flaky}, nil },
		Retry:   resilience.Policy{MaxAttempts: 3, BaseDelay: 20 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Jitter: -1},
		Breaker: resilience.BreakerConfig{FailureThreshold: 3, OpenFor: time.Second},
		Clock:   wh,
	})
	// poll runs one ChunkList call, ticking the wheel only while the call is
	// parked on it, and returns how far the wheel had to move.
	poll := func() (*media.ChunkList, time.Duration, error) {
		type result struct {
			list *media.ChunkList
			err  error
		}
		done := make(chan result, 1)
		start := wh.Now()
		go func() {
			list, err := e.ChunkList(context.Background(), "b1")
			done <- result{list, err}
		}()
		for {
			select {
			case r := <-done:
				return r.list, wh.Now().Sub(start), r.err
			default:
			}
			if wh.Pending() > 0 {
				wh.Advance(wh.Resolution())
			} else {
				runtime.Gosched()
			}
		}
	}

	// Three attempts, two back-offs (20 ms, then 40 ms), all on the wheel.
	if _, waited, err := poll(); err == nil || waited != 60*time.Millisecond {
		t.Fatalf("failing poll: err %v after %v on the wheel, want an error after 60ms", err, waited)
	}
	if got := flaky.listErrs.Load(); got != 3 {
		t.Fatalf("upstream saw %d attempts, want 3", got)
	}
	if e.openBreakers() != 1 {
		t.Fatal("three consecutive failures did not open the breaker")
	}
	// Open: the next poll fails fast, reaching neither the upstream nor the wheel.
	if _, waited, err := poll(); !errors.Is(err, resilience.ErrOpen) || waited != 0 || flaky.listErrs.Load() != 3 {
		t.Fatalf("poll on an open breaker: err %v, waited %v, upstream attempts %d", err, waited, flaky.listErrs.Load())
	}
	// The cool-down is wheel time: one Advance later the breaker admits a
	// probe, which finds the upstream healed and closes it.
	wh.Advance(time.Second)
	flaky.failLists.Store(false)
	list, _, err := poll()
	if err != nil || len(list.Chunks) != 1 {
		t.Fatalf("probe after the cool-down: list %+v, err %v", list, err)
	}
	if e.openBreakers() != 0 {
		t.Fatal("a successful probe did not close the breaker")
	}
}
