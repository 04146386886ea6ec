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
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
)

func siteAt(id string, lat, lon float64) geo.Datacenter {
	return geo.Datacenter{ID: id, Location: geo.Location{City: id, Lat: lat, Lon: lon}}
}

func TestNearestTieBreaksBySmallerSiteID(t *testing.T) {
	// Two sites mirrored east/west of the query point are exactly
	// equidistant; the smaller ID must win regardless of catalog order.
	topo := Build(TopologyConfig{
		OriginSites: []geo.Datacenter{siteAt("o-zulu", 0, 10), siteAt("o-alpha", 0, -10)},
		EdgeSites:   []geo.Datacenter{siteAt("e-zulu", 0, 10), siteAt("e-alpha", 0, -10)},
	})
	at := geo.Location{City: "mid", Lat: 0, Lon: 0}
	if o := topo.NearestOrigin(at); o.Site().ID != "o-alpha" {
		t.Fatalf("NearestOrigin tie = %s, want o-alpha", o.Site().ID)
	}
	if e := topo.NearestEdge(at); e.Site().ID != "e-alpha" {
		t.Fatalf("NearestEdge tie = %s, want e-alpha", e.Site().ID)
	}
}

func TestOriginForForgottenAfterRelease(t *testing.T) {
	topo := Build(TopologyConfig{
		OriginSites: []geo.Datacenter{siteAt("o1", 0, 0)},
		EdgeSites:   []geo.Datacenter{siteAt("e1", 0, 0)},
	})
	topo.AssignBroadcast("b1", topo.Origins[0], nil)
	if o, ok := topo.OriginFor("b1"); !ok || o != topo.Origins[0] {
		t.Fatalf("OriginFor(b1) = %v, %v", o, ok)
	}
	topo.ReleaseBroadcast("b1")
	if _, ok := topo.OriginFor("b1"); ok {
		t.Fatal("OriginFor(b1) still set after ReleaseBroadcast")
	}
	// An edge resolving the released broadcast now gets NotFound.
	if _, err := topo.Edges[0].ChunkList(context.Background(), "b1"); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("ChunkList after release = %v, want ErrNotFound", err)
	}
}

func TestNearestEdgeSkipsIneligibleNodes(t *testing.T) {
	topo := Build(TopologyConfig{
		OriginSites: []geo.Datacenter{siteAt("o-near", 0, 0), siteAt("o-far", 0, 40)},
		EdgeSites:   []geo.Datacenter{siteAt("e-near", 0, 0), siteAt("e-far", 0, 40)},
	})
	at := geo.Location{City: "here", Lat: 0, Lon: 1}

	// Healthy fleet: nearest wins.
	if e := topo.NearestEdge(at); e.Site().ID != "e-near" {
		t.Fatalf("NearestEdge = %s, want e-near", e.Site().ID)
	}

	// Mark the near nodes draining/down via the health predicate:
	// assignment must move to the farther, healthy siblings.
	bad := map[string]bool{"e-near": true, "o-near": true}
	var mu sync.Mutex
	topo.SetEligibility(func(role, siteID string) bool {
		mu.Lock()
		defer mu.Unlock()
		return !bad[siteID]
	})
	if e := topo.NearestEdge(at); e.Site().ID != "e-far" {
		t.Fatalf("NearestEdge with e-near ineligible = %s, want e-far", e.Site().ID)
	}
	if o := topo.NearestOrigin(at); o.Site().ID != "o-far" {
		t.Fatalf("NearestOrigin with o-near ineligible = %s, want o-far", o.Site().ID)
	}

	// Recovery: the near edge becomes eligible again and wins back.
	mu.Lock()
	delete(bad, "e-near")
	mu.Unlock()
	if e := topo.NearestEdge(at); e.Site().ID != "e-near" {
		t.Fatalf("NearestEdge after recovery = %s, want e-near", e.Site().ID)
	}
}

func TestNearestFallsBackWhenWholeFleetIneligible(t *testing.T) {
	topo := Build(TopologyConfig{
		OriginSites: []geo.Datacenter{siteAt("o1", 0, 0)},
		EdgeSites:   []geo.Datacenter{siteAt("e1", 0, 0), siteAt("e2", 0, 5)},
	})
	topo.SetEligibility(func(string, string) bool { return false })
	at := geo.Location{City: "here", Lat: 0, Lon: 0}
	// A health feed that rejects everything must degrade to plain nearest,
	// never to an empty assignment.
	if e := topo.NearestEdge(at); e == nil || e.Site().ID != "e1" {
		t.Fatalf("NearestEdge with empty fleet = %v, want nearest fallback e1", e)
	}
	if o := topo.NearestOrigin(at); o == nil {
		t.Fatal("NearestOrigin with empty fleet = nil, want nearest fallback")
	}
}

// TestNearestSiteAllocFree: the nearest-site search runs on every broadcast
// start, join and resolve, so it must allocate nothing, with or without an
// eligibility predicate.
func TestNearestSiteAllocFree(t *testing.T) {
	topo := Build(TopologyConfig{})
	at := geo.Location{City: "here", Lat: 40, Lon: -74}
	search := func() {
		topo.NearestOrigin(at)
		topo.NearestEdge(at)
	}
	if n := testing.AllocsPerRun(100, search); n != 0 {
		t.Fatalf("nearest-site search: %v allocs, want 0", n)
	}
	topo.SetEligibility(func(role, siteID string) bool { return siteID != "none" })
	if n := testing.AllocsPerRun(100, search); n != 0 {
		t.Fatalf("nearest-site search with eligibility: %v allocs, want 0", n)
	}
}

// blockingStore parks every call until released, letting tests hold an
// edge's inflight slots occupied.
type blockingStore struct {
	unblock chan struct{}
	list    *media.ChunkList
}

func (s *blockingStore) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	select {
	case <-s.unblock:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.list, nil
}

func (s *blockingStore) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	select {
	case <-s.unblock:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return nil, hls.ErrNotFound
}

func TestEdgeShedsWhenOverCapacity(t *testing.T) {
	up := &blockingStore{unblock: make(chan struct{}), list: &media.ChunkList{BroadcastID: "b1"}}
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "X"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: up}, nil },
	})
	e.SetLimits(1, 1, 10*time.Millisecond)

	ctx := context.Background()
	const callers = 8
	var (
		wg     sync.WaitGroup
		sheds  atomic.Int64
		others atomic.Int64
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Admission happens before the single-flight group, so even
			// same-broadcast callers each occupy a slot.
			_, err := e.ChunkList(ctx, "b1")
			switch {
			case errors.Is(err, hls.ErrOverloaded):
				var oe *hls.OverloadedError
				if !errors.As(err, &oe) || oe.RetryAfter != time.Second {
					t.Errorf("shed err = %#v, want Retry-After 1s", err)
				}
				sheds.Add(1)
			case err != nil:
				others.Add(1)
			}
		}()
	}
	// Give the goroutines time to pile up, then release the upstream.
	time.Sleep(50 * time.Millisecond)
	close(up.unblock)
	wg.Wait()

	if sheds.Load() == 0 {
		t.Fatal("no caller was shed despite 8 concurrent calls against MaxInflight=1")
	}
	if got := e.m.sheds.Value(); got != sheds.Load() {
		t.Fatalf("cdn_sheds_total = %d, want %d", got, sheds.Load())
	}
	if others.Load() != 0 {
		t.Fatalf("%d callers saw non-shed errors", others.Load())
	}
}

func TestEdgeSetLimitsReenablesService(t *testing.T) {
	up := &blockingStore{unblock: make(chan struct{}), list: &media.ChunkList{BroadcastID: "b1"}}
	close(up.unblock) // never block
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "X"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: up}, nil },
	})
	e.SetLimits(1, 0, time.Millisecond)
	// Sequential calls fit within the cap.
	if _, err := e.ChunkList(context.Background(), "b1"); err != nil {
		t.Fatalf("under-limit call failed: %v", err)
	}
	// Lifting the cap entirely disables shedding.
	e.SetLimits(0, 0, 0)
	for i := 0; i < 5; i++ {
		if _, err := e.ChunkList(context.Background(), "b1"); err != nil {
			t.Fatalf("call %d after SetLimits(0,...) failed: %v", i, err)
		}
	}
}

// TestEdgeSetLimitsAdmitsQueued: lifting or raising the cap admits the
// requests queued behind the old one at once, oldest first, instead of
// leaving them to be shed at their queue deadline. The edge runs on a
// clock.Wheel that never advances, so a waiter the new limits forget stays
// parked and the test fails on its real-time bound.
func TestEdgeSetLimitsAdmitsQueued(t *testing.T) {
	wh := clock.NewWheel(clock.WheelConfig{})
	e := NewEdge(EdgeConfig{Site: site("e1", "X"), Clock: wh})
	e.SetLimits(1, 2, time.Second)
	ctx := context.Background()
	hold, err := e.admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// queue starts one request and returns once it waits on the wheel; the
	// channel yields its slot's release, which the test holds to the end.
	type admission struct {
		release func()
		err     error
	}
	queue := func() chan admission {
		done := make(chan admission, 1)
		pending := wh.Pending()
		go func() {
			rel, err := e.admit(ctx)
			done <- admission{rel, err}
		}()
		for wh.Pending() == pending {
			runtime.Gosched()
		}
		return done
	}
	admitted := func(name string, done chan admission) func() {
		t.Helper()
		select {
		case a := <-done:
			if a.err != nil {
				t.Fatalf("%s: %v, want admitted", name, a.err)
			}
			return a.release
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still queued after SetLimits", name)
		}
		return nil
	}
	first, second := queue(), queue()
	start := wh.Now()

	e.SetLimits(2, 2, time.Second) // one more slot: the oldest waiter gets it
	releaseFirst := admitted("oldest waiter", first)
	e.limit.mu.Lock()
	queued := len(e.limit.waiters)
	e.limit.mu.Unlock()
	if queued != 1 {
		t.Fatalf("%d waiters queued after raising the cap by one, want 1", queued)
	}
	e.SetLimits(0, 0, 0) // shedding off: every waiter is admitted
	releaseSecond := admitted("second waiter", second)
	hold()
	releaseFirst()
	releaseSecond()
	e.limit.mu.Lock()
	inflight := e.limit.inflight
	e.limit.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d slots still counted after every release", inflight)
	}
	if !wh.Now().Equal(start) || e.m.sheds.Value() != 0 {
		t.Fatalf("wheel moved %v, %d sheds; want admission with no wait and no shed", wh.Now().Sub(start), e.m.sheds.Value())
	}
}

func TestEdgeDrainAndKillLifecycle(t *testing.T) {
	up := &blockingStore{unblock: make(chan struct{}), list: &media.ChunkList{BroadcastID: "b1"}}
	close(up.unblock)
	e := NewEdge(EdgeConfig{
		Site:    site("e1", "X"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: up}, nil },
	})
	if e.Draining() || e.Killed() {
		t.Fatal("fresh edge not active")
	}

	// Draining edges keep serving — viewers migrate via the hint, they are
	// not cut off.
	e.Drain()
	if !e.Draining() {
		t.Fatal("Drain() did not mark the edge draining")
	}
	if _, err := e.ChunkList(context.Background(), "b1"); err != nil {
		t.Fatalf("draining edge refused a poll: %v", err)
	}

	// Killed edges refuse everything.
	e.Kill()
	if !e.Killed() || e.Draining() {
		t.Fatalf("Killed=%v Draining=%v after Kill", e.Killed(), e.Draining())
	}
	if _, err := e.ChunkList(context.Background(), "b1"); !errors.Is(err, ErrEdgeDown) {
		t.Fatalf("killed edge ChunkList err = %v, want ErrEdgeDown", err)
	}
	if _, err := e.Chunk(context.Background(), "b1", 0); !errors.Is(err, ErrEdgeDown) {
		t.Fatalf("killed edge Chunk err = %v, want ErrEdgeDown", err)
	}

	// Kill is terminal: Drain cannot resurrect it.
	e.Drain()
	if !e.Killed() {
		t.Fatal("Drain() after Kill() changed state")
	}
}

func TestRelayFallsBackToOriginWhenGatewayKilled(t *testing.T) {
	// Gateways are matched by city, so the gateway edge shares the
	// origin's city.
	gwSite := siteAt("e-gw", 0, 0)
	gwSite.Location.City = "o1"
	topo := Build(TopologyConfig{
		OriginSites: []geo.Datacenter{siteAt("o1", 0, 0)},
		EdgeSites:   []geo.Datacenter{gwSite, siteAt("e-far", 0, 40)},
	})
	o := topo.Origins[0]
	topo.AssignBroadcast("b1", o, nil)
	feedFrames(o, "b1", 60)

	far := topo.Edges[1]
	if gw := topo.GatewayFor(o); gw != topo.Edges[0] {
		t.Fatalf("gateway = %v, want the co-located edge", gw)
	}
	// Healthy fleet: the far edge pulls through the relay.
	if _, err := far.ChunkList(context.Background(), "b1"); err != nil {
		t.Fatalf("relay pull: %v", err)
	}
	gwPulls := topo.Edges[0].m.listPulls.Value()
	if gwPulls == 0 {
		t.Fatal("gateway never pulled — relay path not exercised")
	}

	// Kill the gateway: the far edge must survive by pulling the origin
	// direct instead of dying with the relay.
	topo.Edges[0].Kill()
	far.invalidate("b1", 99) // force a fresh pull
	if _, err := far.ChunkList(context.Background(), "b1"); err != nil {
		t.Fatalf("pull with killed gateway: %v, want direct-origin fallback", err)
	}
	if got := topo.Edges[0].m.listPulls.Value(); got != gwPulls {
		t.Fatalf("killed gateway pulled again (%d → %d)", gwPulls, got)
	}
}
