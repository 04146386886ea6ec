package control

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

func counterValue(reg *metrics.Registry, name string) int64 {
	var v int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			v += c.Value
		}
	}
	return v
}

func gaugeValue(t *testing.T, reg *metrics.Registry, name string) int64 {
	t.Helper()
	for _, g := range reg.Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %q not registered", name)
	return 0
}

// TestAuthCacheServesGrantsThroughOutage: the heart of degraded-mode auth —
// a grant the control plane confirmed keeps admitting the client while the
// control plane is down, but only until its TTL.
func TestAuthCacheServesGrantsThroughOutage(t *testing.T) {
	s := newTestService()
	vc := clock.NewWheel(clock.WheelConfig{Epoch: time.Unix(0, 0)})
	reg := metrics.NewRegistry()
	ac := NewAuthCache(AuthCacheConfig{Service: s, TTL: time.Minute, Clock: vc, Metrics: reg})

	u := s.Register("alice")
	grant, err := s.StartBroadcast(u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	if !ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("live authorize failed")
	}
	if got := gaugeValue(t, reg, "control_stale_grants"); got != 1 {
		t.Fatalf("control_stale_grants = %d, want 1", got)
	}

	s.Crash()
	if !ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("cached grant refused during outage")
	}
	if ac.Authorize(grant.BroadcastID, "forged", "publisher") {
		t.Fatal("unconfirmed token admitted during outage")
	}
	if counterValue(reg, metricUnavailable) == 0 {
		t.Fatal("control_unavailable_total did not count")
	}
	if counterValue(reg, metricStaleServed) != 1 {
		t.Fatalf("control_stale_served_total = %d, want 1", counterValue(reg, metricStaleServed))
	}

	vc.Advance(2 * time.Minute)
	if ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("expired grant admitted during outage")
	}
	if got := gaugeValue(t, reg, "control_stale_grants"); got != 0 {
		t.Fatalf("control_stale_grants after expiry = %d, want 0", got)
	}
}

// TestAuthCacheLiveNoRevokes: an authoritative "no" from a reachable
// control plane (the broadcast ended) must evict the cached grant — a
// subsequent outage must not resurrect it.
func TestAuthCacheLiveNoRevokes(t *testing.T) {
	s := newTestService()
	ac := NewAuthCache(AuthCacheConfig{Service: s})
	u := s.Register("alice")
	grant, _ := s.StartBroadcast(u.ID, geo.Location{})
	if !ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("live authorize failed")
	}
	if err := s.EndBroadcast(grant.BroadcastID, grant.Token); err != nil {
		t.Fatal(err)
	}
	if ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("ended broadcast still authorized live")
	}
	s.Crash()
	if ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("revoked grant resurrected during outage")
	}
}

// TestAuthCachePartitionGate: a gate error (origin↔control partition) must
// force the cached path even though the service itself is healthy.
func TestAuthCachePartitionGate(t *testing.T) {
	s := newTestService()
	partitioned := false
	ac := NewAuthCache(AuthCacheConfig{
		Service: s,
		Gate: func() error {
			if partitioned {
				return errors.New("link cut")
			}
			return nil
		},
	})
	u := s.Register("alice")
	grant, _ := s.StartBroadcast(u.ID, geo.Location{})
	if !ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("live authorize failed")
	}
	if k := ac.PublicKey(grant.BroadcastID); k != nil {
		t.Fatalf("unexpected key before registration: %v", k)
	}

	partitioned = true
	if !ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("cached grant refused during partition")
	}
	// End the broadcast behind the partition: the cache cannot see the end,
	// so the grant keeps serving (TTL-bounded) — that is the documented
	// trade, verified here so a behavior change is a conscious one.
	s.ForceEnd(grant.BroadcastID)
	if !ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("cached grant dropped mid-partition without TTL expiry")
	}
	partitioned = false
	if ac.Authorize(grant.BroadcastID, grant.Token, "publisher") {
		t.Fatal("healed partition did not restore authoritative answers")
	}
}

// resolverFixture stands up a journaled Service (so Recover has something
// to replay) behind its HTTP handler, with a ResolverCache on a breaker
// tuned for test speed.
func resolverFixture(t *testing.T, reg *metrics.Registry) (*Service, *ResolverCache) {
	t.Helper()
	s := newJournaledService(journal.NewMem(), nil)
	srv := httptest.NewServer(Handler("/api", s))
	t.Cleanup(srv.Close)
	rc := NewResolverCache(ResolverCacheConfig{
		Client: &Client{BaseURL: srv.URL + "/api"},
		TTL:    time.Minute,
		Breaker: resilience.BreakerConfig{
			FailureThreshold: 2,
			OpenFor:          time.Millisecond,
		},
		Metrics: reg,
	})
	return s, rc
}

// TestResolverCacheServesStaleEdgeDuringOutage: resolve once live, then keep
// resolving from cache across a control crash.
func TestResolverCacheServesStaleEdgeDuringOutage(t *testing.T) {
	reg := metrics.NewRegistry()
	s, rc := resolverFixture(t, reg)
	u := s.Register("alice")
	grant, _ := s.StartBroadcast(u.ID, geo.Location{})
	ctx := context.Background()

	url, err := rc.ResolveEdge(ctx, grant.BroadcastID, geo.Location{})
	if err != nil || url == "" {
		t.Fatalf("live resolve: %q, %v", url, err)
	}

	s.Crash()
	for i := 0; i < 5; i++ {
		got, err := rc.ResolveEdge(ctx, grant.BroadcastID, geo.Location{})
		if err != nil || got != url {
			t.Fatalf("degraded resolve %d: %q, %v (want %q)", i, got, err, url)
		}
	}
	if counterValue(reg, metricStaleServed) == 0 {
		t.Fatal("stale resolves not counted")
	}
	// An unknown broadcast has nothing cached: the outage error surfaces.
	if _, err := rc.ResolveEdge(ctx, "bcast-999", geo.Location{}); err == nil {
		t.Fatal("uncached resolve succeeded during outage")
	}

	s.Recover()
	// The breaker may need a probe to close; within a few attempts the live
	// path must be back.
	var lastErr error
	for i := 0; i < 10; i++ {
		if _, lastErr = rc.ResolveEdge(ctx, grant.BroadcastID, geo.Location{}); lastErr == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("live resolve after recovery: %v", lastErr)
	}
}

// TestResolverCacheQueuesJoinsAndFlushes: joins during an outage return a
// degraded grant against the cached edge and queue for replay; FlushJoins
// lands them on the recovered control plane.
func TestResolverCacheQueuesJoinsAndFlushes(t *testing.T) {
	reg := metrics.NewRegistry()
	s, rc := resolverFixture(t, reg)
	u := s.Register("alice")
	grant, _ := s.StartBroadcast(u.ID, geo.Location{})
	ctx := context.Background()

	if _, err := rc.ResolveEdge(ctx, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatal(err)
	}

	s.Crash()
	for i := uint64(0); i < 3; i++ {
		g, degraded, err := rc.Join(ctx, 100+i, grant.BroadcastID, geo.Location{})
		if err != nil {
			t.Fatalf("degraded join %d: %v", i, err)
		}
		if !degraded || g.Protocol != ProtoHLS || g.HLSBaseURL == "" {
			t.Fatalf("degraded join %d grant = %+v (degraded=%v)", i, g, degraded)
		}
	}
	if rc.QueuedJoins() != 3 {
		t.Fatalf("QueuedJoins = %d, want 3", rc.QueuedJoins())
	}
	if got := gaugeValue(t, reg, "control_queued_joins"); got != 3 {
		t.Fatalf("control_queued_joins gauge = %d, want 3", got)
	}
	// Flushing against a dead control plane must keep the queue intact.
	if n := rc.FlushJoins(ctx); n != 0 {
		t.Fatalf("flush against crashed control plane replayed %d", n)
	}
	if rc.QueuedJoins() != 3 {
		t.Fatalf("queue shrank against dead control plane: %d", rc.QueuedJoins())
	}

	s.Recover()
	// The breaker cooldown is 1ms; retry the flush until the probe lands.
	deadline := time.Now().Add(time.Second)
	total := 0
	for total < 3 && time.Now().Before(deadline) {
		total += rc.FlushJoins(ctx)
		time.Sleep(2 * time.Millisecond)
	}
	if total != 3 {
		t.Fatalf("flushed %d joins, want 3", total)
	}
	if rc.QueuedJoins() != 0 {
		t.Fatalf("QueuedJoins after flush = %d", rc.QueuedJoins())
	}
	joins, err := s.Joins(grant.BroadcastID)
	if err != nil || len(joins) != 3 {
		t.Fatalf("control plane recorded %d joins (err %v), want 3", len(joins), err)
	}
}

// TestResolverCachePermanentErrorsStayAuthoritative: a live "no such
// broadcast" must surface as-is — not trip the breaker, not serve stale.
func TestResolverCachePermanentErrorsStayAuthoritative(t *testing.T) {
	_, rc := resolverFixture(t, nil)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := rc.ResolveEdge(ctx, "bcast-404", geo.Location{}); !errors.Is(err, ErrNoBroadcast) {
			t.Fatalf("resolve %d err = %v, want ErrNoBroadcast", i, err)
		}
	}
	if _, _, err := rc.Join(ctx, 1, "bcast-404", geo.Location{}); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("join err = %v, want ErrNoBroadcast", err)
	}
	if rc.QueuedJoins() != 0 {
		t.Fatal("authoritative rejection queued a join")
	}
}
