package control

import (
	"crypto/ed25519"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/wire"
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
	if !ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("live authorize failed")
	}
	if got := gaugeValue(t, reg, "control_stale_grants"); got != 1 {
		t.Fatalf("control_stale_grants = %d, want 1", got)
	}

	s.Crash()
	if !ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("cached grant refused during outage")
	}
	if ac.Authorize(grant.BroadcastID, "forged", wire.RoleBroadcaster) {
		t.Fatal("unconfirmed token admitted during outage")
	}
	if counterValue(reg, metricUnavailable) == 0 {
		t.Fatal("control_unavailable_total did not count")
	}
	if counterValue(reg, metricStaleServed) != 1 {
		t.Fatalf("control_stale_served_total = %d, want 1", counterValue(reg, metricStaleServed))
	}

	vc.Advance(2 * time.Minute)
	if ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
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
	if !ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("live authorize failed")
	}
	if err := s.EndBroadcast(grant.BroadcastID, grant.Token); err != nil {
		t.Fatal(err)
	}
	if ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("ended broadcast still authorized live")
	}
	s.Crash()
	if ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
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
	if !ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("live authorize failed")
	}
	if k := ac.PublicKey(grant.BroadcastID); k != nil {
		t.Fatalf("unexpected key before registration: %v", k)
	}

	partitioned = true
	if !ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("cached grant refused during partition")
	}
	// End the broadcast behind the partition: the cache cannot see the end,
	// so the grant keeps serving (TTL-bounded) — that is the documented
	// trade, verified here so a behavior change is a conscious one.
	s.ForceEnd(grant.BroadcastID)
	if !ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("cached grant dropped mid-partition without TTL expiry")
	}
	partitioned = false
	if ac.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) {
		t.Fatal("healed partition did not restore authoritative answers")
	}
}

// TestAuthCacheCrashMidLookupIsAnOutage: a crash that lands between the
// partition gate and the live lookup is an outage like any other. The
// grant and the key the control plane confirmed keep serving; neither is
// revoked, and the stream does not read as unsigned.
func TestAuthCacheCrashMidLookupIsAnOutage(t *testing.T) {
	s := newJournaledService(journal.NewMem(), nil)
	crashOnLookup := false
	ac := NewAuthCache(AuthCacheConfig{
		Service: s,
		Gate: func() error {
			if crashOnLookup {
				crashOnLookup = false
				s.Crash()
			}
			return nil
		},
	})
	u := s.Register("alice")
	g, err := s.StartBroadcast(u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPublicKey(g.BroadcastID, g.Token, pub); err != nil {
		t.Fatal(err)
	}
	if !ac.Authorize(g.BroadcastID, g.Token, wire.RoleBroadcaster) || !pub.Equal(ac.PublicKey(g.BroadcastID)) {
		t.Fatal("live lookups failed")
	}

	crashOnLookup = true
	first := ac.Authorize(g.BroadcastID, g.Token, wire.RoleBroadcaster)
	next := ac.Authorize(g.BroadcastID, g.Token, wire.RoleBroadcaster)
	s.Recover()
	crashOnLookup = true
	k := ac.PublicKey(g.BroadcastID)
	if !first || !next || !pub.Equal(k) {
		t.Fatalf("crash mid-lookup: Authorize %v, next outage lookup %v, PublicKey %x; want true, true, the cached key", first, next, k)
	}
}

// TestAuthCacheLiveHitAllocs pins what a live hit costs: every RTMP
// handshake of a broadcast lifecycle goes through it, and refreshing a
// cached grant allocates nothing.
func TestAuthCacheLiveHitAllocs(t *testing.T) {
	s := newTestService()
	ac := NewAuthCache(AuthCacheConfig{Service: s, Gate: func() error { return nil }})
	u := s.Register("alice")
	g, err := s.StartBroadcast(u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	hits := func() {
		if !ac.Authorize(g.BroadcastID, g.Token, wire.RoleBroadcaster) || !ac.Authorize(g.BroadcastID, "", wire.RoleViewer) {
			t.Fatal("live lookup refused")
		}
	}
	hits()
	if allocs := testing.AllocsPerRun(200, hits); allocs != 0 {
		t.Fatalf("two live hits allocate %.0f times, want 0", allocs)
	}
}
