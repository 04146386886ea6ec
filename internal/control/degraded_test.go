package control

import (
	"crypto/ed25519"
	"errors"
	"math/rand"
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

// TestAuthCacheMatchesModel runs random sequences of live grants, live
// refusals, registered keys, clock steps and Evicts of random sets of
// broadcasts against a map model of the cache, and after every step reads
// the whole cache through a partition: a grant serves exactly when the model
// holds it unexpired, and a key is the one the model holds.
func TestAuthCacheMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		s := newTestService()
		vc := clock.NewWheel(clock.WheelConfig{Epoch: time.Unix(0, 0)})
		partitioned := false
		ac := NewAuthCache(AuthCacheConfig{
			Service: s,
			TTL:     time.Minute,
			Clock:   vc,
			Gate: func() error {
				if partitioned {
					return errors.New("link cut")
				}
				return nil
			},
		})
		u := s.Register("alice")
		var ids []string
		var keys []authGrantKey
		for range 6 {
			g, err := s.StartBroadcast(u.ID, geo.Location{})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, g.BroadcastID)
			keys = append(keys,
				authGrantKey{g.BroadcastID, g.Token, wire.RoleBroadcaster},
				authGrantKey{g.BroadcastID, "", wire.RoleViewer},
				authGrantKey{g.BroadcastID, "forged", wire.RoleBroadcaster})
		}
		grants := map[authGrantKey]time.Time{}
		liveKeys, cachedKeys := map[string]ed25519.PublicKey{}, map[string]ed25519.PublicKey{}
		for step := range 200 {
			switch op := rnd.Intn(10); {
			case op < 5: // a live lookup: a grant, or a refusal that revokes
				k := keys[rnd.Intn(len(keys))]
				if ac.Authorize(k.broadcastID, k.token, k.role) {
					grants[k] = vc.Now().Add(time.Minute)
				} else {
					delete(grants, k)
				}
			case op == 5: // the broadcast ends, so its live lookups refuse
				s.ForceEnd(ids[rnd.Intn(len(ids))])
			case op == 6: // a key registered, then read live, which caches it
				i := rnd.Intn(len(ids))
				id := ids[i]
				if rnd.Intn(2) == 0 {
					pub, _, err := ed25519.GenerateKey(rnd)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.RegisterPublicKey(id, keys[3*i].token, pub); err != nil {
						t.Fatal(err)
					}
					liveKeys[id] = pub
				}
				if k := ac.PublicKey(id); !k.Equal(liveKeys[id]) {
					t.Fatalf("seed %d step %d: live key %x, want %x", seed, step, k, liveKeys[id])
				}
				if k := liveKeys[id]; k != nil {
					cachedKeys[id] = k
				}
			case op == 7:
				vc.Advance(time.Duration(rnd.Intn(40)) * time.Second)
			default: // a sweep evicts a random set of broadcasts
				var set []string
				for _, id := range ids {
					if rnd.Intn(3) == 0 {
						set = append(set, id)
					}
				}
				ac.Evict(set)
				for _, id := range set {
					for k := range grants {
						if k.broadcastID == id {
							delete(grants, k)
						}
					}
					delete(cachedKeys, id)
				}
			}
			partitioned = true
			for _, k := range keys {
				exp, ok := grants[k]
				if want := ok && exp.After(vc.Now()); ac.Authorize(k.broadcastID, k.token, k.role) != want {
					t.Fatalf("seed %d step %d: %+v served %v through the partition, want %v", seed, step, k, !want, want)
				}
			}
			for _, id := range ids {
				if k := ac.PublicKey(id); !k.Equal(cachedKeys[id]) {
					t.Fatalf("seed %d step %d: %s's cached key %x, want %x", seed, step, id, k, cachedKeys[id])
				}
			}
			partitioned = false
		}
	}
}
