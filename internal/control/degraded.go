package control

import (
	"crypto/ed25519"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// This file is the origin half of DESIGN.md §6.3's degraded mode: the
// control plane can crash or partition away, but live delivery must not
// stop. AuthCache sits on the origin's RTMP auth path: a publisher or
// viewer the control plane authorized once keeps reconnecting through an
// outage on the cached grant (TTL-bounded), so an origin crash during a
// control outage does not cascade into dead broadcasts. The viewer half is
// hls.FailoverPoller's last-known edge; a join during an outage answers
// ErrUnavailable.

// Degraded-mode instrument names.
const (
	// metricUnavailable counts auth lookups that found the control plane
	// unreachable (cache hit or not).
	metricUnavailable = "control_unavailable_total"
	// metricStaleServed counts handshakes actually admitted from a cached
	// grant while the control plane was unreachable.
	metricStaleServed = "control_stale_served_total"
)

// AuthCacheConfig tunes an AuthCache.
type AuthCacheConfig struct {
	// Service is the live control plane consulted first. Required.
	Service *Service
	// TTL bounds how long a cached grant outlives its last live
	// confirmation; zero means 5 minutes. The TTL is the revocation
	// horizon: a broadcast ended during an outage keeps admitting its
	// already-authorized clients at most this long.
	TTL time.Duration
	// Gate, when set, simulates the origin↔control link: a non-nil error
	// means the link is partitioned and the live lookup must not be
	// attempted. A crashed service needs no gate: its ErrUnavailable is the
	// outage signal.
	Gate func() error
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Metrics registers the degraded-mode instruments; nil means private.
	Metrics *metrics.Registry
}

type authGrantKey struct {
	broadcastID string
	token       string
	role        string
}

// AuthCache implements rtmp.Auth over a Service with a TTL'd grant cache
// that keeps serving while the control plane is crashed or partitioned.
type AuthCache struct {
	cfg AuthCacheConfig
	clk clock.Clock

	unavailable *metrics.Counter
	staleServed *metrics.Counter

	mu     sync.Mutex
	grants map[authGrantKey]time.Time // grant → expiry
	keys   map[string]ed25519.PublicKey
}

// NewAuthCache builds the cache and registers its instruments: the shared
// unavailable/stale counters plus a control_stale_grants gauge sampling the
// number of unexpired cached grants (the blast radius an outage could serve
// from).
func NewAuthCache(cfg AuthCacheConfig) *AuthCache {
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	ac := &AuthCache{
		cfg:         cfg,
		clk:         cfg.Clock,
		unavailable: reg.Counter(metricUnavailable),
		staleServed: reg.Counter(metricStaleServed),
		grants:      make(map[authGrantKey]time.Time),
		keys:        make(map[string]ed25519.PublicKey),
	}
	reg.GaugeFunc("control_stale_grants", func() int64 {
		ac.mu.Lock()
		defer ac.mu.Unlock()
		now := ac.clk.Now()
		var n int64
		for _, exp := range ac.grants {
			if exp.After(now) {
				n++
			}
		}
		return n
	})
	return ac
}

// partitioned reports whether the origin↔control link is cut, which reads
// as the same outage as a crashed service.
func (ac *AuthCache) partitioned() bool {
	return ac.cfg.Gate != nil && ac.cfg.Gate() != nil
}

// Authorize implements rtmp.Auth. Live answers are authoritative both ways:
// a yes refreshes the cached grant's TTL, a refusal revokes it (the
// broadcast ended or the token was never valid). Only an outage — the link
// partitioned, or ErrUnavailable from the service, even from a crash that
// lands mid-lookup — is answered from the cache, and only within the TTL.
func (ac *AuthCache) Authorize(broadcastID, token, role string) bool {
	key := authGrantKey{broadcastID: broadcastID, token: token, role: role}
	err := ErrUnavailable
	if !ac.partitioned() {
		err = ac.cfg.Service.Authorize(broadcastID, token, role)
	}
	if !errors.Is(err, ErrUnavailable) {
		ac.mu.Lock()
		if err == nil {
			ac.grants[key] = ac.clk.Now().Add(ac.cfg.TTL)
		} else {
			delete(ac.grants, key)
		}
		ac.mu.Unlock()
		return err == nil
	}
	ac.unavailable.Inc()
	ac.mu.Lock()
	exp, ok := ac.grants[key]
	ac.mu.Unlock()
	if !ok || !exp.After(ac.clk.Now()) {
		return false
	}
	ac.staleServed.Inc()
	return true
}

// PublicKey implements rtmp.Auth, caching the last live key per broadcast
// so signed streams keep verifying through an outage.
func (ac *AuthCache) PublicKey(broadcastID string) ed25519.PublicKey {
	var k ed25519.PublicKey
	err := ErrUnavailable
	if !ac.partitioned() {
		k, err = ac.cfg.Service.PublicKey(broadcastID)
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if err != nil {
		ac.unavailable.Inc()
		return ac.keys[broadcastID]
	}
	if k != nil {
		ac.keys[broadcastID] = k
	}
	return k
}

// Evict drops every cached grant and key of the given broadcasts. The
// platform janitor calls it once per sweep with every broadcast the sweep
// collects, so the grants are scanned once per sweep, not once per
// broadcast, under the lock every RTMP handshake's Authorize takes.
func (ac *AuthCache) Evict(broadcastIDs []string) {
	if len(broadcastIDs) == 0 {
		return
	}
	gone := make(map[string]struct{}, len(broadcastIDs))
	for _, id := range broadcastIDs {
		gone[id] = struct{}{}
	}
	ac.mu.Lock()
	defer ac.mu.Unlock()
	for k := range ac.grants {
		if _, ok := gone[k.broadcastID]; ok {
			delete(ac.grants, k)
		}
	}
	for _, id := range broadcastIDs {
		delete(ac.keys, id)
	}
}
