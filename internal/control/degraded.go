package control

import (
	"context"
	"crypto/ed25519"
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// This file is the client half of DESIGN.md §6.3's degraded mode: the
// control plane can crash or partition away, but live delivery must not
// stop. Two caches implement that:
//
//   - AuthCache sits on the origin's RTMP auth path. A publisher or viewer
//     the control plane authorized once keeps reconnecting through an
//     outage on the cached grant (TTL-bounded), so an origin crash during a
//     control outage does not cascade into dead broadcasts.
//   - ResolverCache sits on the viewer's control-API path. Edge mappings
//     resolve from cache while the control plane is away, joins queue and
//     replay on recovery, and a breaker keeps the outage from turning into
//     a thundering herd of doomed requests.

// Degraded-mode instrument names, shared by both caches so dashboards see
// one coherent signal regardless of which path degraded.
const (
	// metricUnavailable counts control-plane calls that failed over to the
	// degraded path (cache hit or not).
	metricUnavailable = "control_unavailable_total"
	// metricStaleServed counts requests actually answered from a stale
	// cached grant or mapping while the control plane was unreachable.
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
	// attempted. Nil means only Service.Down() gates.
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

// reachable reports whether a live control lookup should be attempted.
func (ac *AuthCache) reachable() bool {
	if ac.cfg.Service.Down() {
		return false
	}
	if ac.cfg.Gate != nil && ac.cfg.Gate() != nil {
		return false
	}
	return true
}

// Authorize implements rtmp.Auth. Live answers are authoritative both ways:
// a yes refreshes the cached grant's TTL, a no revokes it (the broadcast
// ended or the token was never valid). Only when the control plane is
// unreachable does the cache answer — and only within the TTL.
func (ac *AuthCache) Authorize(broadcastID, token, role string) bool {
	key := authGrantKey{broadcastID: broadcastID, token: token, role: role}
	if ac.reachable() {
		ok := Auth{S: ac.cfg.Service}.Authorize(broadcastID, token, role)
		ac.mu.Lock()
		if ok {
			ac.grants[key] = ac.clk.Now().Add(ac.cfg.TTL)
		} else {
			delete(ac.grants, key)
		}
		ac.mu.Unlock()
		return ok
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

// PublicKey implements rtmp.Auth, caching the last live answer per
// broadcast so signed streams keep verifying through an outage.
func (ac *AuthCache) PublicKey(broadcastID string) ed25519.PublicKey {
	if ac.reachable() {
		k := ac.cfg.Service.PublicKey(broadcastID)
		ac.mu.Lock()
		if k != nil {
			ac.keys[broadcastID] = k
		}
		ac.mu.Unlock()
		return k
	}
	ac.unavailable.Inc()
	ac.mu.Lock()
	defer ac.mu.Unlock()
	return ac.keys[broadcastID]
}

// Evict drops every cached grant and key for one broadcast. The platform
// janitor calls it when a broadcast is garbage-collected.
func (ac *AuthCache) Evict(broadcastID string) {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	for k := range ac.grants {
		if k.broadcastID == broadcastID {
			delete(ac.grants, k)
		}
	}
	delete(ac.keys, broadcastID)
}

// --- viewer-side resolver cache --------------------------------------------

// ResolverCacheConfig tunes a ResolverCache.
type ResolverCacheConfig struct {
	// Client is the live control API. Required.
	Client *Client
	// TTL bounds a cached edge mapping's life without live confirmation;
	// zero means one minute.
	TTL time.Duration
	// Breaker trips after repeated control failures so an outage costs one
	// probe per cooldown instead of a timeout per viewer per poll. Zero
	// uses the resilience defaults.
	Breaker resilience.BreakerConfig
	// Clock times the cache TTLs and the breaker's cool-down; nil means the
	// real clock.
	Clock clock.Clock
	// Metrics registers the degraded-mode instruments; nil means private.
	Metrics *metrics.Registry
}

type cachedEdge struct {
	url string
	exp time.Time
}

type queuedJoin struct {
	UserID      uint64
	BroadcastID string
	Loc         geo.Location
}

// ResolverCache is the viewer-session wrapper around the control API:
// resolve-edge and join answers are cached with TTLs, a breaker fails fast
// during an outage, joins queue while the control plane is away, and
// FlushJoins replays them on recovery — so the control plane's books catch
// up with the viewers that kept streaming without it.
type ResolverCache struct {
	cfg ResolverCacheConfig
	clk clock.Clock
	br  *resilience.Breaker

	unavailable *metrics.Counter
	staleServed *metrics.Counter

	mu     sync.Mutex
	edges  map[string]cachedEdge // broadcastID → last-known edge
	queued []queuedJoin
}

// NewResolverCache builds the cache and registers its instruments,
// including a control_queued_joins gauge over the replay backlog.
func NewResolverCache(cfg ResolverCacheConfig) *ResolverCache {
	if cfg.TTL <= 0 {
		cfg.TTL = time.Minute
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Breaker.Now == nil {
		cfg.Breaker.Now = cfg.Clock.Now
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rc := &ResolverCache{
		cfg:         cfg,
		clk:         cfg.Clock,
		br:          resilience.NewBreaker(cfg.Breaker),
		unavailable: reg.Counter(metricUnavailable),
		staleServed: reg.Counter(metricStaleServed),
		edges:       make(map[string]cachedEdge),
	}
	reg.GaugeFunc("control_queued_joins", func() int64 {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		return int64(len(rc.queued))
	})
	return rc
}

// permanentControlErr reports an answer that is authoritative, not an
// outage: falling back to cache on these would mask a real rejection.
func permanentControlErr(err error) bool {
	return errors.Is(err, ErrNoBroadcast) || errors.Is(err, ErrBadToken) ||
		errors.Is(err, ErrNotInvited) || errors.Is(err, ErrEnded)
}

// throughBreaker runs op under the breaker, but reports authoritative
// rejections as successes: the control plane answered, so the circuit is
// healthy — only outages (timeouts, 503s, refused connections) should open
// it.
func (rc *ResolverCache) throughBreaker(op func() error) error {
	if err := rc.br.Allow(); err != nil {
		return err
	}
	err := op()
	if permanentControlErr(err) {
		rc.br.Report(nil)
	} else {
		rc.br.Report(err)
	}
	return err
}

// ResolveEdge resolves the HLS edge for a broadcast: live through the
// breaker when possible (refreshing the cache and opportunistically
// replaying queued joins), from the unexpired cache when the control plane
// is unreachable. ErrNoBroadcast from a live answer is authoritative and
// evicts the cache entry.
func (rc *ResolverCache) ResolveEdge(ctx context.Context, broadcastID string, loc geo.Location) (string, error) {
	var url string
	err := rc.throughBreaker(func() error {
		var err error
		url, err = rc.cfg.Client.ResolveEdge(ctx, broadcastID, loc)
		return err
	})
	now := rc.clk.Now()
	if err == nil {
		rc.mu.Lock()
		rc.edges[broadcastID] = cachedEdge{url: url, exp: now.Add(rc.cfg.TTL)}
		rc.mu.Unlock()
		rc.flushAsyncIfQueued(ctx)
		return url, nil
	}
	if permanentControlErr(err) {
		rc.mu.Lock()
		delete(rc.edges, broadcastID)
		rc.mu.Unlock()
		return "", err
	}
	rc.unavailable.Inc()
	rc.mu.Lock()
	ce, ok := rc.edges[broadcastID]
	rc.mu.Unlock()
	if ok && ce.exp.After(now) {
		rc.staleServed.Inc()
		return ce.url, nil
	}
	return "", err
}

// Join requests a viewer grant. While the control plane is unreachable it
// degrades instead of failing: the join is queued for replay and, when an
// unexpired edge mapping is cached, a synthetic HLS grant against that edge
// is returned (degraded=true) so the viewer starts streaming immediately.
// Without a cached mapping the control error surfaces — there is nothing to
// stream from.
func (rc *ResolverCache) Join(ctx context.Context, userID uint64, broadcastID string, loc geo.Location) (grant ViewerGrant, degraded bool, err error) {
	err = rc.throughBreaker(func() error {
		var err error
		grant, err = rc.cfg.Client.Join(ctx, userID, broadcastID, loc)
		return err
	})
	if err == nil {
		if grant.HLSBaseURL != "" {
			rc.mu.Lock()
			rc.edges[broadcastID] = cachedEdge{url: grant.HLSBaseURL, exp: rc.clk.Now().Add(rc.cfg.TTL)}
			rc.mu.Unlock()
		}
		rc.flushAsyncIfQueued(ctx)
		return grant, false, nil
	}
	if permanentControlErr(err) {
		return ViewerGrant{}, false, err
	}
	rc.unavailable.Inc()
	rc.mu.Lock()
	rc.queued = append(rc.queued, queuedJoin{UserID: userID, BroadcastID: broadcastID, Loc: loc})
	ce, ok := rc.edges[broadcastID]
	rc.mu.Unlock()
	if ok && ce.exp.After(rc.clk.Now()) {
		rc.staleServed.Inc()
		return ViewerGrant{Protocol: ProtoHLS, HLSBaseURL: ce.url}, true, nil
	}
	return ViewerGrant{}, false, err
}

// QueuedJoins returns the replay backlog size.
func (rc *ResolverCache) QueuedJoins() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.queued)
}

// FlushJoins replays queued joins against the recovered control plane,
// returning how many were accepted. Replay stops at the first transient
// failure (the rest stay queued for the next flush); authoritative
// rejections — the broadcast ended while the viewer streamed degraded —
// are dropped, since there is no longer anything to record the join on.
func (rc *ResolverCache) FlushJoins(ctx context.Context) int {
	flushed := 0
	for {
		rc.mu.Lock()
		if len(rc.queued) == 0 {
			rc.mu.Unlock()
			return flushed
		}
		j := rc.queued[0]
		rc.queued = rc.queued[1:]
		rc.mu.Unlock()
		_, err := rc.cfg.Client.Join(ctx, j.UserID, j.BroadcastID, j.Loc)
		switch {
		case err == nil:
			flushed++
		case permanentControlErr(err):
			// Dropped: the broadcast is gone; nothing to replay onto.
		default:
			rc.mu.Lock()
			rc.queued = append([]queuedJoin{j}, rc.queued...)
			rc.mu.Unlock()
			return flushed
		}
	}
}

// flushAsyncIfQueued kicks one background replay after a live success —
// recovery detection without a poller. The goroutine is bounded: FlushJoins
// drains or stops at the first transient failure.
func (rc *ResolverCache) flushAsyncIfQueued(ctx context.Context) {
	rc.mu.Lock()
	n := len(rc.queued)
	rc.mu.Unlock()
	if n == 0 {
		return
	}
	go rc.FlushJoins(context.WithoutCancel(ctx))
}
