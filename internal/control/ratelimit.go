package control

import (
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/clock"
)

// Periscope rate-limited API clients; the paper's crawlers ran from a
// whitelisted IP range and still "were unable to keep up with the growing
// volume of broadcasts" (§3.1). KeyedLimiter is the shared token-bucket
// core: a bucket map over arbitrary string keys where every Allow call
// carries its own rate and burst, so one instance serves both fixed-rate
// per-client limiting (RateLimiter below) and plan-derived per-tenant join
// limiting (Service.JoinKey) with one sweep.

// KeyedLimiter is a clock-injected token-bucket map. Rates arrive per call
// rather than per limiter, which is what lets tenant plans differ without a
// limiter per tenant.
type KeyedLimiter struct {
	clock clock.Clock

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewKeyedLimiter builds a limiter on clk (nil means the real clock).
func NewKeyedLimiter(clk clock.Clock) *KeyedLimiter {
	if clk == nil {
		clk = clock.Real{}
	}
	return &KeyedLimiter{clock: clk, buckets: make(map[string]*bucket)}
}

// Allow reports whether one request under key may proceed now, refilling at
// rps up to burst. A key's bucket starts full. Rate changes between calls
// (e.g. a tenant plan change) apply immediately; accumulated tokens are
// clamped to the new burst.
func (kl *KeyedLimiter) Allow(key string, rps, burst float64) bool {
	now := kl.clock.Now()
	kl.mu.Lock()
	defer kl.mu.Unlock()
	b, ok := kl.buckets[key]
	if !ok {
		b = &bucket{tokens: burst, last: now}
		kl.buckets[key] = b
	}
	elapsed := now.Sub(b.last).Seconds()
	if elapsed > 0 {
		b.tokens += elapsed * rps
		b.last = now
	}
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Sweep drops buckets idle longer than maxIdle, bounding memory; returns
// the number removed.
func (kl *KeyedLimiter) Sweep(maxIdle time.Duration) int {
	now := kl.clock.Now()
	kl.mu.Lock()
	defer kl.mu.Unlock()
	n := 0
	for k, b := range kl.buckets {
		if now.Sub(b.last) > maxIdle {
			delete(kl.buckets, k)
			n++
		}
	}
	return n
}

// RateLimiterConfig tunes the per-client API limiter.
type RateLimiterConfig struct {
	// RequestsPerSecond is the sustained per-client rate (default 5).
	RequestsPerSecond float64
	// Burst is the bucket depth (default 10).
	Burst float64
	// Whitelist lists client hosts (no port) exempt from limiting — the
	// paper's whitelisted measurement range.
	Whitelist []string
	// Clock defaults to the real clock.
	Clock clock.Clock
}

// RateLimiter is an http middleware enforcing per-client token buckets,
// built on a KeyedLimiter keyed by client host.
type RateLimiter struct {
	cfg       RateLimiterConfig
	keyed     *KeyedLimiter
	whitelist map[string]bool
}

// NewRateLimiter builds a RateLimiter.
func NewRateLimiter(cfg RateLimiterConfig) *RateLimiter {
	if cfg.RequestsPerSecond <= 0 {
		cfg.RequestsPerSecond = 5
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 10
	}
	wl := make(map[string]bool, len(cfg.Whitelist))
	for _, h := range cfg.Whitelist {
		wl[h] = true
	}
	return &RateLimiter{
		cfg:       cfg,
		keyed:     NewKeyedLimiter(cfg.Clock),
		whitelist: wl,
	}
}

// Allow reports whether a request from client may proceed now.
func (rl *RateLimiter) Allow(client string) bool {
	if rl.whitelist[client] {
		return true
	}
	return rl.keyed.Allow(client, rl.cfg.RequestsPerSecond, rl.cfg.Burst)
}

// Wrap applies the limiter to a handler, answering 429 when exhausted.
func (rl *RateLimiter) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, err := net.SplitHostPort(r.RemoteAddr)
		if err != nil {
			host = r.RemoteAddr
		}
		if !rl.Allow(host) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Sweep drops buckets idle longer than maxIdle, bounding memory; returns
// the number removed.
func (rl *RateLimiter) Sweep(maxIdle time.Duration) int {
	return rl.keyed.Sweep(maxIdle)
}
