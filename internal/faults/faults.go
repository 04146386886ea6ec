// Package faults is a deterministic fault-injection harness for the
// delivery path. It wraps the seams the paper's traces show failing in
// production — the origin store an edge pulls from (§4.3 chunks rolling out
// of the origin window), the HTTP hops of the HLS/pubsub path (§5.3
// gateway–edge transfers), and the raw RTMP sockets (§5.2 bursty, lossy
// uploads) — and injects error returns, latency spikes, connection resets,
// and partial reads at configurable rates. All randomness draws from an
// internal/rng source, so a (seed, config) pair fully determines the fault
// schedule and chaos tests are reproducible.
package faults

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/rng"
)

// ErrInjected is the error every injected failure returns (possibly
// wrapped). Tests assert on it to distinguish injected faults from real
// bugs.
var ErrInjected = errors.New("faults: injected failure")

// sleep waits d, or until ctx is done, on the host's clock.
func sleep(ctx context.Context, d time.Duration) error {
	//lint:allow walltime faults are injected into real sockets and real processes, whose waits are the host's time
	return clock.Real{}.Sleep(ctx, d)
}

// Config sets the per-operation fault rates. All rates are probabilities in
// [0, 1]; zero disables that fault class.
type Config struct {
	// Seed drives the injector's rng stream.
	Seed uint64
	// ErrorRate is the probability an operation fails outright with
	// ErrInjected (an origin 5xx, a refused pull).
	ErrorRate float64
	// LatencyRate is the probability an operation is delayed by a spike
	// drawn uniformly from [LatencyMin, LatencyMax].
	LatencyRate float64
	// LatencyMin and LatencyMax bound injected latency spikes. When both
	// are zero a spiked operation sleeps 1 ms.
	LatencyMin, LatencyMax time.Duration
	// ResetRate is the per-read/write probability a wrapped connection is
	// reset (closed under the caller, like a mid-stream RST).
	ResetRate float64
	// PartialReadRate is the probability a read is truncated early —
	// a conn read returning fewer bytes, an HTTP body cut mid-transfer.
	PartialReadRate float64
	// OverloadRate is the probability an HTTP request is answered with a
	// synthesized 503 + Retry-After instead of reaching the server — an
	// edge shedding load before the request ever lands.
	OverloadRate float64
	// OverloadRetryAfter is the Retry-After value attached to synthesized
	// 503s; zero means 1 second.
	OverloadRetryAfter time.Duration
}

// Stats count injected faults by class.
type Stats struct {
	Errors       atomic.Int64
	Latencies    atomic.Int64
	Resets       atomic.Int64
	PartialReads atomic.Int64
	Overloads    atomic.Int64
}

// Total returns the sum across classes.
func (s *Stats) Total() int64 {
	return s.Errors.Load() + s.Latencies.Load() + s.Resets.Load() +
		s.PartialReads.Load() + s.Overloads.Load()
}

// Injector decides, deterministically, which operations fail and how. One
// Injector may wrap many objects; decisions are serialized so the schedule
// depends only on the order of operations, not on which wrapper asks.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	src   *rng.Source
	stats Stats
}

// New builds an Injector seeded from cfg.Seed.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, src: rng.New(cfg.Seed)}
}

// Stats exposes the fault counters.
func (i *Injector) Stats() *Stats { return &i.stats }

// SetConfig swaps the fault rates at runtime without resetting the rng
// stream — chaos tests use it to stage scenarios (e.g. "origin fully down"
// for a window, then recovery).
func (i *Injector) SetConfig(cfg Config) {
	i.mu.Lock()
	defer i.mu.Unlock()
	seed := i.cfg.Seed
	i.cfg = cfg
	i.cfg.Seed = seed
}

// Config returns the current rates.
func (i *Injector) Config() Config {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cfg
}

// roll draws one uniform and reports whether a fault at the given rate
// fires.
func (i *Injector) roll(rate float64) bool {
	if rate <= 0 {
		return false
	}
	i.mu.Lock()
	hit := i.src.Bool(rate)
	i.mu.Unlock()
	return hit
}

// latencySpike draws a spike duration from the configured window.
func (i *Injector) latencySpike() time.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	lo, hi := i.cfg.LatencyMin, i.cfg.LatencyMax
	if hi <= lo {
		if lo > 0 {
			return lo
		}
		return time.Millisecond
	}
	return lo + time.Duration(i.src.Uint64n(uint64(hi-lo)))
}

// shouldError rolls the outright-failure class, counting a hit.
func (i *Injector) shouldError() bool {
	if i.roll(i.errorRate()) {
		i.stats.Errors.Add(1)
		return true
	}
	return false
}

// maybeLatency rolls the latency class and returns the spike to sleep (0 =
// no spike), counting a hit.
func (i *Injector) maybeLatency() time.Duration {
	if i.roll(i.latencyRate()) {
		i.stats.Latencies.Add(1)
		return i.latencySpike()
	}
	return 0
}

func (i *Injector) errorRate() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cfg.ErrorRate
}

func (i *Injector) latencyRate() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cfg.LatencyRate
}

func (i *Injector) resetRate() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cfg.ResetRate
}

func (i *Injector) partialReadRate() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cfg.PartialReadRate
}

func (i *Injector) overloadRate() float64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.cfg.OverloadRate
}

func (i *Injector) overloadRetryAfter() time.Duration {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.cfg.OverloadRetryAfter > 0 {
		return i.cfg.OverloadRetryAfter
	}
	return time.Second
}
