package hls

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// FailoverConfig tunes a FailoverPoller.
type FailoverConfig struct {
	// Resolve asks the control plane which edge to poll. It is called once
	// at startup and again on every failover, so a remapped viewer lands
	// on whatever the fleet currently considers the nearest healthy edge.
	// Required.
	Resolve func(ctx context.Context) (baseURL string, err error)
	// NewClient builds the per-edge client; nil uses a plain Client. Tests
	// inject fault-carrying transports here.
	NewClient func(baseURL string) *Client
	// Poller is the inner polling configuration (Interval, OnChunk,
	// PreBuffer).
	Poller PollerConfig
	// FailureThreshold is how many consecutive failed polls against one
	// edge trigger a failover. Zero means 3. Overload (503) and a poisoned
	// edge (404 for a broadcast the session has already played) fail over
	// immediately regardless.
	FailureThreshold int
	// MaxFailovers bounds edge switches across the session. Zero means 8;
	// negative means unlimited. Control-plane resolve failures do NOT
	// consume this budget — they are retried separately (see
	// ResolveRetries), so a control outage cannot exhaust a session's
	// tolerance for actual edge failures.
	MaxFailovers int
	// ResolveRetries bounds consecutive resolve attempts (with capped
	// backoff) when the control plane is failing and no last-known edge is
	// cached; a session that has already resolved once falls back to its
	// cached edge instead of burning retries. Zero means 6; negative means
	// unlimited. Resolve errors marked resilience.Permanent (authoritative
	// rejections like "no such broadcast") are never retried.
	ResolveRetries int
	// Backoff schedules the waits between failover rounds and between
	// resolve retries and, through its Sleep, waits them out; the zero value
	// uses the resilience defaults and a nil Sleep means Clock's.
	Backoff resilience.Policy
	// Clock is the default Backoff.Sleep and is handed to the default
	// per-edge client (a custom NewClient sets its own); nil means the real
	// clock.
	Clock clock.Clock
	// Metrics is the registry the session's failover counters register in,
	// and is handed to the default per-edge client; nil means a private
	// registry.
	Metrics *metrics.Registry
}

// failoverMetrics are the registered instruments behind the accessor
// methods; shared across sessions registered against one registry.
type failoverMetrics struct {
	failovers      *metrics.Counter
	overloads      *metrics.Counter
	drainHints     *metrics.Counter
	resolveRetries *metrics.Counter
	staleResolves  *metrics.Counter
}

// FailoverPoller is an HLS viewer session that survives edge failures: when
// the assigned edge sheds it (503 + Retry-After), hints that it is draining,
// goes dark (repeated 5xx/timeouts), or loses the broadcast, the session
// re-queries the control plane and resumes polling a sibling edge from the
// last delivered chunk sequence — duplicates never, gaps allowed. It is the
// HLS mirror of rtmp.SubscribeResilient, reproducing the silent viewer
// remapping the paper observed Fastly's fleet performing (§4.1).
type FailoverPoller struct {
	broadcastID string
	cfg         FailoverConfig
	m           *failoverMetrics

	lastSeq atomic.Uint64
	baseURL atomic.Value // string: the edge currently polled
}

// NewFailoverPoller builds a session for one broadcast. Call Run to poll.
func NewFailoverPoller(broadcastID string, cfg FailoverConfig) *FailoverPoller {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.MaxFailovers == 0 {
		cfg.MaxFailovers = 8
	}
	if cfg.ResolveRetries == 0 {
		cfg.ResolveRetries = 6
	}
	if cfg.Poller.Interval <= 0 {
		cfg.Poller.Interval = 2 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Backoff.Sleep == nil {
		cfg.Backoff.Sleep = cfg.Clock.Sleep
	}
	if cfg.NewClient == nil {
		cfg.NewClient = func(baseURL string) *Client {
			return &Client{BaseURL: baseURL, Clock: cfg.Clock, Metrics: cfg.Metrics}
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &FailoverPoller{
		broadcastID: broadcastID,
		cfg:         cfg,
		m: &failoverMetrics{
			failovers:      reg.Counter("hls_failovers_total"),
			overloads:      reg.Counter("hls_overloads_total"),
			drainHints:     reg.Counter("hls_drain_hints_total"),
			resolveRetries: reg.Counter("hls_resolve_retries_total"),
			staleResolves:  reg.Counter("hls_stale_resolves_total"),
		},
	}
}

// Failovers returns how many times the session switched edges (resolve
// rounds after the first). With a shared FailoverConfig.Metrics registry the
// counter aggregates across every session registered against it.
func (fp *FailoverPoller) Failovers() int64 { return fp.m.failovers.Value() }

// Overloads returns how many polls were answered with a shed (503/429).
func (fp *FailoverPoller) Overloads() int64 { return fp.m.overloads.Value() }

// DrainHints returns how many edges hinted the session away mid-stream.
func (fp *FailoverPoller) DrainHints() int64 { return fp.m.drainHints.Value() }

// ResolveRetries returns how many control-plane resolve calls failed
// transiently and were retried (or absorbed by the cached-edge fallback).
func (fp *FailoverPoller) ResolveRetries() int64 { return fp.m.resolveRetries.Value() }

// StaleResolves returns how many failover rounds fell back to the cached
// last-known edge because the control plane was unreachable.
func (fp *FailoverPoller) StaleResolves() int64 { return fp.m.staleResolves.Value() }

// LastSeq returns the highest chunk sequence delivered so far.
func (fp *FailoverPoller) LastSeq() uint64 { return fp.lastSeq.Load() }

// BaseURL returns the edge the session is currently polling ("" before the
// first resolve).
func (fp *FailoverPoller) BaseURL() string {
	if v, ok := fp.baseURL.Load().(string); ok {
		return v
	}
	return ""
}

// Run polls until the broadcast ends (nil), ctx is done, or the failover
// budget is exhausted (the last edge error). It is synchronous, like
// Client.Poll; callers wanting a background session run it in a goroutine.
func (fp *FailoverPoller) Run(ctx context.Context) error {
	if fp.cfg.Resolve == nil {
		return errors.New("hls: FailoverConfig.Resolve is required")
	}
	var st pollState
	rounds := 0       // resolve rounds consumed (first one is free)
	notFoundRuns := 0 // consecutive edges answering 404
	var lastErr error
	for {
		if rounds > 0 {
			if fp.cfg.MaxFailovers >= 0 && rounds > fp.cfg.MaxFailovers {
				if lastErr == nil {
					lastErr = errors.New("hls: failover budget exhausted")
				}
				return fmt.Errorf("hls: %d failovers: %w", rounds-1, lastErr)
			}
			if err := fp.cfg.Backoff.Sleep(ctx, fp.cfg.Backoff.Delay(rounds-1)); err != nil {
				return err
			}
			fp.m.failovers.Inc()
		}
		rounds++

		baseURL, err := fp.resolveEdge(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("hls: resolve edge: %w", err)
		}
		fp.baseURL.Store(baseURL)
		client := fp.cfg.NewClient(baseURL)
		var draining atomic.Bool
		client.OnDrainHint = func() {
			if !draining.Swap(true) {
				fp.m.drainHints.Inc()
			}
		}

		ended, err := fp.pollEdge(ctx, client, &st, &draining, &notFoundRuns)
		if ended {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrNotFound) && notFoundRuns >= 2 {
			// Two distinct edges in a row say the broadcast does not
			// exist: believe them rather than thrashing the fleet.
			return err
		}
		if err != nil {
			lastErr = err
		}
	}
}

// resolveEdge asks the control plane for an edge, retrying transient
// failures with capped backoff. A resolve failure is a control-plane
// problem, not an edge problem, so it never consumes the failover budget or
// counts as a failover; and a session that has already streamed holds a
// last-known edge, so after the first failed attempt it degrades to that
// cached mapping (counted in hls_stale_resolves_total) instead of blocking
// the viewer on a dead control plane. Permanent-marked errors return
// immediately — the control plane answered, and the answer was no.
func (fp *FailoverPoller) resolveEdge(ctx context.Context) (string, error) {
	for n := 0; ; n++ {
		baseURL, err := fp.cfg.Resolve(ctx)
		if err == nil {
			return baseURL, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if resilience.IsPermanent(err) {
			return "", err
		}
		fp.m.resolveRetries.Inc()
		if cached := fp.BaseURL(); cached != "" {
			fp.m.staleResolves.Inc()
			return cached, nil
		}
		if fp.cfg.ResolveRetries > 0 && n+1 >= fp.cfg.ResolveRetries {
			return "", err
		}
		delay := fp.cfg.Backoff.Delay(n)
		// A server-provided Retry-After (a 429 quota rejection from the
		// control plane) overrides a shorter backoff: retrying sooner than
		// the quota window reopens is guaranteed wasted load. Capped so a
		// day-long quota wait cannot park the session for hours.
		var h RetryAfterHinter
		if errors.As(err, &h) {
			if hint := h.RetryAfterHint(); hint > delay {
				if hint > maxRetryAfterHint {
					hint = maxRetryAfterHint
				}
				delay = hint
			}
		}
		if err := fp.cfg.Backoff.Sleep(ctx, delay); err != nil {
			return "", err
		}
	}
}

// RetryAfterHinter is implemented by resolve errors that carry a
// server-provided wait: control.QuotaError over the wire or in-process and,
// in this package's tests, quotaHintErr. The resolve loop honors the hint in
// place of a shorter backoff delay.
type RetryAfterHinter interface {
	RetryAfterHint() time.Duration
}

// maxRetryAfterHint caps honored Retry-After hints; a spent daily quota
// should degrade the session to retries on this cadence, not freeze it.
const maxRetryAfterHint = 5 * time.Second

// pollEdge runs the poll loop against one edge until the broadcast ends, a
// failover trigger fires (returning the triggering error), or ctx is done.
func (fp *FailoverPoller) pollEdge(ctx context.Context, client *Client, st *pollState, draining *atomic.Bool, notFoundRuns *int) (bool, error) {
	clk := client.clock()
	consecFails := 0
	for {
		ended, err := client.pollOnce(ctx, fp.broadcastID, &fp.cfg.Poller, st)
		fp.lastSeq.Store(st.lastSeq)
		switch {
		case err == nil:
			*notFoundRuns = 0
			consecFails = 0
			if ended {
				return true, nil
			}
			if draining.Load() {
				// The edge asked us to leave; migrate between polls so
				// nothing is dropped.
				return false, nil
			}
		case errors.Is(err, ErrNotFound):
			// This edge cannot resolve the broadcast (poisoned cache,
			// released assignment, or a genuinely absent stream — the
			// caller distinguishes via the consecutive-edge count).
			*notFoundRuns++
			return false, err
		case errors.Is(err, ErrOverloaded):
			// Shed: the edge told us to go elsewhere. Retry-After was
			// already honored inside the client.
			fp.m.overloads.Inc()
			return false, err
		default:
			if ctx.Err() != nil {
				return false, ctx.Err()
			}
			consecFails++
			if consecFails >= fp.cfg.FailureThreshold {
				return false, err
			}
		}
		select {
		case <-ctx.Done():
			return false, ctx.Err()
		case <-clk.After(fp.cfg.Poller.Interval):
		}
	}
}
