package control

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Tenancy layer (DESIGN.md §11): the control plane's answer to "who owns
// this request". The paper's platform is a single implicit operator, but a
// production service meters everything per customer — a few huge channels
// must not starve thousands of small ones (the Twitch-style crowdsourced
// workload of PAPERS.md). Every entity here — tenant, plan, API key, usage
// rollup — is journaled with the same PR-7 semantics as broadcasts: appended
// under s.mu through the group-commit writer, wiped by Crash, rebuilt by
// Recover, with auth failing closed while the control plane is down.

// Tenancy errors. QuotaError wraps ErrQuotaExceeded with a Retry-After hint
// so the HTTP layer can answer 429 + Retry-After and the hls.FailoverPoller
// backoff path can honor the server-provided wait.
var (
	ErrBadAPIKey       = errors.New("control: unknown API key")
	ErrKeyRevoked      = errors.New("control: API key revoked")
	ErrTenantSuspended = errors.New("control: tenant suspended")
	ErrNoTenant        = errors.New("control: no such tenant")
	ErrQuotaExceeded   = errors.New("control: quota exceeded")
)

// QuotaError reports a plan-limit or quota rejection: which limit tripped
// and how long the caller should wait before retrying.
type QuotaError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("control: quota exceeded: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// Is makes errors.Is(err, ErrQuotaExceeded) true for every QuotaError.
func (e *QuotaError) Is(target error) bool { return target == ErrQuotaExceeded }

// RetryAfterHint exposes the wait for hls.FailoverPoller's resolve backoff.
func (e *QuotaError) RetryAfterHint() time.Duration { return e.RetryAfter }

// Plan is a tenant's service level. Zero values mean unlimited — the
// implicit plan of the pre-tenancy platform. Like every domain type here, the
// struct is its own HTTP body and journal payload: the wire shape and the
// durable shape cannot drift apart.
type Plan struct {
	// Name labels the plan ("free", "pro"); informational.
	Name string `json:"name,omitempty"`
	// MaxConcurrentBroadcasts caps simultaneously live broadcasts.
	MaxConcurrentBroadcasts int `json:"max_broadcasts,omitempty"`
	// MaxJoinRPS is the sustained key-authenticated join rate; JoinBurst
	// is the bucket depth (zero means 2×MaxJoinRPS, floor 1).
	MaxJoinRPS float64 `json:"max_join_rps,omitempty"`
	JoinBurst  float64 `json:"join_burst,omitempty"`
	// DailyBytesQuota caps delivered bytes (RTMP fan-out + HLS chunks) per
	// UTC day; admission answers 429 once the rollups cross it.
	DailyBytesQuota int64 `json:"daily_bytes,omitempty"`
}

// joinBurst resolves the effective bucket depth for a plan.
func joinBurst(p Plan) float64 {
	if p.JoinBurst > 0 {
		return p.JoinBurst
	}
	b := 2 * p.MaxJoinRPS
	if b < 1 {
		b = 1
	}
	return b
}

// Tenant is one metered customer of the platform.
type Tenant struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	Plan      Plan      `json:"plan"`
	Suspended bool      `json:"suspended,omitempty"`
	CreatedAt time.Time `json:"created_at"`
}

// APIKey authenticates requests to a tenant. Keys are minted with the same
// crypto/rand entropy as broadcast tokens and journaled, so they survive a
// control crash exactly like broadcast tokens do.
type APIKey struct {
	Key      string
	TenantID string
	Revoked  bool
	IssuedAt time.Time
}

// UsageDay is one per-tenant per-day delivery rollup. Values are cumulative
// absolute totals for the day.
type UsageDay struct {
	Day    string `json:"day"` // "2006-01-02", UTC
	Frames int64  `json:"frames"`
	Chunks int64  `json:"chunks"`
	Bytes  int64  `json:"bytes"`
}

// usageDayLayout formats clock time into rollup day keys.
const usageDayLayout = "2006-01-02"

// tenantState is the service-side row: the public Tenant plus live counters
// and flushed rollups.
type tenantState struct {
	t Tenant
	// live counts this tenant's currently live broadcasts (the
	// MaxConcurrentBroadcasts admission input).
	live int
	// usage holds flushed per-day rollups, keyed by day.
	usage map[string]UsageDay
}

// tenantMeter is a tenant's delivery meter and how much of it FlushUsage has
// journaled. The counters only grow; a flush journals the growth since the
// offsets and moves them up, and quota admission reads the same difference as
// pending usage. Meters and their offsets deliberately survive Crash(): the
// data plane holds the counters and keeps adding through an outage, so the
// delivery of the outage lands in the first flush after Recover.
type tenantMeter struct {
	usage *metrics.Usage
	// frames, chunks and bytes are the counter values the last flush read.
	frames, chunks, bytes int64
}

// pendingBytes reads the unflushed byte count (quota admission folds it in
// so a tenant cannot stream past its quota between flushes).
func (m *tenantMeter) pendingBytes() int64 { return m.usage.Bytes.Value() - m.bytes }

// CreateTenant registers a tenant with sequential "tnt-N" IDs and journals
// the row.
func (s *Service) CreateTenant(name string, plan Plan) (Tenant, error) {
	if err := s.lockLive(); err != nil {
		return Tenant{}, err
	}
	defer s.mu.Unlock()
	id := fmt.Sprintf("tnt-%d", s.nextTenant+1)
	s.commitLocked(journal.RecordCtrlTenant, id,
		&ctrlTenantRec{Name: name, Plan: plan, CreatedAt: s.clock.Now().UnixNano()})
	return s.tenants[id].t, nil
}

// TenantInfo returns one tenant row.
func (s *Service) TenantInfo(id string) (Tenant, error) {
	if err := s.lockLive(); err != nil {
		return Tenant{}, err
	}
	defer s.mu.Unlock()
	ts, ok := s.tenants[id]
	if !ok {
		return Tenant{}, ErrNoTenant
	}
	return ts.t, nil
}

// Tenants lists all tenant rows sorted by ID.
func (s *Service) Tenants() []Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Tenant, 0, len(s.tenants))
	for _, ts := range s.tenants {
		out = append(out, ts.t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetTenantPlan replaces a tenant's plan and journals the change.
func (s *Service) SetTenantPlan(id string, plan Plan) error {
	if err := s.lockLive(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if _, ok := s.tenants[id]; !ok {
		return ErrNoTenant
	}
	s.commitLocked(journal.RecordCtrlTenantPlan, id, &ctrlTenantPlanRec{Plan: plan})
	return nil
}

// SuspendTenant blocks every key-authenticated call for the tenant (403)
// until ResumeTenant.
func (s *Service) SuspendTenant(id string) error { return s.setSuspended(id, true) }

// ResumeTenant lifts a suspension.
func (s *Service) ResumeTenant(id string) error { return s.setSuspended(id, false) }

func (s *Service) setSuspended(id string, suspended bool) error {
	if err := s.lockLive(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if _, ok := s.tenants[id]; !ok {
		return ErrNoTenant
	}
	s.commitLocked(journal.RecordCtrlTenantStatus, id, &ctrlTenantStatusRec{Suspended: suspended})
	return nil
}

// IssueAPIKey mints and journals a key for the tenant.
func (s *Service) IssueAPIKey(tenantID string) (APIKey, error) {
	if err := s.lockLive(); err != nil {
		return APIKey{}, err
	}
	defer s.mu.Unlock()
	if _, ok := s.tenants[tenantID]; !ok {
		return APIKey{}, ErrNoTenant
	}
	secret, err := newToken()
	if err != nil {
		return APIKey{}, err
	}
	key := "key-" + secret
	s.commitLocked(journal.RecordCtrlKeyIssue, key,
		&ctrlKeyIssueRec{Tenant: tenantID, IssuedAt: s.clock.Now().UnixNano()})
	return *s.keys[key], nil
}

// RevokeAPIKey invalidates a key; every later use answers 403.
func (s *Service) RevokeAPIKey(key string) error {
	if err := s.lockLive(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	if _, ok := s.keys[key]; !ok {
		return ErrBadAPIKey
	}
	s.commitLocked(journal.RecordCtrlKeyRevoke, key, &ctrlKeyRevokeRec{})
	return nil
}

// resolveKeyLocked authenticates an API key: unknown keys answer 401-class
// ErrBadAPIKey, revoked keys and suspended tenants 403-class errors. Called
// with s.mu held.
func (s *Service) resolveKeyLocked(key string) (*tenantState, error) {
	k, ok := s.keys[key]
	if !ok {
		return nil, ErrBadAPIKey
	}
	if k.Revoked {
		return nil, ErrKeyRevoked
	}
	ts, ok := s.tenants[k.TenantID]
	if !ok {
		// A key whose tenant row is gone is as dead as a revoked one.
		return nil, ErrBadAPIKey
	}
	if ts.t.Suspended {
		return nil, ErrTenantSuspended
	}
	return ts, nil
}

// StartBroadcastKey is the key-authenticated StartBroadcast: the broadcast
// is owned by (and admission-checked against) the key's tenant.
func (s *Service) StartBroadcastKey(key string, userID uint64, loc geo.Location) (BroadcastGrant, error) {
	if err := s.lockLive(); err != nil {
		return BroadcastGrant{}, err
	}
	ts, err := s.resolveKeyLocked(key)
	if err != nil {
		s.mu.Unlock()
		return BroadcastGrant{}, err
	}
	tenantID := ts.t.ID
	s.mu.Unlock()
	return s.startBroadcast(userID, loc, false, nil, tenantID)
}

// JoinKey is the key-authenticated Join: the caller's tenant pays the join
// rate (plan MaxJoinRPS through the keyed limiter) and must be inside its
// daily delivered-bytes quota.
func (s *Service) JoinKey(key string, userID uint64, broadcastID string, loc geo.Location) (ViewerGrant, error) {
	if err := s.lockLive(); err != nil {
		return ViewerGrant{}, err
	}
	ts, err := s.resolveKeyLocked(key)
	if err != nil {
		s.mu.Unlock()
		return ViewerGrant{}, err
	}
	tenantID, plan := ts.t.ID, ts.t.Plan
	quotaErr := s.quotaCheckLocked(ts)
	s.mu.Unlock()
	if plan.MaxJoinRPS > 0 && !s.joins.Allow(tenantID, plan.MaxJoinRPS, joinBurst(plan)) {
		return ViewerGrant{}, &QuotaError{Reason: "join rate above plan limit", RetryAfter: rateRetryAfter(plan.MaxJoinRPS)}
	}
	if quotaErr != nil {
		return ViewerGrant{}, quotaErr
	}
	return s.Join(userID, broadcastID, loc)
}

// rateRetryAfter suggests a wait long enough to earn one token back, at
// least a second. A rate so low that the wait overflows a time.Duration
// saturates at the longest one instead of wrapping.
func rateRetryAfter(rps float64) time.Duration {
	if rps <= 0 {
		return time.Second
	}
	d := float64(time.Second) / rps
	if d >= math.MaxInt64 {
		return math.MaxInt64
	}
	return max(time.Duration(d), time.Second)
}

// quotaCheckLocked reports whether the tenant is over its daily bytes quota:
// flushed rollups for the current day plus the meter's unflushed pending
// bytes. Called with s.mu held.
func (s *Service) quotaCheckLocked(ts *tenantState) *QuotaError {
	q := ts.t.Plan.DailyBytesQuota
	if q <= 0 {
		return nil
	}
	now := s.clock.Now().UTC()
	used := ts.usage[now.Format(usageDayLayout)].Bytes
	if m := s.meters[ts.t.ID]; m != nil {
		used += m.pendingBytes()
	}
	if used < q {
		return nil
	}
	return &QuotaError{Reason: "daily delivered-bytes quota", RetryAfter: untilNextDay(now)}
}

// untilNextDay is the Retry-After for a spent daily quota: time to the next
// UTC day boundary, clamped to [1s, 1h] so clients neither spin nor park for
// a literal day.
func untilNextDay(now time.Time) time.Duration {
	next := now.Truncate(24 * time.Hour).Add(24 * time.Hour)
	d := next.Sub(now)
	if d > time.Hour {
		d = time.Hour
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// usageLocked returns (creating if needed) a tenant's delivery meter, nil for
// the untenanted "". A new meter starts its offsets at the counters' current
// values: a registry shared with an earlier service may hold the series
// already, and what that service counted is not this one's to journal.
func (s *Service) usageLocked(tenantID string) *metrics.Usage {
	if tenantID == "" {
		return nil
	}
	m, ok := s.meters[tenantID]
	if !ok {
		l := metrics.L("tenant", tenantID)
		u := &metrics.Usage{
			Frames: s.reg.Counter("tenant_frames_out_total", l),
			Chunks: s.reg.Counter("tenant_chunks_out_total", l),
			Bytes:  s.reg.Counter("tenant_bytes_out_total", l),
		}
		m = &tenantMeter{usage: u, frames: u.Frames.Value(), chunks: u.Chunks.Value(), bytes: u.Bytes.Value()}
		s.meters[tenantID] = m
	}
	return m.usage
}

// FlushUsage journals each meter's growth since the last flush into the
// current UTC day's rollup as the new ABSOLUTE day totals (RecordCtrlUsage).
// Replay assigns those totals, so a torn tail mid-rollup loses at most the
// newest flush — it can never double-count. Returns how many tenants had
// activity. A crashed control plane skips the flush entirely; the counters
// keep growing and the next flush after Recover picks the growth up.
func (s *Service) FlushUsage() int {
	if s.lockLive() != nil {
		return 0
	}
	defer s.mu.Unlock()
	day := s.clock.Now().UTC().Format(usageDayLayout)
	flushed := 0
	for tenantID, m := range s.meters {
		frames, chunks, bytes := m.usage.Frames.Value(), m.usage.Chunks.Value(), m.usage.Bytes.Value()
		df, dc, db := frames-m.frames, chunks-m.chunks, bytes-m.bytes
		if df == 0 && dc == 0 && db == 0 {
			continue
		}
		m.frames, m.chunks, m.bytes = frames, chunks, bytes
		ts, ok := s.tenants[tenantID]
		if !ok {
			// Tenant deleted underneath a live meter: drop the counts, a
			// rollup without an owner row is unreachable anyway.
			continue
		}
		u := ts.usage[day]
		u.Day = day
		u.Frames += df
		u.Chunks += dc
		u.Bytes += db
		s.commitLocked(journal.RecordCtrlUsage, tenantID, &u)
		flushed++
	}
	return flushed
}

// Usage returns a tenant's flushed per-day rollups sorted by day.
func (s *Service) Usage(tenantID string) ([]UsageDay, error) {
	if err := s.lockLive(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	ts, ok := s.tenants[tenantID]
	if !ok {
		return nil, ErrNoTenant
	}
	out := make([]UsageDay, 0, len(ts.usage))
	for _, u := range ts.usage {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out, nil
}

// Sweep drops idle per-tenant join buckets (shared mechanism with the
// per-client API RateLimiter; the platform janitor calls both).
func (s *Service) Sweep(maxIdle time.Duration) int {
	return s.joins.Sweep(maxIdle)
}
