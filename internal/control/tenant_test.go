package control

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// tenantOf reads the tenant owning a broadcast from the service's state, ""
// for an untenanted or unknown one.
func tenantOf(s *Service, id string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.broadcasts[id]; ok {
		return st.tenantID
	}
	return ""
}

// meterOf returns the meter OnStart hands the data plane for a broadcast:
// its tenant's, nil for an untenanted or unknown one.
func meterOf(s *Service, id string) *metrics.Usage {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.broadcasts[id]
	if !ok {
		return nil
	}
	return s.usageLocked(st.tenantID)
}

// newTenantService builds a journaled service on a virtual clock so the
// rate-limiter refills, quota windows, and usage-day keys are all driven by
// the test.
func newTenantService(backend journal.Backend, clk clock.Clock) *Service {
	return NewService(Config{
		Routes: Routes{
			AssignOrigin: func(loc geo.Location) (string, string) {
				return "origin-1", "127.0.0.1:1935"
			},
			RTMPSAddr: func(originID string) string { return "127.0.0.1:19350" },
			AssignEdge: func(id string, loc geo.Location) string {
				return "http://edge-1/hls"
			},
			MessageURL: "http://msg/channel",
		},
		RTMPViewerLimit: 100,
		Seed:            1,
		Journal:         backend,
		Clock:           clk,
		Metrics:         metrics.NewRegistry(),
	})
}

func TestTenantCRUDAndKeys(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	a, err := s.CreateTenant("acme", Plan{Name: "pro"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CreateTenant("blip", Plan{Name: "free"})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID || a.ID != "tnt-1" || b.ID != "tnt-2" {
		t.Fatalf("tenant IDs = %q, %q", a.ID, b.ID)
	}
	if got, err := s.TenantInfo(a.ID); err != nil || got.Name != "acme" {
		t.Fatalf("TenantInfo = %+v, err %v", got, err)
	}
	if _, err := s.TenantInfo("tnt-404"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("missing tenant: err = %v", err)
	}
	if all := s.Tenants(); len(all) != 2 || all[0].ID != "tnt-1" || all[1].ID != "tnt-2" {
		t.Fatalf("Tenants() = %+v", all)
	}

	k, err := s.IssueAPIKey(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if k.TenantID != a.ID || len(k.Key) < 10 {
		t.Fatalf("key = %+v", k)
	}
	if _, err := s.IssueAPIKey("tnt-404"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("key for missing tenant: err = %v", err)
	}

	u := s.Register("streamer")
	if _, err := s.StartBroadcastKey("key-forged", u.ID, geo.Location{}); !errors.Is(err, ErrBadAPIKey) {
		t.Fatalf("forged key: err = %v", err)
	}
	grant, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tenantOf(s, grant.BroadcastID); got != a.ID {
		t.Fatalf("tenant = %q, want %q", got, a.ID)
	}

	// Revocation turns the key off for every later call.
	if err := s.RevokeAPIKey(k.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{}); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("revoked key: err = %v", err)
	}
	if err := s.RevokeAPIKey("key-nope"); !errors.Is(err, ErrBadAPIKey) {
		t.Fatalf("revoking unknown key: err = %v", err)
	}

	// Suspension blocks even valid keys, resume lifts it.
	k2, err := s.IssueAPIKey(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SuspendTenant(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.JoinKey(k2.Key, u.ID, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrTenantSuspended) {
		t.Fatalf("suspended tenant join: err = %v", err)
	}
	if err := s.ResumeTenant(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.JoinKey(k2.Key, u.ID, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatalf("resumed tenant join: %v", err)
	}
}

func TestTenantConcurrentBroadcastCap(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	tn, _ := s.CreateTenant("capped", Plan{MaxConcurrentBroadcasts: 2})
	k, _ := s.IssueAPIKey(tn.ID)
	u := s.Register("streamer")

	g1, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{}); err != nil {
		t.Fatal(err)
	}
	_, err = s.StartBroadcastKey(k.Key, u.ID, geo.Location{})
	var qe *QuotaError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third start: err = %v, want QuotaError", err)
	}
	// Ending one frees a slot.
	if err := s.EndBroadcast(g1.BroadcastID, g1.Token); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{}); err != nil {
		t.Fatalf("start after end: %v", err)
	}
}

func TestTenantJoinRateLimit(t *testing.T) {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Unix(1_700_000_000, 0)})
	s := newTenantService(journal.NewMem(), clk)
	tn, _ := s.CreateTenant("rated", Plan{MaxJoinRPS: 1, JoinBurst: 2})
	k, _ := s.IssueAPIKey(tn.ID)
	u := s.Register("streamer")
	grant, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}

	// Bucket depth 2: two joins pass, the third is throttled.
	for i := 0; i < 2; i++ {
		if _, err := s.JoinKey(k.Key, uint64(100+i), grant.BroadcastID, geo.Location{}); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	_, err = s.JoinKey(k.Key, 200, grant.BroadcastID, geo.Location{})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("throttled join: err = %v, want QuotaError", err)
	}
	if qe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", qe.RetryAfter)
	}

	// One second of virtual time earns one token back.
	clk.Advance(time.Second)
	if _, err := s.JoinKey(k.Key, 201, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatalf("join after refill: %v", err)
	}
	if _, err := s.JoinKey(k.Key, 202, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second join after single refill: err = %v", err)
	}

	// An unlimited-plan tenant is never throttled.
	free, _ := s.CreateTenant("unlimited", Plan{})
	kf, _ := s.IssueAPIKey(free.ID)
	for i := 0; i < 50; i++ {
		if _, err := s.JoinKey(kf.Key, uint64(300+i), grant.BroadcastID, geo.Location{}); err != nil {
			t.Fatalf("unlimited join %d: %v", i, err)
		}
	}
}

func TestTenantQuotaAdmission(t *testing.T) {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)})
	s := newTenantService(journal.NewMem(), clk)
	tn, _ := s.CreateTenant("metered", Plan{DailyBytesQuota: 1000})
	k, _ := s.IssueAPIKey(tn.ID)
	u := s.Register("streamer")
	grant, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}

	m := meterOf(s, grant.BroadcastID)
	if m == nil {
		t.Fatal("Meter returned nil for tenanted broadcast")
	}
	// Under quota: join admitted.
	m.MeterFrames(10, 400)
	if _, err := s.JoinKey(k.Key, 100, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatalf("under-quota join: %v", err)
	}
	// Pending (unflushed) meter bytes count toward the quota too.
	m.MeterChunks(5, 600)
	_, err = s.JoinKey(k.Key, 101, grant.BroadcastID, geo.Location{})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota join (pending bytes): err = %v, want QuotaError", err)
	}
	if qe.RetryAfter < time.Second || qe.RetryAfter > time.Hour {
		t.Fatalf("quota RetryAfter = %v, want within [1s, 1h]", qe.RetryAfter)
	}

	// Flushing moves the bytes into the day rollup; still over quota.
	if n := s.FlushUsage(); n != 1 {
		t.Fatalf("FlushUsage = %d, want 1", n)
	}
	if _, err := s.JoinKey(k.Key, 102, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota join (flushed bytes): err = %v", err)
	}
	days, err := s.Usage(tn.ID)
	if err != nil || len(days) != 1 {
		t.Fatalf("Usage = %+v, err %v", days, err)
	}
	if d := days[0]; d.Day != "2026-03-01" || d.Frames != 10 || d.Chunks != 5 || d.Bytes != 1000 {
		t.Fatalf("rollup = %+v", d)
	}

	// The next UTC day opens a fresh window.
	clk.Advance(13 * time.Hour)
	if _, err := s.JoinKey(k.Key, 103, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatalf("next-day join: %v", err)
	}

	// ResolveEdge enforces the same quota for viewers refreshing playlists.
	m.MeterChunks(2, 2000)
	if _, err := s.ResolveEdge(grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota ResolveEdge: err = %v", err)
	}
}

// TestTenantCrashRecover: the whole tenancy surface — tenants, plans, keys,
// revocations, suspensions, usage rollups, live counts — fails closed during
// an outage and is rebuilt by replay.
func TestTenantCrashRecover(t *testing.T) {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Date(2026, 3, 1, 8, 0, 0, 0, time.UTC)})
	backend := journal.NewMem()
	s := newTenantService(backend, clk)

	tn, _ := s.CreateTenant("acme", Plan{Name: "free", MaxConcurrentBroadcasts: 3})
	s.SetTenantPlan(tn.ID, Plan{Name: "pro", MaxConcurrentBroadcasts: 1, DailyBytesQuota: 5000})
	other, _ := s.CreateTenant("bystander", Plan{})
	s.SuspendTenant(other.ID)
	k, _ := s.IssueAPIKey(tn.ID)
	dead, _ := s.IssueAPIKey(tn.ID)
	s.RevokeAPIKey(dead.Key)

	u := s.Register("streamer")
	grant, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	meterOf(s, grant.BroadcastID).MeterFrames(7, 700)
	if s.FlushUsage() != 1 {
		t.Fatal("flush before crash")
	}

	s.Crash()
	// Fail closed: every tenancy entry point answers ErrUnavailable.
	if _, err := s.CreateTenant("x", Plan{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("CreateTenant while crashed: %v", err)
	}
	if _, err := s.TenantInfo(tn.ID); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("TenantInfo while crashed: %v", err)
	}
	if _, err := s.IssueAPIKey(tn.ID); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("IssueAPIKey while crashed: %v", err)
	}
	if _, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("StartBroadcastKey while crashed: %v", err)
	}
	if _, err := s.JoinKey(k.Key, 1, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("JoinKey while crashed: %v", err)
	}
	if _, err := s.Usage(tn.ID); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Usage while crashed: %v", err)
	}
	if s.FlushUsage() != 0 {
		t.Fatal("FlushUsage journaled while crashed")
	}
	// Meters keep accumulating through the outage.
	outageMeter := s.meters[tn.ID]
	if outageMeter == nil {
		t.Fatal("meter wiped by Crash")
	}
	outageMeter.usage.MeterChunks(3, 300)

	s.Recover()
	got, err := s.TenantInfo(tn.ID)
	if err != nil || got.Plan.Name != "pro" || got.Plan.DailyBytesQuota != 5000 {
		t.Fatalf("recovered tenant = %+v, err %v", got, err)
	}
	if o, _ := s.TenantInfo(other.ID); !o.Suspended {
		t.Fatal("suspension lost across recovery")
	}
	// Live count survived: plan caps at 1 and the recovered broadcast holds it.
	if _, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("cap ignored recovered live broadcast: err = %v", err)
	}
	// Revocation survived.
	if _, err := s.StartBroadcastKey(dead.Key, u.ID, geo.Location{}); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("revoked key after recovery: err = %v", err)
	}
	// Usage rollups survived, and the outage-time metering lands on the
	// next flush.
	days, _ := s.Usage(tn.ID)
	if len(days) != 1 || days[0].Bytes != 700 {
		t.Fatalf("recovered usage = %+v", days)
	}
	if s.FlushUsage() != 1 {
		t.Fatal("post-recover flush missed outage metering")
	}
	days, _ = s.Usage(tn.ID)
	if len(days) != 1 || days[0].Bytes != 1000 || days[0].Chunks != 3 {
		t.Fatalf("post-recover usage = %+v", days)
	}
	// Broadcast→tenant attribution recovered too.
	if got := tenantOf(s, grant.BroadcastID); got != tn.ID {
		t.Fatalf("tenant after recovery = %q", got)
	}

	// The harder restart: a fresh Service over the same backend sees it all,
	// and the tenant ID counter resumes past journaled IDs.
	s.Crash()
	s2 := newTenantService(backend, clk)
	if got, err := s2.TenantInfo(tn.ID); err != nil || got.Plan.Name != "pro" {
		t.Fatalf("restarted tenant = %+v, err %v", got, err)
	}
	days, _ = s2.Usage(tn.ID)
	if len(days) != 1 || days[0].Bytes != 1000 {
		t.Fatalf("restarted usage = %+v", days)
	}
	t3, err := s2.CreateTenant("fresh", Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if t3.ID == tn.ID || t3.ID == other.ID {
		t.Fatalf("tenant ID %q reused after restart", t3.ID)
	}
}

func TestKeyedLimiterSweep(t *testing.T) {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Unix(0, 0)})
	l := NewKeyedLimiter(clk)
	if !l.Allow("a", 1, 1) || !l.Allow("b", 1, 1) {
		t.Fatal("fresh buckets should admit")
	}
	clk.Advance(time.Minute)
	if !l.Allow("b", 1, 1) {
		t.Fatal("refilled bucket should admit")
	}
	// "a" has been idle a minute, "b" was just touched.
	if n := l.Sweep(30 * time.Second); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	if n := l.Sweep(30 * time.Second); n != 0 {
		t.Fatalf("second Sweep = %d, want 0", n)
	}
}

// TestKeyedLimiterPlanChange: rates are passed per call, so a plan downgrade
// applies to the very next request — the bucket clamps to the new burst.
func TestKeyedLimiterPlanChange(t *testing.T) {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Unix(0, 0)})
	l := NewKeyedLimiter(clk)
	for i := 0; i < 10; i++ {
		if !l.Allow("t", 100, 10) {
			t.Fatalf("burst-10 request %d refused", i)
		}
	}
	clk.Advance(time.Hour) // bucket refills to old burst…
	if !l.Allow("t", 1, 1) {
		t.Fatal("first request under downgraded plan refused")
	}
	if l.Allow("t", 1, 1) {
		t.Fatal("downgraded burst did not clamp: second request admitted")
	}
}

// meteredTenant starts a key-authenticated broadcast for a new tenant and
// returns the tenant and its delivery meter.
func meteredTenant(t *testing.T, s *Service, plan Plan) (Tenant, *metrics.Usage) {
	t.Helper()
	tn, err := s.CreateTenant("acme", plan)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := s.IssueAPIKey(tn.ID)
	grant, err := s.StartBroadcastKey(k.Key, s.Register("alice").ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	m := meterOf(s, grant.BroadcastID)
	if m == nil {
		t.Fatal("Meter returned nil for a tenanted broadcast")
	}
	return tn, m
}

// journaledUsage decodes every usage record in the journal, oldest first.
func journaledUsage(t *testing.T, backend *journal.Mem) []UsageDay {
	t.Helper()
	data, err := backend.Load()
	if err != nil {
		t.Fatal(err)
	}
	var out []UsageDay
	if _, err := journal.Replay(data, func(r journal.Record) error {
		if r.Type == journal.RecordCtrlUsage {
			var u UsageDay
			if err := json.Unmarshal(r.Payload, &u); err != nil {
				return err
			}
			out = append(out, u)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// A flush journals the meter's growth since the last flush as the day's new
// absolute total, and the meter's counters are never reset.
func TestFlushUsageJournalsAbsoluteTotalsByOffset(t *testing.T) {
	backend := journal.NewMem()
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)})
	s := newTenantService(backend, clk)
	tn, m := meteredTenant(t, s, Plan{})

	m.MeterFrames(10, 100)
	if n := s.FlushUsage(); n != 1 {
		t.Fatalf("first FlushUsage = %d, want 1", n)
	}
	m.MeterChunks(2, 50)
	if n := s.FlushUsage(); n != 1 {
		t.Fatalf("second FlushUsage = %d, want 1", n)
	}
	if n := s.FlushUsage(); n != 0 {
		t.Fatalf("FlushUsage with nothing new = %d, want 0", n)
	}
	if f, k, b := m.Frames.Value(), m.Chunks.Value(), m.Bytes.Value(); f != 10 || k != 2 || b != 150 {
		t.Fatalf("counters after flushes = (%d, %d, %d), want the cumulative (10, 2, 150)", f, k, b)
	}
	s.Close()
	want := []UsageDay{
		{Day: "2026-03-01", Frames: 10, Bytes: 100},
		{Day: "2026-03-01", Frames: 10, Chunks: 2, Bytes: 150},
	}
	if got := journaledUsage(t, backend); !slices.Equal(got, want) {
		t.Fatalf("journaled usage = %+v, want %+v", got, want)
	}
	if days, _ := s.Usage(tn.ID); !slices.Equal(days, want[1:]) {
		t.Fatalf("rollups = %+v, want %+v", days, want[1:])
	}
}

// Quota admission counts a meter's unflushed usage as its cumulative count
// minus what the last flush journaled.
func TestQuotaPendingIsCumulativeMinusFlushed(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	tn, m := meteredTenant(t, s, Plan{DailyBytesQuota: 1000})
	m.MeterFrames(4, 400)
	s.FlushUsage()
	m.MeterChunks(1, 300)
	if got := s.meters[tn.ID].pendingBytes(); got != 300 {
		t.Fatalf("pending bytes = %d, want 700 cumulative - 400 flushed = 300", got)
	}
	k, _ := s.IssueAPIKey(tn.ID)
	if _, err := s.JoinKey(k.Key, 2, s.liveIDs[0], geo.Location{}); err != nil {
		t.Fatalf("join at 400 flushed + 300 pending of 1000: %v", err)
	}
	m.MeterChunks(1, 300)
	if _, err := s.JoinKey(k.Key, 3, s.liveIDs[0], geo.Location{}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("join at 400 flushed + 600 pending of 1000 = %v, want ErrQuotaExceeded", err)
	}
}

// Crash keeps both the counters and the flushed offsets: the outage's
// delivery lands in the first flush after Recover, and nothing flushed before
// the crash is journaled twice.
func TestCrashRecoverKeepsMeterAndOffsets(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	tn, m := meteredTenant(t, s, Plan{})
	m.MeterFrames(5, 500)
	s.FlushUsage()
	m.MeterFrames(2, 200)
	s.Crash()
	m.MeterChunks(1, 100)
	s.Recover()
	if got := s.meters[tn.ID].pendingBytes(); got != 300 {
		t.Fatalf("pending bytes after recovery = %d, want 800 - 500 = 300", got)
	}
	if n := s.FlushUsage(); n != 1 {
		t.Fatalf("post-recovery FlushUsage = %d, want 1", n)
	}
	days, _ := s.Usage(tn.ID)
	if len(days) != 1 || days[0].Frames != 7 || days[0].Chunks != 1 || days[0].Bytes != 800 {
		t.Fatalf("rollup after recovery = %+v, want frames 7, chunks 1, bytes 800", days)
	}
	if n := s.FlushUsage(); n != 0 {
		t.Fatalf("second post-recovery FlushUsage = %d, want 0", n)
	}
}
