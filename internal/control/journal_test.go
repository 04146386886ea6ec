package control

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/wire"
)

func newJournaledService(backend journal.Backend, reg *metrics.Registry) *Service {
	return NewService(Config{
		Routes: Routes{
			AssignOrigin: func(loc geo.Location) (string, string) {
				return "origin-1", "127.0.0.1:1935"
			},
			RTMPSAddr: func(originID string) string {
				return "127.0.0.1:19350"
			},
			AssignEdge: func(id string, loc geo.Location) string {
				return "http://edge-1/hls"
			},
			MessageURL: "http://msg/channel",
		},
		RTMPViewerLimit: 3,
		Seed:            1,
		Journal:         backend,
		Metrics:         reg,
	})
}

// TestControlCrashRecover is the core durability contract: everything the
// control plane acknowledged before a crash — users, live broadcasts with
// their unforgeable tokens, public keys, joins — is back after Recover, and
// the OnStart callbacks re-fire for still-live broadcasts.
func TestControlCrashRecover(t *testing.T) {
	backend := journal.NewMem()
	reg := metrics.NewRegistry()
	s := newJournaledService(backend, reg)

	var mu sync.Mutex
	var started []string
	s.OnStart(func(id, origin string, _ *metrics.Usage) {
		mu.Lock()
		started = append(started, id)
		mu.Unlock()
	})

	alice := s.Register("alice")
	bob := s.Register("bob")
	grant, err := s.StartBroadcast(alice.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	endedGrant, err := s.StartBroadcast(bob.ID, geo.Location{City: "SF"})
	if err != nil {
		t.Fatal(err)
	}
	pub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPublicKey(grant.BroadcastID, grant.Token, pub); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(bob.ID, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatal(err)
	}
	if err := s.EndBroadcast(endedGrant.BroadcastID, endedGrant.Token); err != nil {
		t.Fatal(err)
	}

	s.Crash()
	if !s.Down() {
		t.Fatal("Down() = false after Crash")
	}
	if _, err := s.StartBroadcast(alice.ID, geo.Location{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("StartBroadcast while crashed: err = %v, want ErrUnavailable", err)
	}
	if _, err := s.Join(bob.ID, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Join while crashed: err = %v, want ErrUnavailable", err)
	}
	if err := s.ForceEnd(grant.BroadcastID); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ForceEnd while crashed: err = %v, want ErrUnavailable", err)
	}
	if err := s.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Authorize while crashed = %v, want ErrUnavailable", err)
	}
	if s.LiveCount() != 0 {
		t.Fatalf("LiveCount while crashed = %d", s.LiveCount())
	}

	s.Recover()
	if s.Down() {
		t.Fatal("Down() = true after Recover")
	}
	if got := s.UserCount(); got != 2 {
		t.Fatalf("UserCount after recover = %d, want 2", got)
	}
	if got := s.LiveCount(); got != 1 {
		t.Fatalf("LiveCount after recover = %d, want 1", got)
	}
	info, err := s.Info(grant.BroadcastID)
	if err != nil || !info.Live || info.Broadcaster != alice.ID {
		t.Fatalf("recovered info = %+v, err %v", info, err)
	}
	if info, err := s.Info(endedGrant.BroadcastID); err != nil || info.Live {
		t.Fatalf("ended broadcast resurrected: %+v, err %v", info, err)
	}
	if s.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) != nil {
		t.Fatal("recovered token rejected")
	}
	if k, err := s.PublicKey(grant.BroadcastID); err != nil || !bytes.Equal(k, pub) {
		t.Fatal("public key lost across recovery")
	}
	joins, err := s.Joins(grant.BroadcastID)
	if err != nil || len(joins) != 1 || joins[0].UserID != bob.ID {
		t.Fatalf("recovered joins = %+v, err %v", joins, err)
	}
	mu.Lock()
	refired := append([]string(nil), started...)
	mu.Unlock()
	// Two live starts + one re-fire for the still-live broadcast.
	if len(refired) != 3 || refired[2] != grant.BroadcastID {
		t.Fatalf("OnStart fires = %v, want re-fire for %s", refired, grant.BroadcastID)
	}

	// The unforgeable token still ends the broadcast, and new state after
	// recovery journals onto the truncated-clean log.
	if err := s.EndBroadcast(grant.BroadcastID, grant.Token); err != nil {
		t.Fatalf("end with recovered token: %v", err)
	}
	if _, err := s.StartBroadcast(alice.ID, geo.Location{}); err != nil {
		t.Fatalf("start after recovery: %v", err)
	}

	found := false
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "control_recovery_seconds" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("control_recovery_seconds did not populate")
	}
}

// TestControlRestartIsNewServiceOverBackend: the harder restart — the whole
// process dies and a fresh Service is constructed over the old backend.
func TestControlRestartIsNewServiceOverBackend(t *testing.T) {
	backend := journal.NewMem()
	s := newJournaledService(backend, nil)
	u := s.Register("alice")
	grant, err := s.StartBroadcast(u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	s.Crash() // drains the writer; the old incarnation never touches the backend again

	s2 := newJournaledService(backend, nil)
	if s2.LiveCount() != 1 {
		t.Fatalf("restarted LiveCount = %d, want 1", s2.LiveCount())
	}
	if s2.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) != nil {
		t.Fatal("token rejected after full restart")
	}
	// The broadcast-ID counter must resume past journaled IDs: a fresh
	// start must not collide with the recovered broadcast.
	g2, err := s2.StartBroadcast(u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	if g2.BroadcastID == grant.BroadcastID {
		t.Fatalf("broadcast ID %q reused after restart", g2.BroadcastID)
	}
}

// flakyLoad is a journal backend whose first Load fails, as a disk with a
// transient read error would.
type flakyLoad struct {
	*journal.Mem
	failed bool
}

func (b *flakyLoad) Load() ([]byte, error) {
	if !b.failed {
		b.failed = true
		return nil, errors.New("read error")
	}
	return b.Mem.Load()
}

// TestControlAppendsNothingAfterFailedLoad: a service whose journal cannot be
// read starts empty and unjournaled. Its broadcast IDs restart at bcast-1, so
// an append would land the new bcast-1's start, join and end on the old one
// at the next load that succeeds; instead the backend's bytes stay as they
// were, the old broadcast replays intact, and the failure is counted.
func TestControlAppendsNothingAfterFailedLoad(t *testing.T) {
	mem := journal.NewMem()
	s := newJournaledService(mem, nil)
	alice := s.Register("alice")
	old, err := s.StartBroadcast(alice.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	before, _ := mem.Load()

	reg := metrics.NewRegistry()
	s2 := newJournaledService(&flakyLoad{Mem: mem}, reg)
	bob := s2.Register("bob")
	g, err := s2.StartBroadcast(bob.ID, geo.Location{})
	if err != nil || g.BroadcastID != old.BroadcastID {
		t.Fatalf("restarted service started %q (err %v), want the reused ID %q", g.BroadcastID, err, old.BroadcastID)
	}
	if _, err := s2.Join(bob.ID, g.BroadcastID, geo.Location{}); err != nil {
		t.Fatal(err)
	}
	if err := s2.EndBroadcast(g.BroadcastID, g.Token); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if after, _ := mem.Load(); !bytes.Equal(after, before) {
		t.Errorf("the service appended %d bytes after a journal it could not read", len(after)-len(before))
	}

	s3 := newJournaledService(mem, nil)
	defer s3.Close()
	info, err := s3.Info(old.BroadcastID)
	if err != nil || !info.Live || info.Broadcaster != alice.ID {
		t.Fatalf("%s after the next good load = %+v (err %v), want alice's live broadcast", old.BroadcastID, info, err)
	}
	if joins, _ := s3.Joins(old.BroadcastID); len(joins) != 0 {
		t.Fatalf("%s after the next good load has joins %+v, want none", old.BroadcastID, joins)
	}
	var loadErrors int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "journal_load_errors_total" && c.Labels["site"] == "control" {
			loadErrors += c.Value
		}
	}
	if loadErrors != 1 {
		t.Fatalf("journal_load_errors_total{site=control} = %d, want 1", loadErrors)
	}
}

// TestControlRecoveryReplayBudget pins the outage-to-serving path: a Service
// built over a 256-record journal (32 broadcasters, their 32 live broadcasts,
// 96 viewer registrations, 96 joins) has decoded every record by the time
// NewService returns, writes nothing back — replay applies records, it never
// re-journals them — and stays within nine allocations per record (≈8.2,
// JSON decode plus the rebuilt maps).
func TestControlRecoveryReplayBudget(t *testing.T) {
	const broadcasts, viewersEach = 32, 3
	const records = broadcasts * (2 + 2*viewersEach)
	const maxAllocsPerRecord = 9
	backend := journal.NewMem()
	seed := newJournaledService(backend, nil)
	var lastID string
	var lastViewer uint64
	for i := 0; i < broadcasts; i++ {
		g, err := seed.StartBroadcast(seed.Register(fmt.Sprintf("user-%d", i)).ID, geo.Location{})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < viewersEach; v++ {
			vu := seed.Register(fmt.Sprintf("viewer-%d-%d", i, v))
			if _, err := seed.Join(vu.ID, g.BroadcastID, geo.Location{}); err != nil {
				t.Fatal(err)
			}
			lastID, lastViewer = g.BroadcastID, vu.ID
		}
	}
	seed.Close()
	before, _ := backend.Load()

	recoverOnce := func() {
		s := newJournaledService(backend, nil)
		defer s.Close()
		if n := s.LiveCount(); n != broadcasts {
			t.Fatalf("recovered %d live broadcasts, want %d", n, broadcasts)
		}
		if n := s.UserCount(); n != broadcasts*(1+viewersEach) {
			t.Fatalf("recovered %d users, want %d", n, broadcasts*(1+viewersEach))
		}
		// The journal's last record is already applied: decode is eager.
		if joins, err := s.Joins(lastID); err != nil || len(joins) != viewersEach || joins[viewersEach-1].UserID != lastViewer {
			t.Fatalf("last broadcast's joins after recovery = %+v, err %v", joins, err)
		}
	}
	allocs := testing.AllocsPerRun(20, recoverOnce)
	if allocs > maxAllocsPerRecord*records {
		t.Fatalf("recovery allocates %.0f times for %d records (%.1f per record), want <= %d per record",
			allocs, records, allocs/records, maxAllocsPerRecord)
	}
	if after, _ := backend.Load(); !bytes.Equal(after, before) {
		t.Fatalf("recovery changed the journal: %d bytes before, %d after", len(before), len(after))
	}
}

// TestControlRecoverTruncatesTornTail: a crash mid-append leaves a damaged
// tail; recovery must truncate it, count it, and leave a journal that future
// appends extend cleanly.
func TestControlRecoverTruncatesTornTail(t *testing.T) {
	backend := journal.NewMem()
	reg := metrics.NewRegistry()
	s := newJournaledService(backend, reg)
	u := s.Register("alice")
	grant, err := s.StartBroadcast(u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Join(77, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatal(err)
	}

	s.Crash()
	backend.CorruptTail(3) // tear the last record (the join)

	s.Recover()
	if s.LiveCount() != 1 {
		t.Fatalf("LiveCount after torn-tail recovery = %d, want 1", s.LiveCount())
	}
	if joins, _ := s.Joins(grant.BroadcastID); len(joins) != 0 {
		t.Fatalf("torn join survived: %v", joins)
	}
	var corrupt int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "journal_corrupt_tails_total" {
			corrupt += c.Value
		}
	}
	if corrupt == 0 {
		t.Fatal("journal_corrupt_tails_total did not count the torn tail")
	}

	// Appends after the truncation must be reachable to the next replay.
	if _, err := s.Join(88, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s.Recover()
	if joins, _ := s.Joins(grant.BroadcastID); len(joins) != 1 || joins[0].UserID != 88 {
		t.Fatalf("post-truncate join lost: %v", joins)
	}
}

// TestControlPrivateBroadcastRecovery: the per-viewer RTMPS tokens minted for
// private broadcasts are unforgeable; they must survive a control crash or
// every private viewer's reconnect is refused.
func TestControlPrivateBroadcastRecovery(t *testing.T) {
	backend := journal.NewMem()
	s := newJournaledService(backend, nil)
	host := s.Register("host")
	guest := s.Register("guest")
	grant, err := s.StartPrivateBroadcast(host.ID, geo.Location{}, []uint64{guest.ID})
	if err != nil {
		t.Fatal(err)
	}
	vg, err := s.Join(guest.ID, grant.BroadcastID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	if vg.ViewerToken == "" {
		t.Fatal("private join minted no viewer token")
	}

	s.Crash()
	s.Recover()

	if s.Authorize(grant.BroadcastID, vg.ViewerToken, "viewer") != nil {
		t.Fatal("viewer token rejected after recovery")
	}
	if s.Authorize(grant.BroadcastID, "forged", "viewer") == nil {
		t.Fatal("forged viewer token accepted after recovery")
	}
	// The allow-list survived too: an uninvited user still cannot join.
	if _, err := s.Join(999, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrNotInvited) {
		t.Fatalf("uninvited join after recovery: err = %v", err)
	}
}

// TestTenantUsageTornTailNoDoubleCount: usage records carry ABSOLUTE day
// totals, so a crash that tears the newest rollup off the journal loses at
// most that one flush — replay can never double-count, and the next flush
// re-journals a total that includes everything the torn record covered.
func TestTenantUsageTornTailNoDoubleCount(t *testing.T) {
	backend := journal.NewMem()
	s := newJournaledService(backend, metrics.NewRegistry())
	tn, err := s.CreateTenant("acme", Plan{})
	if err != nil {
		t.Fatal(err)
	}
	k, _ := s.IssueAPIKey(tn.ID)
	u := s.Register("alice")
	grant, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	m := meterOf(s, grant.BroadcastID)

	m.MeterFrames(10, 100)
	if s.FlushUsage() != 1 { // journals {frames: 10, bytes: 100}
		t.Fatal("first flush")
	}
	m.MeterFrames(15, 150)
	if s.FlushUsage() != 1 { // journals {frames: 25, bytes: 250} — absolute
		t.Fatal("second flush")
	}

	s.Crash()
	backend.CorruptTail(3) // tear the newest usage record mid-append

	s.Recover()
	days, err := s.Usage(tn.ID)
	if err != nil || len(days) != 1 {
		t.Fatalf("usage after torn-tail recovery = %+v, err %v", days, err)
	}
	// Exactly the first flush: never 350 (double-counted) or 250 (the torn
	// record must not have replayed).
	if days[0].Frames != 10 || days[0].Bytes != 100 {
		t.Fatalf("rollup after torn tail = %+v, want frames=10 bytes=100", days[0])
	}

	// The delivery the torn flush covered is gone from the rollup (meters
	// were drained), but new metering folds in cleanly and the re-journaled
	// absolute total reaches the next incarnation intact.
	m2 := meterOf(s, grant.BroadcastID)
	m2.MeterChunks(4, 40)
	if s.FlushUsage() != 1 {
		t.Fatal("post-recovery flush")
	}
	s.Crash()
	s2 := newJournaledService(backend, nil)
	days, err = s2.Usage(tn.ID)
	if err != nil || len(days) != 1 || days[0].Frames != 10 || days[0].Chunks != 4 || days[0].Bytes != 140 {
		t.Fatalf("restarted rollup = %+v, err %v", days, err)
	}
}

// TestTenantReplayOrdering: replay applies tenancy records in journal order —
// a plan set after a key issue, a revocation after a re-issue, a suspension
// after a resume all land in their final states.
func TestTenantReplayOrdering(t *testing.T) {
	backend := journal.NewMem()
	s := newJournaledService(backend, nil)
	tn, _ := s.CreateTenant("flip", Plan{Name: "v1"})
	s.SetTenantPlan(tn.ID, Plan{Name: "v2"})
	s.SetTenantPlan(tn.ID, Plan{Name: "v3", MaxJoinRPS: 9})
	s.SuspendTenant(tn.ID)
	s.ResumeTenant(tn.ID)
	k1, _ := s.IssueAPIKey(tn.ID)
	s.RevokeAPIKey(k1.Key)
	k2, _ := s.IssueAPIKey(tn.ID)
	s.Crash()

	s2 := newJournaledService(backend, nil)
	got, err := s2.TenantInfo(tn.ID)
	if err != nil || got.Plan.Name != "v3" || got.Plan.MaxJoinRPS != 9 || got.Suspended {
		t.Fatalf("replayed tenant = %+v, err %v", got, err)
	}
	u := s2.Register("alice")
	if _, err := s2.StartBroadcastKey(k1.Key, u.ID, geo.Location{}); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("revoked key after replay: err = %v", err)
	}
	if _, err := s2.StartBroadcastKey(k2.Key, u.ID, geo.Location{}); err != nil {
		t.Fatalf("live key after replay: %v", err)
	}
}

// FuzzControlJournalRecovery: an arbitrary byte soup in the backend —
// including corrupted encodings of real control records — must never panic
// service construction, and the surviving journal must be extendable: state
// acknowledged by the recovered service replays into the next incarnation.
// The seed corpus covers the tenancy record types (32–37) alongside the
// broadcast ones so mutations hit their codecs too.
func FuzzControlJournalRecovery(f *testing.F) {
	seed := func() []byte {
		backend := journal.NewMem()
		s := newJournaledService(backend, nil)
		u := s.Register("alice")
		grant, _ := s.StartBroadcast(u.ID, geo.Location{City: "NYC"})
		s.Join(u.ID, grant.BroadcastID, geo.Location{})
		s.EndBroadcast(grant.BroadcastID, grant.Token)
		tn, _ := s.CreateTenant("acme", Plan{Name: "pro", MaxJoinRPS: 10, DailyBytesQuota: 1 << 20})
		s.SetTenantPlan(tn.ID, Plan{Name: "pro2", MaxConcurrentBroadcasts: 2})
		key, _ := s.IssueAPIKey(tn.ID)
		g2, _ := s.StartBroadcastKey(key.Key, u.ID, geo.Location{})
		if m := meterOf(s, g2.BroadcastID); m != nil {
			m.MeterFrames(5, 500)
		}
		s.FlushUsage()
		s.RevokeAPIKey(key.Key)
		s.SuspendTenant(tn.ID)
		s.ResumeTenant(tn.ID)
		s.Crash()
		data, _ := backend.Load()
		return data
	}()
	f.Add([]byte(nil))
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		backend := journal.NewMem()
		backend.Append(data)
		s := newJournaledService(backend, nil)
		u := s.Register("fuzz")
		grant, err := s.StartBroadcast(u.ID, geo.Location{})
		if err != nil {
			t.Fatalf("start on recovered service: %v", err)
		}
		s.Crash()
		s2 := newJournaledService(backend, nil)
		if s2.Authorize(grant.BroadcastID, grant.Token, wire.RoleBroadcaster) != nil {
			t.Fatal("broadcast journaled after torn-tail truncation did not survive restart")
		}
	})
}
