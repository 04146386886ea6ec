package control

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
)

// These tests pin the commit/apply rule of journal.go: a live mutation and
// its replay run the same apply function, so a service and any incarnation
// rebuilt from its journal are indistinguishable — and the journal bytes are
// the ones the previous format wrote.

var fixtureEpoch = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

type journalRec struct {
	Type    journal.RecordType
	ID      string
	Payload string
}

// fixtureJournal is one record of every type, payloads copied verbatim from a
// journal written before the domain types carried the JSON tags (secrets
// replaced by the placeholders fixtureScript's normalization uses).
var fixtureJournal = []journalRec{
	{journal.RecordCtrlRegister, "", `{"id":1,"name":"alice"}`},
	{journal.RecordCtrlRegister, "", `{"id":2}`},
	{journal.RecordCtrlStart, "bcast-1", `{"token":"tok-1","broadcaster":1,"origin_id":"origin-1","rtmp_addr":"127.0.0.1:1935","started_at":1772366400000000000,"city":"NYC","lat":40.7,"lon":-74}`},
	{journal.RecordCtrlKey, "bcast-1", `{"pubkey":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="}`},
	{journal.RecordCtrlJoin, "bcast-1", `{"user_id":2,"at":1772366400000000000}`},
	{journal.RecordCtrlStart, "bcast-2", `{"token":"tok-2","broadcaster":1,"origin_id":"origin-1","rtmp_addr":"127.0.0.1:1935","rtmps_addr":"127.0.0.1:19350","started_at":1772366400000000000,"private":true,"allowed":[2,9,4,7,3,8,5,6]}`},
	{journal.RecordCtrlJoin, "bcast-2", `{"user_id":2,"at":1772366400000000000,"viewer_token":"vt-1"}`},
	{journal.RecordCtrlTenant, "tnt-1", `{"name":"acme","plan":{"name":"pro","max_broadcasts":2,"max_join_rps":50,"join_burst":5,"daily_bytes":1073741824},"created_at":1772366400000000000}`},
	{journal.RecordCtrlTenantPlan, "tnt-1", `{"plan":{"name":"pro2","max_join_rps":9}}`},
	{journal.RecordCtrlTenantStatus, "tnt-1", `{"suspended":true}`},
	{journal.RecordCtrlTenantStatus, "tnt-1", `{"suspended":false}`},
	{journal.RecordCtrlKeyIssue, "key-1", `{"tenant":"tnt-1","issued_at":1772366400000000000}`},
	{journal.RecordCtrlStart, "bcast-3", `{"token":"tok-3","broadcaster":1,"origin_id":"origin-1","rtmp_addr":"127.0.0.1:1935","started_at":1772366400000000000,"city":"SF","tenant":"tnt-1"}`},
	{journal.RecordCtrlUsage, "tnt-1", `{"day":"2026-03-01","frames":3,"chunks":0,"bytes":333}`},
	{journal.RecordCtrlKeyRevoke, "key-1", `{}`},
	{journal.RecordCtrlEnd, "bcast-1", `{"ended_at":1772366400000000000}`},
}

// fixtureScript drives a journaled service through the mutations that wrote
// fixtureJournal and returns what landed in the journal, with the
// crypto/rand secrets replaced by stable placeholders.
func fixtureScript(t *testing.T) []journalRec {
	t.Helper()
	backend := journal.NewMem()
	s := newTenantService(backend, clock.NewWheel(clock.WheelConfig{Epoch: fixtureEpoch}))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	a := s.Register("alice")
	s.Register("")
	g, err := s.StartBroadcast(a.ID, geo.Location{City: "NYC", Lat: 40.7, Lon: -74})
	must(err)
	must(s.RegisterPublicKey(g.BroadcastID, g.Token, make([]byte, 32)))
	_, err = s.Join(2, g.BroadcastID, geo.Location{})
	must(err)
	p, err := s.StartPrivateBroadcast(a.ID, geo.Location{}, []uint64{2, 9, 4, 7, 3, 8, 5, 6})
	must(err)
	vg, err := s.Join(2, p.BroadcastID, geo.Location{})
	must(err)
	tn, err := s.CreateTenant("acme", Plan{Name: "pro", MaxConcurrentBroadcasts: 2, MaxJoinRPS: 50, JoinBurst: 5, DailyBytesQuota: 1 << 30})
	must(err)
	must(s.SetTenantPlan(tn.ID, Plan{Name: "pro2", MaxJoinRPS: 9}))
	must(s.SuspendTenant(tn.ID))
	must(s.ResumeTenant(tn.ID))
	k, err := s.IssueAPIKey(tn.ID)
	must(err)
	g2, err := s.StartBroadcastKey(k.Key, a.ID, geo.Location{City: "SF"})
	must(err)
	meterOf(s, g2.BroadcastID).MeterFrames(3, 333)
	s.FlushUsage()
	must(s.RevokeAPIKey(k.Key))
	must(s.EndBroadcast(g.BroadcastID, g.Token))
	s.Close()

	data, err := backend.Load()
	must(err)
	secrets := strings.NewReplacer(g.Token, "tok-1", p.Token, "tok-2", g2.Token, "tok-3",
		vg.ViewerToken, "vt-1", k.Key, "key-1")
	var out []journalRec
	_, err = journal.Replay(data, func(r journal.Record) error {
		out = append(out, journalRec{r.Type, secrets.Replace(r.BroadcastID), secrets.Replace(string(r.Payload))})
		return nil
	})
	must(err)
	return out
}

// TestJournalBytesUnchanged: the live service writes exactly the old-format
// payloads — tags, field order, omitted zero values and all.
func TestJournalBytesUnchanged(t *testing.T) {
	got := fixtureScript(t)
	if len(got) != len(fixtureJournal) {
		t.Fatalf("journal has %d records, fixture %d", len(got), len(fixtureJournal))
	}
	for i := range got {
		if got[i] != fixtureJournal[i] {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], fixtureJournal[i])
		}
	}
}

// TestJournalBytesDeterministic: two runs over the same inputs journal the
// same bytes. A private start's allow-list is the caller's slice, not a map
// walk.
func TestJournalBytesDeterministic(t *testing.T) {
	if a, b := fixtureScript(t), fixtureScript(t); !reflect.DeepEqual(a, b) {
		t.Fatalf("same inputs, different journals:\n%+v\n%+v", a, b)
	}
}

// TestOldFormatFixtureReplays: a journal in the previous format rebuilds the
// state its writer held.
func TestOldFormatFixtureReplays(t *testing.T) {
	var data []byte
	for _, r := range fixtureJournal {
		data = journal.AppendRecord(data, journal.Record{Type: r.Type, BroadcastID: r.ID, Payload: []byte(r.Payload)})
	}
	backend := journal.NewMem()
	backend.Append(data)
	s := newTenantService(backend, clock.NewWheel(clock.WheelConfig{Epoch: fixtureEpoch}))
	at := time.Unix(0, fixtureEpoch.UnixNano())

	if s.UserCount() != 2 || s.users[1].Name != "alice" || s.users[2].Name != "" {
		t.Fatalf("users = %+v", s.users)
	}
	wantInfo := map[string]Summary{
		"bcast-1": {BroadcastID: "bcast-1", Broadcaster: 1, StartedAt: at, EndedAt: at, Viewers: 1,
			Location: geo.Location{City: "NYC", Lat: 40.7, Lon: -74}},
		"bcast-2": {BroadcastID: "bcast-2", Broadcaster: 1, StartedAt: at, Live: true, Viewers: 1},
		"bcast-3": {BroadcastID: "bcast-3", Broadcaster: 1, StartedAt: at, Live: true,
			Location: geo.Location{City: "SF"}},
	}
	for id, want := range wantInfo {
		if got, err := s.Info(id); err != nil || got != want {
			t.Errorf("Info(%s) = %+v, %v; want %+v", id, got, err, want)
		}
	}
	// Only the public, still-live broadcast is on the global list.
	if list := s.GlobalList(); len(list) != 1 || list[0].BroadcastID != "bcast-3" {
		t.Errorf("GlobalList = %+v", list)
	}
	if joins, _ := s.Joins("bcast-1"); len(joins) != 1 || joins[0] != (ViewerJoin{UserID: 2, At: at}) {
		t.Errorf("Joins(bcast-1) = %+v", joins)
	}
	if k, err := s.PublicKey("bcast-1"); err != nil || len(k) != 32 {
		t.Errorf("PublicKey(bcast-1) = %x, %v", k, err)
	}
	if s.Authorize("bcast-2", "tok-2", "broadcaster") != nil || s.Authorize("bcast-2", "vt-1", "viewer") != nil ||
		s.Authorize("bcast-2", "vt-2", "viewer") == nil || s.Authorize("bcast-1", "tok-1", "broadcaster") == nil {
		t.Error("replayed tokens give the wrong verdicts")
	}
	if _, err := s.Join(6, "bcast-2", geo.Location{}); err != nil {
		t.Errorf("invited user 6 refused: %v", err)
	}
	if _, err := s.Join(10, "bcast-2", geo.Location{}); err != ErrNotInvited {
		t.Errorf("uninvited join err = %v", err)
	}

	wantTenant := Tenant{ID: "tnt-1", Name: "acme", Plan: Plan{Name: "pro2", MaxJoinRPS: 9}, CreatedAt: at}
	if got := s.Tenants(); len(got) != 1 || got[0] != wantTenant {
		t.Errorf("Tenants = %+v, want %+v", got, wantTenant)
	}
	if tenantOf(s, "bcast-3") != "tnt-1" || s.tenants["tnt-1"].live != 1 {
		t.Errorf("tenant live = %d, tenant of bcast-3 = %q", s.tenants["tnt-1"].live, tenantOf(s, "bcast-3"))
	}
	if days, _ := s.Usage("tnt-1"); len(days) != 1 || days[0] != (UsageDay{Day: "2026-03-01", Frames: 3, Bytes: 333}) {
		t.Errorf("Usage = %+v", days)
	}
	if _, err := s.StartBroadcastKey("key-1", 1, geo.Location{}); err != ErrKeyRevoked {
		t.Errorf("revoked key verdict = %v", err)
	}
	// Sequential IDs resume past everything journaled.
	if u := s.Register("carol"); u.ID != 3 {
		t.Errorf("next user ID = %d, want 3", u.ID)
	}
	if g, _ := s.StartBroadcast(1, geo.Location{}); g.BroadcastID != "bcast-4" {
		t.Errorf("next broadcast ID = %s, want bcast-4", g.BroadcastID)
	}
	if tn, _ := s.CreateTenant("next", Plan{}); tn.ID != "tnt-2" {
		t.Errorf("next tenant ID = %s, want tnt-2", tn.ID)
	}
}

// observed is everything a caller (or the data plane) can see of a service.
type observed struct {
	Users      map[uint64]User
	UserCount  uint64
	NextBcast  uint64
	NextTenant uint64
	Live       []string
	Info       map[string]Summary
	Joins      map[string][]ViewerJoin
	PubKeys    map[string]string
	TenantOf   map[string]string
	// Tokens holds Auth verdicts for every secret the run minted, keyed
	// "broadcast/role/token".
	Tokens  map[string]bool
	Tenants []Tenant
	LiveOf  map[string]int
	Usage   map[string][]UsageDay
	Keys    map[string]string
}

// diff names the fields in which two observations differ.
func (o observed) diff(other observed) string {
	var out []string
	a, b := reflect.ValueOf(o), reflect.ValueOf(other)
	for i := 0; i < a.NumField(); i++ {
		if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s:\n  %+v\n  %+v", a.Type().Field(i).Name, a.Field(i), b.Field(i)))
		}
	}
	return strings.Join(out, "\n")
}

// mutator drives random mutations against a service and remembers the
// secrets it was handed, so observe can probe them later.
type mutator struct {
	s          *Service
	clk        *clock.Wheel
	rnd        *rand.Rand
	users      []uint64
	broadcasts []BroadcastGrant
	viewerToks map[string][]string
	tenants    []string
	keys       []string
}

func pick[T any](rnd *rand.Rand, xs []T) (T, bool) {
	var zero T
	if len(xs) == 0 {
		return zero, false
	}
	return xs[rnd.Intn(len(xs))], true
}

// step performs one random mutation. Rejections (ended broadcast, revoked
// key, plan limit) are part of the interleaving, not failures.
func (m *mutator) step() {
	s, rnd := m.s, m.rnd
	user, _ := pick(rnd, m.users)
	loc := geo.Location{City: fmt.Sprintf("city-%d", rnd.Intn(5)), Lat: rnd.Float64() * 90, Lon: rnd.Float64() * 180}
	m.clk.Advance(time.Duration(rnd.Intn(4)) * time.Hour)
	switch rnd.Intn(15) {
	case 0:
		m.users = append(m.users, s.Register(fmt.Sprintf("user-%d", len(m.users))).ID)
	case 1:
		if g, err := s.StartBroadcast(user, loc); err == nil {
			m.broadcasts = append(m.broadcasts, g)
		}
	case 2:
		allowed := make([]uint64, rnd.Intn(4))
		for i := range allowed {
			allowed[i], _ = pick(rnd, m.users)
		}
		if g, err := s.StartPrivateBroadcast(user, loc, allowed); err == nil {
			m.broadcasts = append(m.broadcasts, g)
		}
	case 3:
		if key, ok := pick(rnd, m.keys); ok {
			if g, err := s.StartBroadcastKey(key, user, loc); err == nil {
				m.broadcasts = append(m.broadcasts, g)
			}
		}
	case 4, 14:
		if g, ok := pick(rnd, m.broadcasts); ok {
			if rnd.Intn(2) == 0 {
				s.EndBroadcast(g.BroadcastID, g.Token)
			} else {
				s.ForceEnd(g.BroadcastID)
			}
		}
	case 5:
		if g, ok := pick(rnd, m.broadcasts); ok {
			pub := make([]byte, 32)
			rnd.Read(pub)
			s.RegisterPublicKey(g.BroadcastID, g.Token, pub)
		}
	case 6, 7:
		if g, ok := pick(rnd, m.broadcasts); ok {
			var vg ViewerGrant
			var err error
			if key, ok := pick(rnd, m.keys); ok && rnd.Intn(2) == 0 {
				vg, err = s.JoinKey(key, user, g.BroadcastID, loc)
			} else {
				vg, err = s.Join(user, g.BroadcastID, loc)
			}
			if err == nil && vg.ViewerToken != "" {
				m.viewerToks[g.BroadcastID] = append(m.viewerToks[g.BroadcastID], vg.ViewerToken)
			}
		}
	case 8:
		plan := Plan{Name: "p", MaxConcurrentBroadcasts: rnd.Intn(4), MaxJoinRPS: float64(rnd.Intn(3))}
		if tn, err := s.CreateTenant(fmt.Sprintf("tenant-%d", len(m.tenants)), plan); err == nil {
			m.tenants = append(m.tenants, tn.ID)
		}
	case 9:
		if id, ok := pick(rnd, m.tenants); ok {
			s.SetTenantPlan(id, Plan{Name: "q", MaxConcurrentBroadcasts: rnd.Intn(6), DailyBytesQuota: int64(rnd.Intn(3)) * 4000})
		}
	case 10:
		if id, ok := pick(rnd, m.tenants); ok {
			if rnd.Intn(2) == 0 {
				s.SuspendTenant(id)
			} else {
				s.ResumeTenant(id)
			}
		}
	case 11:
		if id, ok := pick(rnd, m.tenants); ok {
			if k, err := s.IssueAPIKey(id); err == nil {
				m.keys = append(m.keys, k.Key)
			}
		}
	case 12:
		if key, ok := pick(rnd, m.keys); ok {
			s.RevokeAPIKey(key)
		}
	case 13:
		for _, g := range m.broadcasts {
			if meter := meterOf(s, g.BroadcastID); meter != nil && rnd.Intn(3) == 0 {
				meter.MeterFrames(int64(rnd.Intn(9)), int64(rnd.Intn(900)))
				meter.MeterChunks(int64(rnd.Intn(3)), int64(rnd.Intn(3000)))
			}
		}
		s.FlushUsage()
	}
}

// observe reads every observable of s, probing the secrets m collected.
func (m *mutator) observe(t *testing.T, s *Service) observed {
	t.Helper()
	o := observed{
		UserCount: s.UserCount(),
		Info:      map[string]Summary{},
		Joins:     map[string][]ViewerJoin{},
		PubKeys:   map[string]string{},
		TenantOf:  map[string]string{},
		Tokens:    map[string]bool{},
		Tenants:   s.Tenants(),
		LiveOf:    map[string]int{},
		Usage:     map[string][]UsageDay{},
		Keys:      map[string]string{},
	}
	if s.LiveCount() > GlobalListSize {
		t.Fatalf("%d live broadcasts: the global list would sample", s.LiveCount())
	}
	for _, b := range s.GlobalList() {
		o.Live = append(o.Live, b.BroadcastID)
	}
	sort.Strings(o.Live)
	for _, g := range m.broadcasts {
		id := g.BroadcastID
		info, err := s.Info(id)
		if err != nil {
			t.Fatalf("Info(%s): %v", id, err)
		}
		o.Info[id] = info
		o.Joins[id], _ = s.Joins(id)
		key, err := s.PublicKey(id)
		if err != nil {
			t.Fatalf("PublicKey(%s): %v", id, err)
		}
		o.PubKeys[id] = hex.EncodeToString(key)
		o.TenantOf[id] = tenantOf(s, id)
		o.Tokens[id+"/broadcaster/"+g.Token] = s.Authorize(id, g.Token, "broadcaster") == nil
		o.Tokens[id+"/viewer/forged"] = s.Authorize(id, "forged", "viewer") == nil
		for _, vt := range m.viewerToks[id] {
			o.Tokens[id+"/viewer/"+vt] = s.Authorize(id, vt, "viewer") == nil
		}
	}
	for _, id := range m.tenants {
		days, err := s.Usage(id)
		if err != nil {
			t.Fatalf("Usage(%s): %v", id, err)
		}
		o.Usage[id] = days
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o.Users = make(map[uint64]User, len(s.users))
	for id, u := range s.users {
		o.Users[id] = u
	}
	o.NextBcast, o.NextTenant = s.nextBcast, s.nextTenant
	for id, ts := range s.tenants {
		o.LiveOf[id] = ts.live
	}
	for _, key := range m.keys {
		_, err := s.resolveKeyLocked(key)
		o.Keys[key] = fmt.Sprint(err)
	}
	return o
}

// TestLiveEqualsReplay is the property the commit/apply rule buys: after any
// interleaving of the eleven mutation kinds, the service that executed them,
// the same service after Crash+Recover, and a fresh service over the same
// backend all observe the same.
func TestLiveEqualsReplay(t *testing.T) {
	var keys, privateJoins, rollups int
	for seed := int64(1); seed <= 25; seed++ {
		backend := journal.NewMem()
		clk := clock.NewWheel(clock.WheelConfig{Epoch: fixtureEpoch})
		m := &mutator{
			s:          newTenantService(backend, clk),
			clk:        clk,
			rnd:        rand.New(rand.NewSource(seed)),
			viewerToks: map[string][]string{},
		}
		for i := 0; i < 300; i++ {
			m.step()
		}
		live := m.observe(t, m.s)
		keys, privateJoins = keys+len(m.keys), privateJoins+len(m.viewerToks)
		for _, days := range live.Usage {
			rollups += len(days)
		}
		m.s.Crash()
		m.s.Recover()
		if d := live.diff(m.observe(t, m.s)); d != "" {
			t.Fatalf("seed %d: live state, then the state after Crash+Recover, differ in %s", seed, d)
		}
		m.s.Crash()
		fresh := newTenantService(backend, clk)
		if d := live.diff(m.observe(t, fresh)); d != "" {
			t.Fatalf("seed %d: live state, then a fresh service over its journal, differ in %s", seed, d)
		}
		fresh.Close()
	}
	if keys == 0 || privateJoins == 0 || rollups == 0 {
		t.Fatalf("the seeds exercised too little: %d keys, %d privately joined broadcasts, %d usage days",
			keys, privateJoins, rollups)
	}
}
