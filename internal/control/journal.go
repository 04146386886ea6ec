package control

import (
	"crypto/ed25519"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// This file is the control plane's durability layer (DESIGN.md §6.3): every
// state transition the service acknowledges — user registration, broadcast
// start/end, public-key registration, viewer join — is appended to a
// write-ahead journal, and Crash/Recover replays it so a restarted control
// plane resumes with live broadcasts, tokens, and edge assignments intact.
// The framing is internal/journal's CRC-checked record stream; the payloads
// here are JSON: the control plane is off every hot path, so the codec
// optimizes for schema evolution over allocation count.
//
// Replay determinism rests on one invariant: records are appended while
// s.mu is held, so the journal order IS the serialization the mutex imposed
// on the live mutations. Replaying the log single-threaded therefore
// reconstructs exactly the state the crashed process acknowledged —
// including the crypto/rand-minted broadcast and viewer tokens, which could
// never be re-derived.

// ctrlRecord is one journaled mutation. Its JSON form is the journal payload
// and applyLocked is the only code that installs it into service state: the
// live path reaches it through commitLocked, replay through
// applyRecordLocked, so live state equals replayed state by construction.
// Apply functions re-check what the live path already validated (the row
// exists, the broadcast is not ended): on replay the journal is outside
// input. The entity ID travels in the record frame's BroadcastID field.
type ctrlRecord interface {
	applyLocked(s *Service, id string)
}

// newCtrlRecord returns the empty payload codec for a record type, or nil for
// a type this binary does not know.
func newCtrlRecord(t journal.RecordType) ctrlRecord {
	switch t {
	case journal.RecordCtrlRegister:
		return new(ctrlRegisterRec)
	case journal.RecordCtrlStart:
		return new(ctrlStartRec)
	case journal.RecordCtrlEnd:
		return new(ctrlEndRec)
	case journal.RecordCtrlKey:
		return new(ctrlKeyRec)
	case journal.RecordCtrlJoin:
		return new(ctrlJoinRec)
	case journal.RecordCtrlTenant:
		return new(ctrlTenantRec)
	case journal.RecordCtrlTenantPlan:
		return new(ctrlTenantPlanRec)
	case journal.RecordCtrlTenantStatus:
		return new(ctrlTenantStatusRec)
	case journal.RecordCtrlKeyIssue:
		return new(ctrlKeyIssueRec)
	case journal.RecordCtrlKeyRevoke:
		return new(ctrlKeyRevokeRec)
	case journal.RecordCtrlUsage:
		return new(UsageDay)
	}
	return nil
}

type ctrlRegisterRec struct {
	ID   uint64 `json:"id"`
	Name string `json:"name,omitempty"`
}

func (rec *ctrlRegisterRec) applyLocked(s *Service, _ string) {
	if rec.ID == 0 {
		return // a register record without an ID names no user
	}
	s.users[rec.ID] = User{ID: rec.ID, Name: rec.Name}
	if rec.ID > s.nextUser {
		s.nextUser = rec.ID
	}
}

type ctrlStartRec struct {
	Token       string   `json:"token"`
	Broadcaster uint64   `json:"broadcaster"`
	OriginID    string   `json:"origin_id,omitempty"`
	RTMPAddr    string   `json:"rtmp_addr,omitempty"`
	RTMPSAddr   string   `json:"rtmps_addr,omitempty"`
	StartedAt   int64    `json:"started_at"` // unix nanos
	City        string   `json:"city,omitempty"`
	Lat         float64  `json:"lat,omitempty"`
	Lon         float64  `json:"lon,omitempty"`
	Private     bool     `json:"private,omitempty"`
	Allowed     []uint64 `json:"allowed,omitempty"`
	TenantID    string   `json:"tenant,omitempty"`
}

func (rec *ctrlStartRec) applyLocked(s *Service, id string) {
	if _, ok := s.broadcasts[id]; ok {
		return
	}
	st := &broadcastState{
		id:          id,
		token:       rec.Token,
		broadcaster: rec.Broadcaster,
		originID:    rec.OriginID,
		rtmpAddr:    rec.RTMPAddr,
		rtmpsAddr:   rec.RTMPSAddr,
		startedAt:   time.Unix(0, rec.StartedAt),
		loc:         geo.Location{City: rec.City, Lat: rec.Lat, Lon: rec.Lon},
		private:     rec.Private,
		tenantID:    rec.TenantID,
		started:     closedStart,
	}
	if rec.TenantID != "" {
		// The owning tenant's record always precedes the start in the
		// journal (both were appended under s.mu); a missing row means a
		// tenant record was skipped as undecodable.
		if ts, ok := s.tenants[rec.TenantID]; ok {
			ts.live++
		}
	}
	if rec.Private {
		st.allowed = make(map[uint64]bool, len(rec.Allowed))
		for _, u := range rec.Allowed {
			st.allowed[u] = true
		}
		st.viewerTokens = make(map[string]bool)
	} else {
		// Private broadcasts never appear on the public global list.
		s.livePos[id] = len(s.liveIDs)
		s.liveIDs = append(s.liveIDs, id)
	}
	s.broadcasts[id] = st
	if n, ok := seqOf(id, "bcast-"); ok && n > s.nextBcast {
		s.nextBcast = n
	}
}

type ctrlEndRec struct {
	EndedAt int64 `json:"ended_at"` // unix nanos
}

func (rec *ctrlEndRec) applyLocked(s *Service, id string) {
	st, ok := s.broadcasts[id]
	if !ok || st.ended {
		return
	}
	st.ended = true
	st.endedAt = time.Unix(0, rec.EndedAt)
	if st.tenantID != "" {
		if ts, ok := s.tenants[st.tenantID]; ok && ts.live > 0 {
			ts.live--
		}
	}
	if pos, ok := s.livePos[id]; ok {
		last := len(s.liveIDs) - 1
		s.liveIDs[pos] = s.liveIDs[last]
		s.livePos[s.liveIDs[pos]] = pos
		s.liveIDs = s.liveIDs[:last]
		delete(s.livePos, id)
	}
}

type ctrlKeyRec struct {
	PubKey []byte `json:"pubkey"`
}

func (rec *ctrlKeyRec) applyLocked(s *Service, id string) {
	if st, ok := s.broadcasts[id]; ok {
		st.pubKey = append(ed25519.PublicKey(nil), rec.PubKey...)
	}
}

type ctrlJoinRec struct {
	UserID uint64 `json:"user_id"`
	At     int64  `json:"at"` // unix nanos
	// ViewerToken is set for private-broadcast joins: the origin validates
	// it at RTMPS handshake, so it must survive a control restart.
	ViewerToken string `json:"viewer_token,omitempty"`
}

func (rec *ctrlJoinRec) applyLocked(s *Service, id string) {
	st, ok := s.broadcasts[id]
	if !ok || st.ended {
		return
	}
	st.joins = append(st.joins, ViewerJoin{UserID: rec.UserID, At: time.Unix(0, rec.At)})
	if rec.ViewerToken != "" && st.viewerTokens != nil {
		st.viewerTokens[rec.ViewerToken] = true
	}
}

// Tenancy records (DESIGN.md §11). Plan and UsageDay are their own payloads;
// the tenant row keeps a record type because its timestamp is journaled as
// unix nanos and its ID rides in the frame.

type ctrlTenantRec struct {
	Name      string `json:"name,omitempty"`
	Plan      Plan   `json:"plan"`
	Suspended bool   `json:"suspended,omitempty"`
	CreatedAt int64  `json:"created_at"` // unix nanos
}

func (rec *ctrlTenantRec) applyLocked(s *Service, id string) {
	t := Tenant{
		ID:        id,
		Name:      rec.Name,
		Plan:      rec.Plan,
		Suspended: rec.Suspended,
		CreatedAt: time.Unix(0, rec.CreatedAt),
	}
	if ts, ok := s.tenants[id]; ok {
		// Upsert: keep live count and rollups accumulated so far.
		ts.t = t
	} else {
		s.tenants[id] = &tenantState{t: t, usage: make(map[string]UsageDay)}
	}
	if n, ok := seqOf(id, "tnt-"); ok && n > s.nextTenant {
		s.nextTenant = n
	}
}

type ctrlTenantPlanRec struct {
	Plan Plan `json:"plan"`
}

func (rec *ctrlTenantPlanRec) applyLocked(s *Service, id string) {
	if ts, ok := s.tenants[id]; ok {
		ts.t.Plan = rec.Plan
	}
}

type ctrlTenantStatusRec struct {
	Suspended bool `json:"suspended"`
}

func (rec *ctrlTenantStatusRec) applyLocked(s *Service, id string) {
	if ts, ok := s.tenants[id]; ok {
		ts.t.Suspended = rec.Suspended
	}
}

// ctrlKeyIssueRec's frame ID is the API key itself.
type ctrlKeyIssueRec struct {
	Tenant   string `json:"tenant"`
	IssuedAt int64  `json:"issued_at"` // unix nanos
}

func (rec *ctrlKeyIssueRec) applyLocked(s *Service, key string) {
	if rec.Tenant == "" {
		return // a key issued to no tenant authorizes nothing
	}
	s.keys[key] = &APIKey{Key: key, TenantID: rec.Tenant, IssuedAt: time.Unix(0, rec.IssuedAt)}
}

type ctrlKeyRevokeRec struct{}

func (*ctrlKeyRevokeRec) applyLocked(s *Service, key string) {
	if k, ok := s.keys[key]; ok {
		k.Revoked = true
	}
}

// applyLocked installs one usage rollup. Records carry ABSOLUTE cumulative day
// totals (see journal.RecordCtrlUsage) and apply ASSIGNS them — never adds.
// Later records for the same day simply carry larger totals, so replaying any
// prefix of the journal (a torn tail) yields exact counts as of the last
// durable flush, with no double-counting.
func (rec *UsageDay) applyLocked(s *Service, tenantID string) {
	ts, ok := s.tenants[tenantID]
	if !ok {
		return
	}
	if rec.Day == "" {
		return // a rollup without a day has no row to land in
	}
	ts.usage[rec.Day] = *rec
}

// encodeCtrl marshals a payload codec. The codecs are plain structs of
// scalars and slices; json.Marshal cannot fail on them.
func encodeCtrl(rec ctrlRecord) []byte {
	b, _ := json.Marshal(rec)
	return b
}

// ctrlMetrics instrument the durability layer: recovery latency. The replay
// and corruption counters are journal.Open's, labelled site=control.
type ctrlMetrics struct {
	recovery *metrics.Histogram
}

func newCtrlMetrics(reg *metrics.Registry) *ctrlMetrics {
	return &ctrlMetrics{recovery: reg.Histogram("control_recovery_seconds", metrics.RecoveryBuckets)}
}

// closedStart is the pre-closed start gate given to replayed broadcasts:
// their OnStart side effects re-fire during Recover, so an end must never
// wait on them.
var closedStart = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// commitLocked is the one way a live mutation reaches service state: it
// applies the record through the function replay uses, then appends it to the
// journal writer. Called with s.mu held — see the comment at the top of this
// file: holding the lock across the append is what makes journal order equal
// mutation order. The writer only frames the record into its pending batch (the
// group commit runs on its own goroutine), so the critical section grows by one
// short copy under the writer's mutex, never an fsync.
func (s *Service) commitLocked(t journal.RecordType, id string, rec ctrlRecord) {
	rec.applyLocked(s, id)
	if s.jw == nil {
		return
	}
	// Append fails only with journal.ErrClosed, once Crash has taken the
	// writer; a mutation racing the crash is then as lost as the crash makes it.
	_ = s.jw.Append(journal.Record{Type: t, BroadcastID: id, Payload: encodeCtrl(rec)})
}

// openJournalLocked replays the configured journal backend into the service
// state and starts its writer (journal.Open). No-op without a backend; an
// unreadable one leaves the service empty and unjournaled. Called with s.mu
// held.
func (s *Service) openJournalLocked() {
	if s.cfg.Journal == nil {
		return
	}
	s.jw = journal.Open(s.cfg.Journal, s.applyRecordLocked, journal.WriterConfig{
		Metrics: s.reg,
		Labels:  []metrics.Label{metrics.L("site", "control")},
	})
}

// seqOf extracts N from a "<prefix>N" ID; apply uses it to restore the
// sequential-ID counters past every journaled broadcast and tenant.
func seqOf(id, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// applyRecordLocked rehydrates one journal record. A CRC-valid record with
// an undecodable payload is a writer bug, not tail damage; it is skipped
// rather than aborting recovery.
func (s *Service) applyRecordLocked(r journal.Record) {
	rec := newCtrlRecord(r.Type)
	if rec == nil {
		// Unknown record types are skipped, not fatal: a journal written by
		// a newer binary must not brick an older one's recovery.
		return
	}
	if err := json.Unmarshal(r.Payload, rec); err != nil {
		return
	}
	rec.applyLocked(s, r.BroadcastID)
}

// Crash kills the control plane in place: the journal writer drains
// (everything acknowledged before the crash is durable) and all volatile
// state is dropped. The Service object itself survives, answering
// ErrUnavailable (503 over HTTP) until Recover. Registered OnStart/OnEnd
// callbacks survive too — they are process wiring, not state.
func (s *Service) Crash() {
	if !s.crashed.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	jw := s.jw
	s.jw = nil
	s.mu.Unlock()
	if jw != nil {
		jw.Close()
	}
	s.mu.Lock()
	s.users = make(map[uint64]User)
	s.broadcasts = make(map[string]*broadcastState)
	s.liveIDs = nil
	s.livePos = make(map[string]int)
	s.nextUser = 0
	s.nextBcast = 0
	// Tenancy state is journaled and wiped like everything else — auth fails
	// closed (ErrUnavailable) until Recover replays tenants and keys. The
	// meters map deliberately survives: the data plane keeps adding to those
	// counters (like the origins' own), and delivery metered during the
	// outage must land in the post-Recover rollups, not vanish.
	s.tenants = make(map[string]*tenantState)
	s.keys = make(map[string]*APIKey)
	s.nextTenant = 0
	s.mu.Unlock()
}

// Down reports whether the control plane is crashed — the signal degraded
// clients and the grant cache consult.
func (s *Service) Down() bool { return s.crashed.Load() }

// Close drains the journal writer on clean shutdown, making everything the
// service acknowledged durable. Unlike Crash, state stays intact and the
// service keeps answering; it just stops journaling. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	jw := s.jw
	s.jw = nil
	s.mu.Unlock()
	if jw != nil {
		jw.Close()
	}
}

// Recover restarts a crashed control plane: journal replay rebuilds users,
// broadcasts (with their unforgeable tokens), joins, and the live list;
// damaged tails are truncated; then the OnStart callbacks re-fire for every
// still-live broadcast so the platform reopens pubsub channels and topology
// assignments (both idempotent). The wall-clock cost lands in the
// control_recovery_seconds histogram. No-op on a healthy service.
func (s *Service) Recover() {
	if !s.crashed.Load() {
		return
	}
	start := s.clock.Now()
	s.mu.Lock()
	s.openJournalLocked()
	type liveRef struct {
		id, origin string
		usage      *metrics.Usage
	}
	var live []liveRef
	for id, st := range s.broadcasts {
		if !st.ended {
			live = append(live, liveRef{id: id, origin: st.originID, usage: s.usageLocked(st.tenantID)})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	callbacks := make([]func(broadcastID, originID string, usage *metrics.Usage), len(s.onStart))
	copy(callbacks, s.onStart)
	s.mu.Unlock()
	s.crashed.Store(false)
	for _, b := range live {
		for _, fn := range callbacks {
			fn(b.id, b.origin, b.usage)
		}
	}
	s.m.recovery.Observe(s.clock.Now().Sub(start))
}
