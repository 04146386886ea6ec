// Package control implements the Periscope-server analog of Figure 8(a): the
// control plane users talk to over a secure channel. It registers users with
// sequential IDs (the property the paper used to count registrations, §3.1),
// issues broadcast tokens, routes broadcasters to their nearest origin and
// viewers to RTMP or HLS (first ~100 viewers get the low-latency RTMP path,
// §4.1), serves the 50-random global broadcast list the crawler samples, and
// holds the broadcaster public keys of the §7.2 signature defense — the one
// exchange that happens over the authenticated channel.
package control

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/wire"
)

// Errors returned by the service.
var (
	ErrNoBroadcast = errors.New("control: no such broadcast")
	ErrBadToken    = errors.New("control: bad token")
	ErrEnded       = errors.New("control: broadcast ended")
	ErrNotInvited  = errors.New("control: user not invited to private broadcast")
	// ErrUnavailable reports a crashed (or partitioned-away) control plane.
	// It is transient: clients hold cached grants, keep streaming, and
	// retry — DESIGN.md §6.3's degraded mode.
	ErrUnavailable = errors.New("control: control plane unavailable")
)

// GlobalListSize is how many random broadcasts one global-list query
// returns (§3.1).
const GlobalListSize = 50

// DefaultRTMPViewerLimit is the viewer count beyond which joins are routed
// to HLS (§4.1: "around 100").
const DefaultRTMPViewerLimit = 100

// User is a registered account. IDs are sequential, mirroring the Periscope
// property the paper exploited to count registrations.
type User struct {
	ID   uint64
	Name string
}

// Routes tells the service where the data plane lives. The platform wires
// these to real listener addresses; simulations use symbolic names.
type Routes struct {
	// AssignOrigin picks the ingest origin for a broadcaster location,
	// returning its ID and RTMP address.
	AssignOrigin func(loc geo.Location) (originID, rtmpAddr string)
	// RTMPSAddr returns an origin's TLS listener address for private
	// broadcasts (§7.2); nil disables private broadcasts.
	RTMPSAddr func(originID string) string
	// AssignEdge picks the HLS edge base URL for a viewer location.
	AssignEdge func(broadcastID string, loc geo.Location) (hlsBaseURL string)
	// MessageURL is the pubsub channel base URL handed to every client.
	MessageURL string
	// TLSCertPEM is the platform CA handed to private-broadcast clients
	// over this (authenticated) channel, so the data-path attacker can
	// never substitute a certificate.
	TLSCertPEM []byte
}

// Config configures a Service.
type Config struct {
	Routes Routes
	// RTMPViewerLimit is the RTMP→HLS cutoff; zero means the default 100.
	RTMPViewerLimit int
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Seed drives global-list sampling.
	Seed uint64
	// Journal, when set, is the write-ahead log backing control-plane
	// crash recovery (DESIGN.md §6.3): registrations, broadcast
	// start/end, key registrations, and joins are appended through a
	// group-commit writer, and NewService replays whatever the backend
	// already holds — so constructing a Service over a non-empty journal
	// is the restart path. Nil disables journaling (no recovery).
	Journal journal.Backend
	// Metrics is the registry the control plane's recovery histogram and
	// journal counters register in; nil means a private registry.
	Metrics *metrics.Registry
}

// BroadcastGrant is what a broadcaster gets back from StartBroadcast; the
// struct is also the HTTP response body.
type BroadcastGrant struct {
	BroadcastID string `json:"broadcast_id"`
	Token       string `json:"token"`
	OriginID    string `json:"origin_id"`
	RTMPAddr    string `json:"rtmp_addr,omitempty"`
	MessageURL  string `json:"message_url"`
	// Private broadcasts upload over RTMPS instead (§7.2); RTMPSAddr and
	// CAPEM are only set for them.
	Private   bool   `json:"private,omitempty"`
	RTMPSAddr string `json:"rtmps_addr,omitempty"`
	CAPEM     []byte `json:"ca_pem,omitempty"`
}

// Protocol selects a viewer's delivery path.
type Protocol string

// Viewer delivery protocols.
const (
	ProtoRTMP Protocol = "rtmp"
	ProtoHLS  Protocol = "hls"
)

// ViewerGrant is what a viewer gets back from Join. Mirroring Periscope,
// RTMP joins also receive the HLS URL (the paper's crawler exploited this to
// obtain both, §4.3). Private-broadcast grants instead carry an RTMPS
// address, a per-viewer token, and the platform CA. The struct is also the
// HTTP response body.
type ViewerGrant struct {
	Protocol    Protocol `json:"protocol"`
	RTMPAddr    string   `json:"rtmp_addr,omitempty"`
	HLSBaseURL  string   `json:"hls_base_url,omitempty"`
	MessageURL  string   `json:"message_url"`
	Private     bool     `json:"private,omitempty"`
	RTMPSAddr   string   `json:"rtmps_addr,omitempty"`
	ViewerToken string   `json:"viewer_token,omitempty"`
	CAPEM       []byte   `json:"ca_pem,omitempty"`
}

// ProtoRTMPS is the private-broadcast delivery path.
const ProtoRTMPS Protocol = "rtmps"

// UnmarshalText decodes a known protocol to its constant, so it keeps
// nothing of the body it came from; any other protocol decodes as its text.
func (p *Protocol) UnmarshalText(text []byte) error {
	switch string(text) {
	case string(ProtoRTMP):
		*p = ProtoRTMP
	case string(ProtoHLS):
		*p = ProtoHLS
	case string(ProtoRTMPS):
		*p = ProtoRTMPS
	default:
		*p = Protocol(text)
	}
	return nil
}

// ViewerJoin is one recorded join.
type ViewerJoin struct {
	UserID uint64
	At     time.Time
}

// Summary is the public view of a broadcast.
type Summary struct {
	BroadcastID string
	Broadcaster uint64
	StartedAt   time.Time
	EndedAt     time.Time
	Live        bool
	Viewers     int
	Location    geo.Location
}

type broadcastState struct {
	id          string
	token       string
	broadcaster uint64
	originID    string
	rtmpAddr    string
	rtmpsAddr   string
	startedAt   time.Time
	endedAt     time.Time
	ended       bool
	loc         geo.Location
	// tenantID is the owning tenant for key-authenticated broadcasts;
	// empty for the legacy anonymous surface.
	tenantID string
	joins    []ViewerJoin
	pubKey   ed25519.PublicKey
	// started closes once the start-side effects (OnStart callbacks: pubsub
	// channel open, topology assignment) have finished. End paths wait on it
	// before firing OnEnd, so a data-plane end racing the start can never
	// close the hub channel before it was opened — which would leak it open
	// forever. Replayed broadcasts get a pre-closed channel.
	started chan struct{}
	// Private broadcasts admit only the allowed set, each with a minted
	// per-viewer token the origin validates.
	private      bool
	allowed      map[uint64]bool
	viewerTokens map[string]bool
}

// Service is the control plane.
type Service struct {
	cfg   Config
	clock clock.Clock
	reg   *metrics.Registry
	m     *ctrlMetrics

	// crashed marks a killed control plane: every public method answers
	// ErrUnavailable (503 over HTTP) until Recover replays the journal.
	crashed atomic.Bool

	// joins is the per-tenant join limiter: one keyed bucket map, rates
	// derived from each tenant's plan at the Allow call (DESIGN.md §11).
	// It sits outside s.mu (it has its own lock) and outside the journaled
	// state — throttle buckets are volatile by design.
	joins *KeyedLimiter

	mu         sync.Mutex
	src        *rng.Source
	jw         *journal.Writer
	nextUser   uint64
	users      map[uint64]User
	broadcasts map[string]*broadcastState
	liveIDs    []string // maintained for O(1) random sampling
	livePos    map[string]int
	nextBcast  uint64
	// Tenancy state (journaled, wiped by Crash like everything above).
	nextTenant uint64
	tenants    map[string]*tenantState
	keys       map[string]*APIKey
	// meters are the tenants' delivery meters with their flushed offsets.
	// They deliberately survive Crash — see tenantMeter.
	meters map[string]*tenantMeter

	// listeners are notified on start/end, used by the platform to open
	// and close pubsub channels and topology assignments.
	onStart []func(id, origin string, usage *metrics.Usage)
	onEnd   []func(id string)
}

// NewService builds a Service. When the config carries a journal backend,
// whatever it already holds is replayed first — so pointing a fresh Service
// at a crashed one's journal is the restart path.
func NewService(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.RTMPViewerLimit == 0 {
		cfg.RTMPViewerLimit = DefaultRTMPViewerLimit
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Service{
		cfg:        cfg,
		clock:      cfg.Clock,
		reg:        reg,
		m:          newCtrlMetrics(reg),
		src:        rng.New(cfg.Seed),
		users:      make(map[uint64]User),
		broadcasts: make(map[string]*broadcastState),
		livePos:    make(map[string]int),
		tenants:    make(map[string]*tenantState),
		keys:       make(map[string]*APIKey),
		meters:     make(map[string]*tenantMeter),
	}
	s.joins = NewKeyedLimiter(s.clock)
	s.mu.Lock()
	s.openJournalLocked()
	s.mu.Unlock()
	return s
}

// OnStart registers a callback fired when a broadcast starts, and again for
// each live broadcast when Recover brings the control plane back. usage is
// the owning tenant's delivery meter, nil for an untenanted broadcast: the
// data plane meters what it delivers into it and never asks the control
// plane who owns a broadcast.
func (s *Service) OnStart(fn func(broadcastID, originID string, usage *metrics.Usage)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onStart = append(s.onStart, fn)
}

// OnEnd registers a callback fired when a broadcast ends.
func (s *Service) OnEnd(fn func(broadcastID string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEnd = append(s.onEnd, fn)
}

// SetMessageURL updates the pubsub base URL handed out in grants. The
// platform calls this once its HTTP listener is bound.
func (s *Service) SetMessageURL(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Routes.MessageURL = url
}

func (s *Service) messageURL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Routes.MessageURL
}

// lockLive takes s.mu for a call that must not run against a crashed control
// plane; on ErrUnavailable the lock is not held. The flag is read under the
// lock because Crash raises it before taking the lock to detach the journal
// writer: a caller that holds the lock and sees the flag down commits to a
// writer Crash has yet to drain, so what it acknowledges is journaled, and a
// caller that comes later never reads the wiped maps as "no such broadcast".
func (s *Service) lockLive() error {
	s.mu.Lock()
	if s.crashed.Load() {
		s.mu.Unlock()
		return ErrUnavailable
	}
	return nil
}

// Register creates a user with the next sequential ID. It is the legacy
// always-succeeds surface; callers that must observe a control outage use
// RegisterUser.
func (s *Service) Register(name string) User {
	u, _ := s.RegisterUser(name)
	return u
}

// RegisterUser creates a user with the next sequential ID, failing with
// ErrUnavailable while the control plane is down.
func (s *Service) RegisterUser(name string) (User, error) {
	if err := s.lockLive(); err != nil {
		return User{}, err
	}
	defer s.mu.Unlock()
	id := s.nextUser + 1
	s.commitLocked(journal.RecordCtrlRegister, "", &ctrlRegisterRec{ID: id, Name: name})
	return s.users[id], nil
}

// UserCount returns the total registered users (the paper's §3.1 estimate
// read this off the latest sequential ID).
func (s *Service) UserCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextUser
}

// newToken mints an unguessable broadcast token over the secure channel.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("control: token entropy: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// StartBroadcast creates a live public broadcast for userID at loc.
func (s *Service) StartBroadcast(userID uint64, loc geo.Location) (BroadcastGrant, error) {
	return s.startBroadcast(userID, loc, false, nil, "")
}

// StartPrivateBroadcast creates a broadcast only the allowed users may
// join, delivered over RTMPS (§2.1's private broadcasts, §7.2's transport).
// It fails when the platform has no TLS listeners configured.
func (s *Service) StartPrivateBroadcast(userID uint64, loc geo.Location, allowed []uint64) (BroadcastGrant, error) {
	if s.cfg.Routes.RTMPSAddr == nil {
		return BroadcastGrant{}, errors.New("control: private broadcasts not enabled")
	}
	return s.startBroadcast(userID, loc, true, allowed, "")
}

// startBroadcast is the shared start path; tenantID is empty for the legacy
// anonymous surface and set for key-authenticated starts, in which case plan
// admission (max concurrent broadcasts) runs inside the same critical section
// that creates the broadcast. The caller's allowed slice goes into the record
// as given, so equal inputs journal equal bytes.
func (s *Service) startBroadcast(userID uint64, loc geo.Location, private bool, allowed []uint64, tenantID string) (BroadcastGrant, error) {
	token, err := newToken()
	if err != nil {
		return BroadcastGrant{}, err
	}
	rec := ctrlStartRec{
		Token:       token,
		Broadcaster: userID,
		City:        loc.City,
		Lat:         loc.Lat,
		Lon:         loc.Lon,
		Private:     private,
		Allowed:     allowed,
		TenantID:    tenantID,
	}
	if s.cfg.Routes.AssignOrigin != nil {
		rec.OriginID, rec.RTMPAddr = s.cfg.Routes.AssignOrigin(loc)
	}
	if private {
		rec.RTMPSAddr = s.cfg.Routes.RTMPSAddr(rec.OriginID)
	}
	if err := s.lockLive(); err != nil {
		return BroadcastGrant{}, err
	}
	if tenantID != "" {
		if err := s.admitStartLocked(tenantID); err != nil {
			s.mu.Unlock()
			return BroadcastGrant{}, err
		}
	}
	rec.StartedAt = s.clock.Now().UnixNano()
	id := "bcast-" + strconv.FormatUint(s.nextBcast+1, 10)
	s.commitLocked(journal.RecordCtrlStart, id, &rec)
	// Apply installs replay's pre-closed gate; a live start holds it open
	// until its OnStart callbacks have run.
	started := make(chan struct{})
	s.broadcasts[id].started = started
	usage := s.usageLocked(tenantID)
	callbacks := make([]func(broadcastID, originID string, usage *metrics.Usage), len(s.onStart))
	copy(callbacks, s.onStart)
	s.mu.Unlock()
	for _, fn := range callbacks {
		fn(id, rec.OriginID, usage)
	}
	// End paths block on this: OnEnd never runs before OnStart finished.
	close(started)
	g := BroadcastGrant{
		BroadcastID: id,
		Token:       token,
		OriginID:    rec.OriginID,
		RTMPAddr:    rec.RTMPAddr,
		MessageURL:  s.messageURL(),
		Private:     private,
	}
	if private {
		g.RTMPSAddr = rec.RTMPSAddr
		g.CAPEM = s.cfg.Routes.TLSCertPEM
		g.RTMPAddr = "" // private uploads must not use plaintext RTMP
	}
	return g, nil
}

// admitStartLocked is plan admission for a key-authenticated start. The key
// resolution ran outside the lock, so suspension is re-checked here.
func (s *Service) admitStartLocked(tenantID string) error {
	ts, ok := s.tenants[tenantID]
	if !ok {
		return ErrNoTenant
	}
	if ts.t.Suspended {
		return ErrTenantSuspended
	}
	if max := ts.t.Plan.MaxConcurrentBroadcasts; max > 0 && ts.live >= max {
		return &QuotaError{Reason: "concurrent broadcasts at plan limit", RetryAfter: time.Second}
	}
	return nil
}

// RegisterPublicKey stores a broadcaster's signing key, authenticated by the
// broadcast token. This is the §7.2 key exchange over the secure channel.
func (s *Service) RegisterPublicKey(broadcastID, token string, pub ed25519.PublicKey) error {
	if err := s.lockLive(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	st, ok := s.broadcasts[broadcastID]
	if !ok {
		return ErrNoBroadcast
	}
	if st.token != token {
		return ErrBadToken
	}
	s.commitLocked(journal.RecordCtrlKey, broadcastID, &ctrlKeyRec{PubKey: pub})
	return nil
}

// PublicKey returns the registered key for a broadcast, nil for an unsigned
// or unknown one. Viewers use this (over the secure channel) to verify signed
// streams. A crashed control plane answers ErrUnavailable, never nil: an
// empty key would read as "unsigned".
func (s *Service) PublicKey(broadcastID string) (ed25519.PublicKey, error) {
	if err := s.lockLive(); err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	if st, ok := s.broadcasts[broadcastID]; ok {
		return st.pubKey, nil
	}
	return nil, nil
}

// Authorize checks an RTMP handshake: a broadcaster must present the exact
// broadcast token; a viewer is admitted to any live public broadcast (the
// Periscope default) and to a private one with the per-user token minted at
// Join. A refusal is ErrNoBroadcast, ErrEnded or ErrBadToken. ErrUnavailable
// is an outage, not a refusal: AuthCache answers it from cached grants.
func (s *Service) Authorize(broadcastID, token, role string) error {
	if err := s.lockLive(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	st, ok := s.broadcasts[broadcastID]
	switch {
	case !ok:
		return ErrNoBroadcast
	case st.ended:
		return ErrEnded
	case role == wire.RoleBroadcaster:
		if st.token != token {
			return ErrBadToken
		}
	case st.private && !st.viewerTokens[token]:
		return ErrBadToken
	}
	return nil
}

// EndBroadcast finishes a broadcast; requires the broadcast token.
func (s *Service) EndBroadcast(broadcastID, token string) error {
	if err := s.lockLive(); err != nil {
		return err
	}
	st, ok := s.broadcasts[broadcastID]
	if !ok {
		s.mu.Unlock()
		return ErrNoBroadcast
	}
	if st.token != token {
		s.mu.Unlock()
		return ErrBadToken
	}
	s.endLocked(st)
	return nil
}

// ForceEnd finishes a broadcast without a token. It is for server-internal
// use: the data plane reports that the broadcaster's RTMP session closed.
// ErrUnavailable means the control plane is down and the end was NOT
// recorded — the caller must retry after recovery or the broadcast would
// replay as falsely live.
func (s *Service) ForceEnd(broadcastID string) error {
	if err := s.lockLive(); err != nil {
		return err
	}
	st, ok := s.broadcasts[broadcastID]
	if !ok {
		s.mu.Unlock()
		return ErrNoBroadcast
	}
	s.endLocked(st)
	return nil
}

// endLocked commits st's end and fires the OnEnd callbacks. Called with
// s.mu held; returns with it released. A no-op (beyond the unlock) when the
// broadcast already ended. It waits for the start side effects to finish
// before firing OnEnd — see broadcastState.started — so a data-plane end
// racing StartBroadcast cannot close the pubsub channel before it opened.
func (s *Service) endLocked(st *broadcastState) {
	if st.ended {
		s.mu.Unlock()
		return
	}
	s.commitLocked(journal.RecordCtrlEnd, st.id, &ctrlEndRec{EndedAt: s.clock.Now().UnixNano()})
	callbacks := make([]func(broadcastID string), len(s.onEnd))
	copy(callbacks, s.onEnd)
	s.mu.Unlock()
	<-st.started
	for _, fn := range callbacks {
		fn(st.id)
	}
}

// Join records a viewer joining and routes them: joins below the RTMP limit
// get the RTMP path, later ones HLS (§4.1).
func (s *Service) Join(userID uint64, broadcastID string, loc geo.Location) (ViewerGrant, error) {
	if err := s.lockLive(); err != nil {
		return ViewerGrant{}, err
	}
	st, ok := s.broadcasts[broadcastID]
	if !ok {
		s.mu.Unlock()
		return ViewerGrant{}, ErrNoBroadcast
	}
	if st.ended {
		s.mu.Unlock()
		return ViewerGrant{}, ErrEnded
	}
	rec := ctrlJoinRec{UserID: userID}
	if st.private {
		if !st.allowed[userID] && st.broadcaster != userID {
			s.mu.Unlock()
			return ViewerGrant{}, ErrNotInvited
		}
		// The per-viewer token the origin validates at RTMPS handshake.
		vt, err := newToken()
		if err != nil {
			s.mu.Unlock()
			return ViewerGrant{}, err
		}
		rec.ViewerToken = vt
	}
	rec.At = s.clock.Now().UnixNano()
	s.commitLocked(journal.RecordCtrlJoin, broadcastID, &rec)
	idx := len(st.joins)
	s.mu.Unlock()

	// id, private and the addresses never change after the start.
	grant := ViewerGrant{MessageURL: s.messageURL()}
	if st.private {
		grant.Protocol = ProtoRTMPS
		grant.Private = true
		grant.RTMPSAddr = st.rtmpsAddr
		grant.ViewerToken = rec.ViewerToken
		grant.CAPEM = s.cfg.Routes.TLSCertPEM
		return grant, nil
	}
	if s.cfg.Routes.AssignEdge != nil {
		grant.HLSBaseURL = s.cfg.Routes.AssignEdge(broadcastID, loc)
	}
	if idx <= s.cfg.RTMPViewerLimit {
		grant.Protocol = ProtoRTMP
		grant.RTMPAddr = st.rtmpAddr
	} else {
		grant.Protocol = ProtoHLS
	}
	return grant, nil
}

// ResolveEdge re-resolves the HLS edge for an existing viewer session
// without recording a join. Failover pollers call it when their assigned
// edge dies, sheds, or drains mid-stream; because the route consults the
// fleet-health eligibility filter, the answer is whatever sibling edge is
// currently healthy and nearest. It works for ended-but-retained broadcasts
// too — a viewer mid-replay must still be able to migrate.
func (s *Service) ResolveEdge(broadcastID string, loc geo.Location) (string, error) {
	if err := s.lockLive(); err != nil {
		return "", err
	}
	st, ok := s.broadcasts[broadcastID]
	var quotaErr *QuotaError
	if ok && st.tenantID != "" {
		// Quota-exceeded admission extends to failover re-resolves: an
		// over-quota tenant's viewers get 429 + Retry-After here, which
		// rides the FailoverPoller's resolve backoff (it honors the hint
		// and degrades to its cached edge when it has one).
		if ts, tok := s.tenants[st.tenantID]; tok {
			quotaErr = s.quotaCheckLocked(ts)
		}
	}
	s.mu.Unlock()
	if !ok {
		return "", ErrNoBroadcast
	}
	if quotaErr != nil {
		return "", quotaErr
	}
	if s.cfg.Routes.AssignEdge == nil {
		return "", errors.New("control: no edge route configured")
	}
	return s.cfg.Routes.AssignEdge(broadcastID, loc), nil
}

// GlobalList returns up to GlobalListSize randomly selected live broadcasts,
// the API surface the paper's crawler polled every 250 ms (§3.1).
func (s *Service) GlobalList() []Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.liveIDs)
	k := GlobalListSize
	if n <= k {
		out := make([]Summary, 0, n)
		for _, id := range s.liveIDs {
			out = append(out, s.summaryLocked(s.broadcasts[id]))
		}
		return out
	}
	// Partial Fisher–Yates over a copy for an unbiased k-sample.
	ids := append([]string(nil), s.liveIDs...)
	out := make([]Summary, 0, k)
	for i := 0; i < k; i++ {
		j := i + s.src.Intn(n-i)
		ids[i], ids[j] = ids[j], ids[i]
		out = append(out, s.summaryLocked(s.broadcasts[ids[i]]))
	}
	return out
}

// Info returns the summary of one broadcast.
func (s *Service) Info(broadcastID string) (Summary, error) {
	if err := s.lockLive(); err != nil {
		return Summary{}, err
	}
	defer s.mu.Unlock()
	st, ok := s.broadcasts[broadcastID]
	if !ok {
		return Summary{}, ErrNoBroadcast
	}
	return s.summaryLocked(st), nil
}

// Joins returns the recorded viewer joins for a broadcast.
func (s *Service) Joins(broadcastID string) ([]ViewerJoin, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.broadcasts[broadcastID]
	if !ok {
		return nil, ErrNoBroadcast
	}
	return append([]ViewerJoin(nil), st.joins...), nil
}

// LiveCount returns the number of live broadcasts.
func (s *Service) LiveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.liveIDs)
}

func (s *Service) summaryLocked(st *broadcastState) Summary {
	return Summary{
		BroadcastID: st.id,
		Broadcaster: st.broadcaster,
		StartedAt:   st.startedAt,
		EndedAt:     st.endedAt,
		Live:        !st.ended,
		Viewers:     len(st.joins),
		Location:    st.loc,
	}
}
