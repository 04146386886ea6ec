// Package core assembles the complete platform of Figure 8 into a runnable
// system on real sockets: control plane (HTTPS analog), Wowza-like RTMP
// origins, Fastly-like HLS edges, and the PubNub-like message hub. It is the
// thing the paper measured, rebuilt — the crawler, the quickstart example,
// the security demonstration and the Fig. 14 scalability benchmark all run
// against a Platform.
package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cdn"
	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pubsub"
	"repro/internal/resilience"
	"repro/internal/rtmp"
	"repro/internal/security"
)

// PlatformConfig configures a Platform.
type PlatformConfig struct {
	// OriginSites/EdgeSites default to the paper's full catalogs. Tests
	// and small demos can pass reduced sets.
	OriginSites []geo.Datacenter
	EdgeSites   []geo.Datacenter
	// ChunkDuration for HLS (default 3 s).
	ChunkDuration time.Duration
	// RTMPViewerLimit routes joins beyond it to HLS (default 100, §4.1);
	// it is enforced both at the control plane and at the origins.
	RTMPViewerLimit int
	// Retention garbage-collects ended broadcasts (origin chunks, edge
	// caches, message channels) this long after they end; zero keeps
	// everything (small demos, tests).
	Retention time.Duration
	// APIRate, when set, throttles the control API per client host — the
	// limits the paper's crawler ran into (§3.1). Whitelisted hosts are
	// exempt, like the paper's measurement range.
	APIRate *control.RateLimiterConfig
	// UsageFlushInterval is how often the platform rolls the per-tenant
	// delivery meters into journaled daily usage records (and thus how much
	// metered usage a control crash can leave pending — the meters survive
	// and flush after recovery). Zero means 5 s.
	UsageFlushInterval time.Duration
	// WrapUpstream, when set, intercepts every store an edge pulls from.
	// The chaos tests pass a faults.Injector wrapper here to exercise the
	// origin↔edge hop under loss.
	WrapUpstream func(hls.Store) hls.Store
	// EdgeRetry and EdgeBreaker tune the edges' resilience layer; zero
	// values use the edge defaults.
	EdgeRetry   resilience.Policy
	EdgeBreaker resilience.BreakerConfig
	// HeartbeatInterval is the fleet-health beat period every node
	// heartbeats at and the detector counts misses in; zero means 1 s.
	HeartbeatInterval time.Duration
	// Clock is the platform's one time source: the heartbeat, detector,
	// janitor and usage-flush loops wait on it, and every component
	// NewPlatform builds (control plane, auth cache, API rate limiter, hub,
	// health registry, origins with their RTMP servers, edges) reads it.
	// Nil means the real clock.
	Clock clock.Clock
	// Seed drives global-list sampling.
	Seed uint64
	// Metrics is the shared registry every subsystem registers its
	// instruments in; nil means NewPlatform creates one. Start serves it
	// at /metrics (typed snapshot) and /debug/vars (flat expvar-style map).
	Metrics *metrics.Registry
	// Journal provides each origin's write-ahead log backend keyed by site
	// ID (journal.NewMem for tests, journal.OpenFile for deployments). The
	// control plane journals onto Journal("control"). Required for
	// KillOrigin/RestartOrigin and KillControl/RestartControl to recover
	// state; nil disables journaling.
	Journal func(siteID string) journal.Backend
	// Partitions, when set, is the link-cut registry the platform's
	// network boundaries consult (DESIGN.md §6.3's partition matrix):
	// node→control heartbeats stop crossing a cut "<role>:<site>"→
	// "control" or role-level "<role>"→"control" link, and the origin
	// auth path degrades to cached grants behind a cut "origin"→"control"
	// link. Nil disables partition injection.
	Partitions *netsim.Partitions
}

// Platform is the assembled, runnable livestreaming service.
type Platform struct {
	cfg     PlatformConfig
	Topo    *cdn.Topology
	Ctrl    *control.Service
	Hub     *pubsub.Hub
	Health  *health.Registry
	metrics *metrics.Registry

	// AuthCache is the degraded-mode grant cache fronting Ctrl on the
	// origin auth path: publishers and viewers the control plane already
	// admitted keep reconnecting through a control crash or partition.
	AuthCache *control.AuthCache

	mu         sync.Mutex
	rtmpAddrs  map[string]string // origin ID → listen address
	rtmpsAddrs map[string]string // origin ID → TLS listen address
	originByID map[string]*cdn.Origin
	tlsCreds   *security.TLSCredentials
	limiter    *control.RateLimiter
	endedAt    map[string]time.Time // broadcast → end time, for the janitor
	// pendingEnds are broadcasts whose data-plane end raced a control
	// outage: ForceEnd answered ErrUnavailable, so the end is replayed
	// after RestartControl — without this a broadcast whose publisher
	// disconnected mid-outage would stay live at the control plane forever.
	pendingEnds map[string]bool
	httpLn      net.Listener
	httpSrv     *http.Server
	edgeURLs    map[*cdn.Edge]string // each edge's HLS base URL, built at Start
	cancel      context.CancelFunc
	runCtx      context.Context // the Start context; RestartOrigin re-listens under it
	started     bool

	recovery *metrics.Histogram // origin_recovery_seconds
}

// NewPlatform wires the components; call Start to open sockets.
func NewPlatform(cfg PlatformConfig) *Platform {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.UsageFlushInterval <= 0 {
		cfg.UsageFlushInterval = 5 * time.Second
	}
	p := &Platform{
		cfg:        cfg,
		rtmpAddrs:  make(map[string]string),
		rtmpsAddrs: make(map[string]string),
		originByID: make(map[string]*cdn.Origin),
		endedAt:    make(map[string]time.Time),
	}
	if cfg.APIRate != nil {
		rc := *cfg.APIRate
		if rc.Clock == nil {
			rc.Clock = cfg.Clock
		}
		p.limiter = control.NewRateLimiter(rc)
	}
	p.metrics = cfg.Metrics
	if p.metrics == nil {
		p.metrics = metrics.NewRegistry()
	}
	p.Hub = pubsub.NewHub(pubsub.DefaultCommenterCap, p.metrics, cfg.Clock)
	// TLS credentials back the RTMPS (private broadcast) listeners; the
	// CA travels to clients via the authenticated control channel.
	creds, err := security.GenerateTLS()
	if err == nil {
		p.tlsCreds = creds
	}
	routes := control.Routes{
		AssignOrigin: p.assignOrigin,
		AssignEdge:   p.assignEdge,
		// MessageURL is filled in Start once the listener is up;
		// the closure-based routes read live state instead.
	}
	if p.tlsCreds != nil {
		routes.RTMPSAddr = p.rtmpsAddr
		routes.TLSCertPEM = p.tlsCreds.CertPEM
	}
	ctrlCfg := control.Config{
		RTMPViewerLimit: cfg.RTMPViewerLimit,
		Clock:           cfg.Clock,
		Seed:            cfg.Seed,
		Routes:          routes,
		Metrics:         p.metrics,
	}
	if cfg.Journal != nil {
		ctrlCfg.Journal = cfg.Journal("control")
	}
	p.Ctrl = control.NewService(ctrlCfg)
	// Origins authorize against the cache, not the service directly: a
	// control crash or an origin→control partition downgrades auth to
	// cached grants instead of rejecting every reconnect.
	p.AuthCache = control.NewAuthCache(control.AuthCacheConfig{
		Service: p.Ctrl,
		Clock:   cfg.Clock,
		Metrics: p.metrics,
		Gate: func() error {
			return cfg.Partitions.Check(cdn.RoleOrigin, "control")
		},
	})
	p.pendingEnds = make(map[string]bool)
	p.Topo = cdn.Build(cdn.TopologyConfig{
		OriginSites:    cfg.OriginSites,
		EdgeSites:      cfg.EdgeSites,
		ChunkDuration:  cfg.ChunkDuration,
		ViewerCap:      valueOr(cfg.RTMPViewerLimit, control.DefaultRTMPViewerLimit),
		Auth:           p.AuthCache,
		OnBroadcastEnd: p.forceEnd,
		WrapUpstream:   cfg.WrapUpstream,
		EdgeRetry:      cfg.EdgeRetry,
		EdgeBreaker:    cfg.EdgeBreaker,
		Clock:          cfg.Clock,
		Metrics:        p.metrics,
		Journal:        cfg.Journal,
	})
	p.recovery = p.metrics.Histogram("origin_recovery_seconds", metrics.RecoveryBuckets)
	for _, o := range p.Topo.Origins {
		p.originByID[o.Site().ID] = o
	}
	// Fleet health: every node heartbeats into the registry (the loop
	// starts in Start); assignment routing consults node eligibility, so
	// joins and failover re-resolves skip suspect/down/draining nodes.
	p.Health = health.NewRegistry(health.Config{
		HeartbeatInterval: cfg.HeartbeatInterval,
		Clock:             cfg.Clock,
		Metrics:           p.metrics,
	})
	for _, o := range p.Topo.Origins {
		p.Health.Register(healthNodeID(cdn.RoleOrigin, o.Site().ID))
	}
	for _, e := range p.Topo.Edges {
		p.Health.Register(healthNodeID(cdn.RoleEdge, e.Site().ID))
	}
	p.Topo.SetEligibility(func(role, siteID string) bool {
		return p.Health.Eligible(healthNodeID(role, siteID))
	})
	p.Ctrl.OnStart(func(id, originID string, usage *metrics.Usage) {
		if o, ok := p.originByID[originID]; ok {
			p.Topo.AssignBroadcast(id, o, usage)
		}
		p.Hub.Open(id)
	})
	p.Ctrl.OnEnd(func(id string) {
		p.Hub.Close(id)
		if cfg.Retention > 0 {
			p.mu.Lock()
			p.endedAt[id] = cfg.Clock.Now()
			p.mu.Unlock()
		}
	})
	return p
}

// healthNodeID names a node in the registry: "edge:<site>" / "origin:<site>".
func healthNodeID(role, siteID string) string { return role + ":" + siteID }

// forceEnd propagates a data-plane broadcast end (publisher disconnect,
// origin timeout) to the control plane. When control is unavailable the end
// is parked in pendingEnds and replayed by RestartControl — delivery already
// stopped, only the control record lags.
func (p *Platform) forceEnd(id string) {
	err := p.Ctrl.ForceEnd(id)
	if errors.Is(err, control.ErrUnavailable) {
		p.mu.Lock()
		p.pendingEnds[id] = true
		p.mu.Unlock()
	}
}

// KillControl crashes the control plane: the journal writer drains what was
// acknowledged, volatile state is wiped, and every API call answers 503
// until RestartControl. Live delivery continues — origins keep admitting
// cached publishers/viewers through the AuthCache and edges keep serving
// chunks; only new broadcasts and fresh joins need the control plane.
func (p *Platform) KillControl() {
	p.Ctrl.Crash()
}

// RestartControl recovers the control plane from its journal (torn tails
// truncated, recovery latency lands in control_recovery_seconds) and then
// replays the broadcast ends that raced the outage, so nothing stays
// falsely live. Ends are flushed in sorted order for determinism.
func (p *Platform) RestartControl() {
	p.Ctrl.Recover()
	p.mu.Lock()
	ends := make([]string, 0, len(p.pendingEnds))
	for id := range p.pendingEnds {
		ends = append(ends, id)
	}
	p.pendingEnds = make(map[string]bool)
	p.mu.Unlock()
	sort.Strings(ends)
	for _, id := range ends {
		p.forceEnd(id)
	}
}

// every runs fn each interval of the platform clock until ctx is done.
func (p *Platform) every(ctx context.Context, interval time.Duration, fn func()) {
	for p.cfg.Clock.Sleep(ctx, interval) == nil {
		fn()
	}
}

// heartbeat beats every live node into the registry. A killed edge stops
// beating — exactly what a crashed process looks like from the control plane
// — so the miss-count detector degrades it to suspect and then down without
// any special-casing.
func (p *Platform) heartbeat() {
	for _, o := range p.Topo.Origins {
		if o.Killed() || p.partitionedFromControl(cdn.RoleOrigin, o.Site().ID) {
			continue
		}
		p.Health.Heartbeat(healthNodeID(cdn.RoleOrigin, o.Site().ID))
	}
	for _, e := range p.Topo.Edges {
		if e.Killed() || p.partitionedFromControl(cdn.RoleEdge, e.Site().ID) {
			continue
		}
		p.Health.Heartbeat(healthNodeID(cdn.RoleEdge, e.Site().ID))
	}
}

// partitionedFromControl reports whether a node's heartbeat path to the
// control plane is cut — at role granularity ("edge"→"control") or node
// granularity ("edge:sfo"→"control"). A partitioned node keeps serving
// traffic; it only looks dead to the health detector, exactly the
// false-suspicion an asymmetric partition produces in the paper's topology.
func (p *Platform) partitionedFromControl(role, siteID string) bool {
	return p.cfg.Partitions.IsCut(role, "control") ||
		p.cfg.Partitions.IsCut(healthNodeID(role, siteID), "control")
}

// OriginByID returns the origin at the given site, or nil.
func (p *Platform) OriginByID(siteID string) *cdn.Origin {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.originByID[siteID]
}

// KillOrigin crashes an origin process: its RTMP server aborts (publishers
// and viewers see a dead transport, never a clean end), its journal writer
// drains what was already acknowledged, its volatile broadcast state is
// dropped, and it stops heartbeating — so the detector walks it healthy →
// suspect → down and assignment routing skips it. Broadcast records at the
// control plane stay live: the broadcast is interrupted, not ended.
func (p *Platform) KillOrigin(siteID string) error {
	o := p.OriginByID(siteID)
	if o == nil {
		return fmt.Errorf("core: no origin %q", siteID)
	}
	o.Crash()
	return nil
}

// RestartOrigin recovers a crashed origin: journal replay rehydrates every
// live broadcast and sealed chunk (damaged tails are discarded), the fresh
// RTMP server re-listens — on the previous address when the port is still
// free, an ephemeral one otherwise — and heartbeats resume so the health
// detector walks it back to healthy. Its edge registrations survived the
// crash. The cost, timed on the platform clock, lands in the
// origin_recovery_seconds histogram.
func (p *Platform) RestartOrigin(siteID string) error {
	o := p.OriginByID(siteID)
	if o == nil {
		return fmt.Errorf("core: no origin %q", siteID)
	}
	if !o.Killed() {
		return nil
	}
	start := p.cfg.Clock.Now()
	o.Recover()
	p.mu.Lock()
	ctx := p.runCtx
	prevAddr := p.rtmpAddrs[siteID]
	prevTLS := p.rtmpsAddrs[siteID]
	p.mu.Unlock()
	if ctx == nil {
		return fmt.Errorf("core: platform not started")
	}
	srv := o.RTMP()
	ln, err := srv.Listen(ctx, prevAddr)
	if err != nil {
		// The old port may still be in TIME_WAIT or taken; an ephemeral
		// port works because the control plane re-resolves addresses on
		// every assignment.
		if ln, err = srv.Listen(ctx, "127.0.0.1:0"); err != nil {
			return fmt.Errorf("core: origin %s re-listen: %w", siteID, err)
		}
	}
	p.mu.Lock()
	p.rtmpAddrs[siteID] = ln.Addr().String()
	p.mu.Unlock()
	if p.tlsCreds != nil && prevTLS != "" {
		tln, err := srv.ListenTLS(ctx, prevTLS, p.tlsCreds.ServerConfig())
		if err != nil {
			if tln, err = srv.ListenTLS(ctx, "127.0.0.1:0", p.tlsCreds.ServerConfig()); err != nil {
				return fmt.Errorf("core: origin %s rtmps re-listen: %w", siteID, err)
			}
		}
		p.mu.Lock()
		p.rtmpsAddrs[siteID] = tln.Addr().String()
		p.mu.Unlock()
	}
	p.Health.Heartbeat(healthNodeID(cdn.RoleOrigin, siteID))
	p.recovery.Observe(p.cfg.Clock.Now().Sub(start))
	return nil
}

// EdgeByID returns the edge at the given site, or nil.
func (p *Platform) EdgeByID(siteID string) *cdn.Edge {
	for _, e := range p.Topo.Edges {
		if e.Site().ID == siteID {
			return e
		}
	}
	return nil
}

// KillEdge crashes an edge: it refuses all traffic and stops heartbeating,
// so the detector walks it healthy → suspect → down and assignment routing
// skips it. Viewers mid-stream see 5xx and fail over.
func (p *Platform) KillEdge(siteID string) error {
	e := p.EdgeByID(siteID)
	if e == nil {
		return fmt.Errorf("core: no edge %q", siteID)
	}
	e.Kill()
	return nil
}

// DrainEdge gracefully winds an edge down: new assignments stop immediately
// (registry state Draining), inflight requests finish, and every response
// the edge keeps serving carries the drain hint that pushes viewers to
// re-resolve onto a sibling.
func (p *Platform) DrainEdge(siteID string) error {
	e := p.EdgeByID(siteID)
	if e == nil {
		return fmt.Errorf("core: no edge %q", siteID)
	}
	e.Drain()
	p.Health.SetDraining(healthNodeID(cdn.RoleEdge, e.Site().ID), true)
	return nil
}

// SweepEnded removes all state for broadcasts that ended more than the
// retention period before now: the platform's end stamps are the one
// retention clock, and every origin, edge, the hub, the topology and the
// auth cache forget what it names. It returns how many broadcasts were
// collected. Exposed for tests and manual operation.
func (p *Platform) SweepEnded(now time.Time) int {
	if p.cfg.Retention == 0 {
		return 0
	}
	p.mu.Lock()
	var expired []string
	for id, at := range p.endedAt {
		if now.Sub(at) > p.cfg.Retention {
			expired = append(expired, id)
			delete(p.endedAt, id)
		}
	}
	p.mu.Unlock()
	for _, id := range expired {
		for _, o := range p.Topo.Origins {
			o.Remove(id)
		}
		for _, e := range p.Topo.Edges {
			e.Evict(id)
		}
		p.Hub.Remove(id)
		p.Topo.ReleaseBroadcast(id)
	}
	p.AuthCache.Evict(expired)
	if p.limiter != nil {
		p.limiter.Sweep(10 * p.cfg.Retention)
	}
	// Per-tenant join buckets share the sweep cadence with the per-client
	// API buckets.
	p.Ctrl.Sweep(10 * p.cfg.Retention)
	return len(expired)
}

func valueOr(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func (p *Platform) assignOrigin(loc geo.Location) (string, string) {
	o := p.Topo.NearestOrigin(loc)
	p.mu.Lock()
	addr := p.rtmpAddrs[o.Site().ID]
	p.mu.Unlock()
	return o.Site().ID, addr
}

func (p *Platform) assignEdge(broadcastID string, loc geo.Location) string {
	e := p.Topo.NearestEdge(loc)
	return p.EdgeURL(e)
}

func (p *Platform) rtmpsAddr(originID string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rtmpsAddrs[originID]
}

// Start opens one RTMP listener per origin and a single HTTP listener
// multiplexing the control API (/api), the message hub (/channel), and
// every edge (/edge/{id}/hls). All sockets bind loopback ephemeral ports.
func (p *Platform) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return fmt.Errorf("core: platform already started")
	}
	p.started = true
	p.mu.Unlock()

	ctx, cancel := context.WithCancel(ctx)
	p.mu.Lock()
	p.cancel = cancel
	p.runCtx = ctx
	p.mu.Unlock()

	for _, o := range p.Topo.Origins {
		ln, err := o.RTMP().Listen(ctx, "127.0.0.1:0")
		if err != nil {
			cancel()
			return fmt.Errorf("core: origin %s: %w", o.Site().ID, err)
		}
		p.mu.Lock()
		p.rtmpAddrs[o.Site().ID] = ln.Addr().String()
		p.mu.Unlock()
		if p.tlsCreds != nil {
			tln, err := o.RTMP().ListenTLS(ctx, "127.0.0.1:0", p.tlsCreds.ServerConfig())
			if err != nil {
				cancel()
				return fmt.Errorf("core: origin %s rtmps: %w", o.Site().ID, err)
			}
			p.mu.Lock()
			p.rtmpsAddrs[o.Site().ID] = tln.Addr().String()
			p.mu.Unlock()
		}
	}

	mux := &surface{
		api:     control.Handler("/api", p.Ctrl),
		channel: pubsub.Handler("/channel", p.Hub),
		fleet:   health.Handler(p.Health),
		metrics: metrics.Handler(p.metrics),
		vars:    metrics.VarsHandler(p.metrics),
		edges:   make(map[string]http.Handler, len(p.Topo.Edges)),
	}
	if p.limiter != nil {
		mux.api = p.limiter.Wrap(mux.api)
	}
	for _, e := range p.Topo.Edges {
		mux.edges[e.Site().ID] = hls.Handler("/edge/"+e.Site().ID+"/hls", e)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		return fmt.Errorf("core: http listen: %w", err)
	}
	edgeURLs := make(map[*cdn.Edge]string, len(p.Topo.Edges))
	for _, e := range p.Topo.Edges {
		edgeURLs[e] = "http://" + ln.Addr().String() + "/edge/" + e.Site().ID + "/hls"
	}
	p.mu.Lock()
	p.httpLn = ln
	p.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: headerReadTimeout}
	p.edgeURLs = edgeURLs
	p.mu.Unlock()
	p.Ctrl.SetMessageURL("http://" + ln.Addr().String() + "/channel")
	// The janitor garbage-collects ended broadcasts: origin chunk stores
	// (Origin.Remove), edge caches, message channels, topology assignments,
	// and the auth cache's grants and keys.
	if p.cfg.Retention > 0 {
		go p.every(ctx, max(p.cfg.Retention/2, time.Second), func() { p.SweepEnded(p.cfg.Clock.Now()) })
	}
	// The usage flush rolls the per-tenant delivery meters into journaled
	// daily usage records; Stop runs a final one, so a clean shutdown
	// accounts everything delivered.
	go p.every(ctx, p.cfg.UsageFlushInterval, func() { p.Ctrl.FlushUsage() })
	go p.every(ctx, p.Health.Interval(), p.heartbeat)
	go p.Health.Run(ctx)
	go func() {
		p.httpSrv.Serve(ln)
	}()
	go func() {
		<-ctx.Done()
		p.httpSrv.Close()
	}()
	return nil
}

// headerReadTimeout bounds how long the platform's HTTP server waits for a
// request's headers once its first bytes arrive (or, on a new connection,
// from the accept): a client that sends a partial request line and stops is
// cut off instead of keeping its connection forever. There is deliberately no
// write timeout, which would cut the pubsub long polls held for up to 25 s.
const headerReadTimeout = 5 * time.Second

// Stop tears the platform down.
func (p *Platform) Stop() {
	p.mu.Lock()
	cancel := p.cancel
	srv := p.httpSrv
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if srv != nil {
		srv.Close()
	}
	for _, o := range p.Topo.Origins {
		// Close (not RTMP().Close()) also drains the origin's journal
		// writer, so everything acknowledged before shutdown is durable.
		o.Close()
	}
	// Final usage flush before the control journal writer drains, so a clean
	// shutdown accounts every delivered frame and chunk.
	p.Ctrl.FlushUsage()
	p.Ctrl.Close()
}

// BaseURL returns the platform's HTTP root.
func (p *Platform) BaseURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.httpLn == nil {
		return ""
	}
	return "http://" + p.httpLn.Addr().String()
}

// ControlURL returns the control API base (for control.Client).
func (p *Platform) ControlURL() string { return p.BaseURL() + "/api" }

// MessageURL returns the pubsub base (for pubsub.Client).
func (p *Platform) MessageURL() string { return p.BaseURL() + "/channel" }

// EdgeURL returns the HLS base URL of an edge (for hls.Client), or "" before
// Start. Every join and edge re-resolve asks, so the URLs are built once.
func (p *Platform) EdgeURL(e *cdn.Edge) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.edgeURLs[e]
}

// RTMPAddr returns an origin's listener address.
func (p *Platform) RTMPAddr(originID string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rtmpAddrs[originID]
}

// Stats aggregates origin RTMP counters across the platform.
func (p *Platform) Stats() (framesIn, framesOut int64) {
	for _, o := range p.Topo.Origins {
		framesIn += o.RTMP().Stats().FramesIn
		framesOut += o.RTMP().Stats().FramesOut
	}
	return framesIn, framesOut
}

// Metrics returns the platform's shared instrument registry — the one
// every origin, edge, hub, and health gauge registers in, served at
// /metrics once the platform starts.
func (p *Platform) Metrics() *metrics.Registry { return p.metrics }

var _ rtmp.Auth = (*control.AuthCache)(nil) // origins authorize through the control plane's grant cache
