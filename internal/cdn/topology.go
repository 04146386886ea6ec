package cdn

import (
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/rtmp"
)

// Topology wires origins and edges into the paper's two-tier structure:
// every Wowza origin registers all Fastly edges for invalidation; each edge
// pulls either directly from the origin (when co-located) or through the
// origin's co-located gateway edge (§5.3's relay hypothesis, the source of
// the Figure 15 gap).
type Topology struct {
	Origins []*Origin
	Edges   []*Edge

	mu       sync.Mutex
	assigned map[string]assignment // broadcastID → where it is ingested
	wrapUp   func(hls.Store) hls.Store
	eligible func(role, siteID string) bool
}

// Roles passed to the eligibility predicate installed via SetEligibility.
const (
	RoleEdge   = "edge"
	RoleOrigin = "origin"
)

// TopologyConfig configures Build.
type TopologyConfig struct {
	// OriginSites and EdgeSites define the datacenters; defaults are the
	// paper's catalogs (geo.WowzaSites / geo.FastlySites).
	OriginSites []geo.Datacenter
	EdgeSites   []geo.Datacenter
	// ChunkDuration for HLS assembly at every origin.
	ChunkDuration time.Duration
	// ViewerCap is the per-broadcast RTMP cap at every origin (≈100).
	ViewerCap int
	// Auth validates RTMP handshakes at every origin (control.AuthCache
	// in the assembled platform); nil admits everyone.
	Auth rtmp.Auth
	// OnBroadcastEnd is invoked when any origin's broadcaster session
	// ends (the platform uses it to close the control-plane record).
	OnBroadcastEnd func(broadcastID string)
	// Clock is the time source of every origin (and so of its RTMP server)
	// and every edge; nil means the real clock.
	Clock clock.Clock
	// WrapUpstream, when set, intercepts every upstream store an edge
	// pulls from — the seam the fault-injection harness uses to model
	// origin failures and WAN loss on the origin↔edge hop.
	WrapUpstream func(hls.Store) hls.Store
	// EdgeRetry tunes every edge's upstream pull retries (zero value →
	// edge defaults).
	EdgeRetry resilience.Policy
	// EdgeBreaker tunes every edge's per-broadcast circuit breaker (zero
	// value → resilience defaults).
	EdgeBreaker resilience.BreakerConfig
	// Metrics is the shared registry every origin and edge registers its
	// instruments in (per-site labels keep the series apart); nil gives
	// each component a private registry.
	Metrics *metrics.Registry
	// Journal provides each origin's write-ahead log backend, keyed by
	// site ID — journal.NewMem for tests, journal.OpenFile for a real
	// deployment. Nil (or a nil return for a site) disables journaling
	// for that origin.
	Journal func(siteID string) journal.Backend
}

// Build assembles a Topology.
func Build(cfg TopologyConfig) *Topology {
	if cfg.OriginSites == nil {
		cfg.OriginSites = geo.WowzaSites()
	}
	if cfg.EdgeSites == nil {
		cfg.EdgeSites = geo.FastlySites()
	}
	t := &Topology{
		assigned: make(map[string]assignment),
		wrapUp:   cfg.WrapUpstream,
	}
	for _, site := range cfg.OriginSites {
		var backend journal.Backend
		if cfg.Journal != nil {
			backend = cfg.Journal(site.ID)
		}
		t.Origins = append(t.Origins, NewOrigin(OriginConfig{
			Site:          site,
			ChunkDuration: cfg.ChunkDuration,
			Clock:         cfg.Clock,
			Metrics:       cfg.Metrics,
			Journal:       backend,
			RTMP: rtmp.ServerConfig{
				ViewerCap: cfg.ViewerCap,
				Auth:      cfg.Auth,
				OnEnd:     cfg.OnBroadcastEnd,
				Usage:     t.Usage,
			},
		}))
	}
	for _, site := range cfg.EdgeSites {
		edge := NewEdge(EdgeConfig{
			Site:    site,
			Retry:   cfg.EdgeRetry,
			Breaker: cfg.EdgeBreaker,
			Clock:   cfg.Clock,
			Metrics: cfg.Metrics,
		})
		// Resolve needs the edge itself; it reads the fleet only when called.
		edge.cfg.Resolve = func(broadcastID string) (Upstream, error) {
			return t.resolve(edge, broadcastID)
		}
		// Registrations are wiring, not state: they survive an origin crash.
		for _, o := range t.Origins {
			o.RegisterEdge(edge)
		}
		t.Edges = append(t.Edges, edge)
	}
	return t
}

// assignment is where a broadcast is ingested and whose meter its delivery
// counts into.
type assignment struct {
	origin *Origin
	usage  *metrics.Usage
}

// AssignBroadcast records that a broadcast is ingested at the given origin
// and that its delivery is metered into usage (nil for an untenanted
// broadcast). The control plane calls this when it routes a broadcaster, and
// again when it recovers.
func (t *Topology) AssignBroadcast(broadcastID string, o *Origin, usage *metrics.Usage) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.assigned[broadcastID] = assignment{origin: o, usage: usage}
}

// ReleaseBroadcast forgets an assignment.
func (t *Topology) ReleaseBroadcast(broadcastID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.assigned, broadcastID)
}

// OriginFor returns the ingest origin for a broadcast.
func (t *Topology) OriginFor(broadcastID string) (*Origin, bool) {
	a, ok := t.assignment(broadcastID)
	return a.origin, ok
}

// Usage returns the delivery meter a broadcast's assignment carries: nil for
// an untenanted or unassigned broadcast. Every origin's RTMP server resolves
// a publisher's meter through it.
func (t *Topology) Usage(broadcastID string) *metrics.Usage {
	a, _ := t.assignment(broadcastID)
	return a.usage
}

func (t *Topology) assignment(broadcastID string) (assignment, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.assigned[broadcastID]
	return a, ok
}

// SetEligibility installs the fleet-health predicate consulted by
// NearestOrigin and NearestEdge: nodes it rejects (suspect, down, draining)
// are skipped during assignment. A nil predicate — and the case where it
// rejects the whole fleet — falls back to plain nearest, so a misbehaving
// health feed degrades routing quality but never empties the CDN.
func (t *Topology) SetEligibility(fn func(role, siteID string) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.eligible = fn
}

func (t *Topology) isEligible(role, siteID string) bool {
	t.mu.Lock()
	fn := t.eligible
	t.mu.Unlock()
	return fn == nil || fn(role, siteID)
}

// closer reports whether candidate at distance d beats the incumbent at
// bestD, breaking exact ties by smaller site ID so assignment is
// deterministic regardless of catalog order.
func closer(d, bestD float64, id, bestID string) bool {
	return d < bestD || (d == bestD && id < bestID)
}

// NearestOrigin returns the eligible origin closest to loc — the broadcaster
// assignment policy the paper observed (§5.3), filtered by fleet health.
func (t *Topology) NearestOrigin(loc geo.Location) *Origin {
	return nearestSite(t, RoleOrigin, loc, t.Origins)
}

// NearestEdge returns the eligible edge closest to loc — the IP-anycast
// viewer routing (§5.3). Edges the health feed marks suspect, down, or
// draining are skipped so joins and failover re-resolves land on healthy
// siblings.
func (t *Topology) NearestEdge(loc geo.Location) *Edge {
	return nearestSite(t, RoleEdge, loc, t.Edges)
}

// nearestSite is the one nearest-site search: the node of nodes closest to
// loc among those the eligibility predicate admits for role, ties broken by
// smaller site ID, falling back to the whole fleet when it admits none. The
// zero N (nil) when nodes is empty.
func nearestSite[N interface{ Site() geo.Datacenter }](t *Topology, role string, loc geo.Location, nodes []N) N {
	best, bestD, bestID := -1, 0.0, ""
	for _, onlyEligible := range [2]bool{true, false} {
		for i, n := range nodes {
			site := n.Site()
			if onlyEligible && !t.isEligible(role, site.ID) {
				continue
			}
			d := geo.DistanceKm(loc, site.Location)
			if best < 0 || closer(d, bestD, site.ID, bestID) {
				best, bestD, bestID = i, d, site.ID
			}
		}
		if best >= 0 {
			return nodes[best]
		}
	}
	var none N
	return none
}

// GatewayFor returns the edge co-located with the origin, or nil.
func (t *Topology) GatewayFor(o *Origin) *Edge {
	for _, e := range t.Edges {
		if geo.CoLocated(e.Site(), o.Site()) {
			return e
		}
	}
	return nil
}

// resolve computes the upstream path for edge→broadcast: direct to the
// origin when the edge is co-located (or is itself the gateway), otherwise
// through the origin's gateway edge.
func (t *Topology) resolve(e *Edge, broadcastID string) (Upstream, error) {
	a, ok := t.assignment(broadcastID)
	if !ok {
		return Upstream{}, hls.ErrNotFound
	}
	o := a.origin
	gw := t.GatewayFor(o)
	// A killed or unhealthy gateway would take the whole relay path down
	// with it; fall back to pulling the origin direct instead.
	if gw != nil && gw != e && (gw.Killed() || !t.isEligible(RoleEdge, gw.Site().ID)) {
		gw = nil
	}
	up := Upstream{Store: o, Usage: a.usage}
	if gw != nil && gw != e && !geo.CoLocated(e.Site(), o.Site()) {
		// Relay: this edge pulls from the gateway edge, which in turn
		// pulls from the origin over its own (co-located, near-zero) hop.
		up.Store = gw
	}
	if t.wrapUp != nil {
		up.Store = t.wrapUp(up.Store)
	}
	return up, nil
}
