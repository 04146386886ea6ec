// Package health is the fleet-health subsystem of the delivery path: a
// control-plane registry that edges and origins heartbeat into, a miss-count
// failure detector that publishes per-node state, and the drain lifecycle
// operators use to take a node out of rotation without stranding viewers.
// The paper's system survives because Fastly is a *fleet* — viewers are
// mapped to the nearest healthy datacenter and silently remapped when one
// degrades (§4.1). Twitch-scale measurement work (Zhang & Liu) and the
// low-latency survey (Bentaleb et al.) both identify exactly this server-side
// failover as the dominant availability lever in live delivery.
package health

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// State is a node's position in the fleet-health lifecycle.
type State int32

// The four node states. Healthy nodes take new assignments; a Suspect node
// (missed a beat or two) keeps its current viewers but gets no new ones;
// Down nodes are failed over away from; Draining nodes are deliberately
// winding down — they serve inflight work and hint viewers to migrate.
const (
	StateHealthy State = iota
	StateSuspect
	StateDown
	StateDraining
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDown:
		return "down"
	case StateDraining:
		return "draining"
	}
	return "unknown"
}

// The detector's miss thresholds: a node silent for SuspectMisses whole
// heartbeat intervals degrades from Healthy to Suspect, and one silent for
// DownMisses intervals is declared Down.
const (
	SuspectMisses = 2
	DownMisses    = 4
)

// Config tunes the Registry's failure detector.
type Config struct {
	// HeartbeatInterval is the expected beat period. Zero means 1 s.
	HeartbeatInterval time.Duration
	// Clock defaults to the real clock; tests drive a virtual one.
	Clock clock.Clock
	// OnStateChange, when set, is invoked (outside the registry lock) for
	// every transition, with the node's previous and new state.
	OnStateChange func(nodeID string, from, to State)
	// Metrics is the registry the fleet-state gauges register in; nil means
	// a private registry. One "fleet_nodes" gauge per lifecycle state,
	// labelled state=healthy|suspect|down|draining, evaluated at snapshot
	// time from the node table.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// Stats count detector activity.
type Stats struct {
	// Heartbeats is the total beats received.
	Heartbeats atomic.Int64
	// HeartbeatMisses counts missed heartbeat intervals as the detector
	// observes them (each silent interval counts once).
	HeartbeatMisses atomic.Int64
	// Transitions counts every state change, including recoveries.
	Transitions atomic.Int64
	// Recoveries counts Suspect/Down → Healthy transitions.
	Recoveries atomic.Int64
}

// Node is a point-in-time public view of one registered node.
type Node struct {
	ID       string
	State    State
	LastBeat time.Time
	// Misses is the consecutive missed intervals the detector has counted
	// since the last beat.
	Misses int
}

type node struct {
	id            string
	state         State
	lastBeat      time.Time
	countedMisses int
}

// Registry tracks the fleet. One Registry serves both tiers; node IDs are
// caller-chosen (the platform uses "edge:<site>" / "origin:<site>").
type Registry struct {
	cfg   Config
	clock clock.Clock
	stats Stats

	mu    sync.Mutex
	nodes map[string]*node
}

// NewRegistry builds a Registry.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{
		cfg:   cfg,
		clock: cfg.Clock,
		nodes: make(map[string]*node),
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	for _, st := range []State{StateHealthy, StateSuspect, StateDown, StateDraining} {
		st := st
		reg.GaugeFunc("fleet_nodes", func() int64 { return r.countState(st) },
			metrics.L("state", st.String()))
	}
	return r
}

// countState counts nodes currently in state s. It reads the raw node table
// (no detector sweep): the Run loop already sweeps every half interval, and
// a metrics scrape must not fire OnStateChange callbacks as a side effect.
func (r *Registry) countState(s State) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, nd := range r.nodes {
		if nd.state == s {
			n++
		}
	}
	return n
}

// Stats exposes the detector counters.
func (r *Registry) Stats() *Stats { return &r.stats }

// Interval returns the configured heartbeat period.
func (r *Registry) Interval() time.Duration { return r.cfg.HeartbeatInterval }

// Register adds a node in the Healthy state with an implicit first beat.
// Registering an existing node is a no-op.
func (r *Registry) Register(nodeID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[nodeID]; ok {
		return
	}
	r.nodes[nodeID] = &node{id: nodeID, state: StateHealthy, lastBeat: r.clock.Now()}
}

// Heartbeat records a beat. A Suspect or Down node that beats again recovers
// to Healthy; Draining is sticky — a deliberate drain is not undone by the
// node still being alive (that is the point of a graceful drain).
func (r *Registry) Heartbeat(nodeID string) {
	r.stats.Heartbeats.Add(1)
	r.mu.Lock()
	n, ok := r.nodes[nodeID]
	if !ok {
		n = &node{id: nodeID, state: StateHealthy}
		r.nodes[nodeID] = n
	}
	n.lastBeat = r.clock.Now()
	n.countedMisses = 0
	var change func()
	if n.state == StateSuspect || n.state == StateDown {
		from := n.state
		n.state = StateHealthy
		r.stats.Transitions.Add(1)
		r.stats.Recoveries.Add(1)
		if cb := r.cfg.OnStateChange; cb != nil {
			change = func() { cb(nodeID, from, StateHealthy) }
		}
	}
	r.mu.Unlock()
	if change != nil {
		change()
	}
}

// SetDraining marks a node Draining (true) or returns it to Healthy (false).
// Draining overrides the detector: the node is deliberately out of rotation.
func (r *Registry) SetDraining(nodeID string, draining bool) {
	r.mu.Lock()
	n, ok := r.nodes[nodeID]
	if !ok {
		n = &node{id: nodeID, lastBeat: r.clock.Now()}
		r.nodes[nodeID] = n
	}
	target := StateDraining
	if !draining {
		target = StateHealthy
		n.lastBeat = r.clock.Now()
		n.countedMisses = 0
	}
	var change func()
	if n.state != target {
		from := n.state
		n.state = target
		r.stats.Transitions.Add(1)
		if cb := r.cfg.OnStateChange; cb != nil {
			change = func() { cb(nodeID, from, target) }
		}
	}
	r.mu.Unlock()
	if change != nil {
		change()
	}
}

// State returns a node's current state, running the detector against the
// clock so a silent node reads Suspect/Down even between Check sweeps.
func (r *Registry) State(nodeID string) (State, bool) {
	r.Check()
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[nodeID]
	if !ok {
		return StateHealthy, false
	}
	return n.state, true
}

// Eligible reports whether a node may take new assignments: it must be known
// and Healthy. Unknown nodes are eligible — a registry that was never wired
// must not take the whole fleet out of rotation.
func (r *Registry) Eligible(nodeID string) bool {
	st, ok := r.State(nodeID)
	return !ok || st == StateHealthy
}

// Check runs one detector sweep: every non-draining node that has been
// silent for whole heartbeat intervals accrues misses and degrades to
// Suspect and then Down at SuspectMisses and DownMisses. It returns the number
// of state transitions applied.
func (r *Registry) Check() int {
	now := r.clock.Now()
	var changes []func()
	transitions := 0
	r.mu.Lock()
	for _, n := range r.nodes {
		if n.state == StateDraining {
			continue
		}
		misses := int(now.Sub(n.lastBeat) / r.cfg.HeartbeatInterval)
		if misses > n.countedMisses {
			r.stats.HeartbeatMisses.Add(int64(misses - n.countedMisses))
			n.countedMisses = misses
		}
		target := n.state
		switch {
		case misses >= DownMisses:
			target = StateDown
		case misses >= SuspectMisses:
			target = StateSuspect
		}
		// The detector only degrades; recovery happens on Heartbeat.
		if target != n.state && target > n.state && target != StateDraining {
			from := n.state
			n.state = target
			transitions++
			r.stats.Transitions.Add(1)
			if cb := r.cfg.OnStateChange; cb != nil {
				id, to := n.id, target
				changes = append(changes, func() { cb(id, from, to) })
			}
		}
	}
	r.mu.Unlock()
	for _, fn := range changes {
		fn()
	}
	return transitions
}

// Snapshot returns every node's view, sorted by ID, after a detector sweep.
func (r *Registry) Snapshot() []Node {
	r.Check()
	r.mu.Lock()
	out := make([]Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, Node{ID: n.id, State: n.state, LastBeat: n.lastBeat, Misses: n.countedMisses})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Run sweeps the detector every half heartbeat interval until ctx is done —
// the monitor loop the platform starts alongside its heartbeaters.
func (r *Registry) Run(ctx context.Context) {
	interval := r.cfg.HeartbeatInterval / 2
	if interval <= 0 {
		interval = r.cfg.HeartbeatInterval
	}
	for {
		if err := r.clock.Sleep(ctx, interval); err != nil {
			return
		}
		r.Check()
	}
}
