package cdn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// Upstream resolves which store an edge pulls a broadcast from: the origin
// directly (co-located/gateway edges) or another edge acting as gateway
// (§5.3).
type Upstream struct {
	Store hls.Store
	// Usage is the delivery meter of the broadcast's tenant, carried by its
	// assignment; nil for an untenanted broadcast. The edge meters every
	// chunk it serves of the broadcast into it.
	Usage *metrics.Usage
}

// EdgeConfig configures an Edge.
type EdgeConfig struct {
	// Site is the edge's datacenter.
	Site geo.Datacenter
	// Resolve maps a broadcast to its upstream. Required.
	Resolve func(broadcastID string) (Upstream, error)
	// Retry bounds upstream pull attempts on transient errors. The zero
	// value uses 3 attempts with a 5 ms base delay capped at 100 ms —
	// short enough that a viewer poll absorbs the retries.
	Retry resilience.Policy
	// Breaker tunes the per-broadcast upstream circuit breaker; the zero
	// value opens after 5 consecutive failures for 1 s.
	Breaker resilience.BreakerConfig
	// Clock is the time source for arrival stamps and every wait (queue,
	// retry back-off, breaker cool-down); nil means the real clock.
	// Simulations inject theirs so arrival times are seed-determined.
	Clock clock.Clock
	// Metrics is the registry the edge's instruments register in, labelled
	// by site; nil means a private registry.
	Metrics *metrics.Registry
}

// edgeMetrics are the edge's registered cache instruments — the scalability
// currency of HLS — plus the origin→edge transfer histogram (the paper's
// Wowza2Fastly component). Observers read them through the registry
// (EdgeConfig.Metrics), labelled by site: cdn_list_hits_total (polls served
// from the cached, fresh list), cdn_list_pulls_total (polls that triggered an
// upstream pull, ⑩), cdn_chunk_pull_errors_total (chunk copies that failed
// during a list pull — e.g. the chunk rolled out of the origin window, §4.3 —
// leaving the entry stale so the next poll retries), cdn_stale_serves_total
// (polls answered from the last cached list because the upstream was
// unreachable, the graceful degradation real Fastly exhibits instead of a
// 5xx), cdn_pull_retries_total (pull attempts beyond each first try), and
// cdn_sheds_total (requests refused over the concurrency limit, served as
// 503 + Retry-After).
type edgeMetrics struct {
	listHits        *metrics.Counter
	listPulls       *metrics.Counter
	chunkHits       *metrics.Counter
	chunkPulls      *metrics.Counter
	invalidates     *metrics.Counter
	chunkPullErrors *metrics.Counter
	staleServes     *metrics.Counter
	pullRetries     *metrics.Counter
	sheds           *metrics.Counter
	originEdge      *metrics.Histogram
}

func newEdgeMetrics(reg *metrics.Registry, site string) *edgeMetrics {
	l := metrics.L("site", site)
	return &edgeMetrics{
		listHits:        reg.Counter("cdn_list_hits_total", l),
		listPulls:       reg.Counter("cdn_list_pulls_total", l),
		chunkHits:       reg.Counter("cdn_chunk_hits_total", l),
		chunkPulls:      reg.Counter("cdn_chunk_pulls_total", l),
		invalidates:     reg.Counter("cdn_invalidates_total", l),
		chunkPullErrors: reg.Counter("cdn_chunk_pull_errors_total", l),
		staleServes:     reg.Counter("cdn_stale_serves_total", l),
		pullRetries:     reg.Counter("cdn_pull_retries_total", l),
		sheds:           reg.Counter("cdn_sheds_total", l),
		originEdge:      reg.Histogram(metrics.DelayOriginEdge, metrics.DelayBuckets, l),
	}
}

// Edge is the Fastly analog: a pull-through cache for chunklists and chunks.
// A viewer poll that finds the cached chunklist expired triggers the
// upstream pull (⑨→⑩→⑪ in Fig. 10); chunks referenced by a fresh list are
// copied eagerly so subsequent polls are served locally. Pulls for the same
// broadcast are single-flighted, retried with backoff, guarded by a circuit
// breaker, and degrade to serving the stale cached list when the upstream
// stays unreachable.
type Edge struct {
	cfg EdgeConfig
	m   *edgeMetrics

	// flight collapses the poll stampede at chunklist expiry — N viewers
	// finding the list stale trigger one upstream pull, not N (§5.2).
	flight resilience.Group[*media.ChunkList]

	// state is the fleet lifecycle: active edges serve, draining edges
	// serve but hint viewers away, killed edges answer nothing.
	state atomic.Int32

	limit limiter

	// shards partition cache entries by broadcast ID so polls for different
	// broadcasts never contend on one mutex.
	shards [edgeShards]edgeShard
}

// edgeShards is the shard count; a power of two so the hash reduction is a
// mask.
const edgeShards = 16

// edgeShard holds the cache entries for the broadcast IDs that hash to it,
// under its own mutex.
type edgeShard struct {
	mu    sync.Mutex
	cache map[string]*edgeEntry
}

// shard maps a broadcast ID to its shard with inline FNV-1a (no allocation
// on the poll path).
func (e *Edge) shard(id string) *edgeShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return &e.shards[h&(edgeShards-1)]
}

// Edge lifecycle states.
const (
	edgeActive int32 = iota
	edgeDraining
	edgeKilled
)

// ErrEdgeDown is what a killed edge answers every request with — the closest
// loopback analog of a crashed process (the HLS handler maps it to a generic
// 500, exactly what a viewer of a dying Fastly node would see).
var ErrEdgeDown = errors.New("cdn: edge down")

// edgeEntry is the edge's one record per broadcast, made by its first pull
// that succeeds or meets an upstream fault (see guard); Evict drops it whole.
type edgeEntry struct {
	// list is the upstream's published list, shared with every poll answered
	// from it; an update replaces the pointer.
	list  *media.ChunkList
	stale bool
	// br guards the broadcast's upstream; nil until a pull first fails with
	// an upstream fault.
	br *resilience.Breaker
	// chunks holds the cached chunks inside the retention window
	// (retainedChunks behind the highest sequence cached so far).
	chunks chunkWindow
	// usage is the upstream's delivery meter as of the last pull, so a
	// chunk hit only adds to it — zero allocations per serve. Nil for an
	// untenanted broadcast.
	usage *metrics.Usage
}

// entryLocked returns the broadcast's cache entry, creating it on first use.
func (sh *edgeShard) entryLocked(id string) *edgeEntry {
	ent, ok := sh.cache[id]
	if !ok {
		ent = &edgeEntry{}
		sh.cache[id] = ent
	}
	return ent
}

// NewEdge builds an Edge.
func NewEdge(cfg EdgeConfig) *Edge {
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry.MaxAttempts = 3
	}
	if cfg.Retry.BaseDelay == 0 {
		cfg.Retry.BaseDelay = 5 * time.Millisecond
	}
	if cfg.Retry.MaxDelay == 0 {
		cfg.Retry.MaxDelay = 100 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Retry.Sleep == nil {
		cfg.Retry.Sleep = cfg.Clock.Sleep
	}
	if cfg.Breaker.Now == nil {
		cfg.Breaker.Now = cfg.Clock.Now
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	e := &Edge{cfg: cfg, m: newEdgeMetrics(cfg.Metrics, cfg.Site.ID)}
	for i := range e.shards {
		e.shards[i].cache = make(map[string]*edgeEntry)
	}
	e.limit.clk = cfg.Clock
	e.limit.releaseFn = e.limit.release
	// Breaker state is derived at scrape time: the count of broadcasts whose
	// upstream circuit is not closed on this edge.
	cfg.Metrics.GaugeFunc("cdn_breakers_open", e.openBreakers, metrics.L("site", cfg.Site.ID))
	return e
}

// openBreakers counts per-broadcast circuit breakers that are open or
// half-open. Breaker pointers are collected under each shard lock and
// interrogated outside it, so no breaker lock nests inside a shard lock.
func (e *Edge) openBreakers() int64 {
	var n int64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		var brs []*resilience.Breaker
		for _, ent := range sh.cache {
			if ent.br != nil {
				brs = append(brs, ent.br)
			}
		}
		sh.mu.Unlock()
		for _, b := range brs {
			if b.State() != resilience.Closed {
				n++
			}
		}
	}
	return n
}

// Admission defaults: how long a queued request waits for a slot when
// SetLimits names no wait, and the Retry-After hint every shed carries.
const (
	defaultQueueWait = 100 * time.Millisecond
	shedRetryAfter   = time.Second
)

// SetLimits is the edge's admission gate, off until first set: at most
// maxInflight store calls (chunklist and chunk fetches combined) run at
// once, up to queueDepth more wait at most queueWait (≤ 0: 100 ms) for a
// slot, and the rest are shed as 503 + Retry-After 1 s. maxInflight ≤ 0
// turns shedding off. The chaos soaks use it to provoke an overload phase
// without rebuilding the platform.
func (e *Edge) SetLimits(maxInflight, queueDepth int, queueWait time.Duration) {
	if queueWait <= 0 {
		queueWait = defaultQueueWait
	}
	e.limit.set(maxInflight, queueDepth, queueWait)
}

// Drain moves the edge into draining: it keeps serving (and finishes
// inflight pulls) but every response carries the drain hint so viewers
// migrate to a sibling. Draining is sticky; only a killed edge is further
// degraded.
func (e *Edge) Drain() { e.state.CompareAndSwap(edgeActive, edgeDraining) }

// Draining implements hls.Drainer for the HTTP handler's hint header.
func (e *Edge) Draining() bool { return e.state.Load() == edgeDraining }

// Kill makes the edge refuse all traffic with ErrEdgeDown — the chaos
// harness's stand-in for a crashed node.
func (e *Edge) Kill() { e.state.Store(edgeKilled) }

// Killed reports whether the edge has been killed.
func (e *Edge) Killed() bool { return e.state.Load() == edgeKilled }

// Site returns the edge's datacenter.
func (e *Edge) Site() geo.Datacenter { return e.cfg.Site }

// guard runs one upstream attempt under the broadcast's circuit breaker. A
// NotFound is a valid answer from a healthy upstream, not an upstream failure:
// it neither trips the breaker nor is retried. The breaker lives on the
// broadcast's entry and is made by the first other failure, so an ID the
// upstream does not know costs the edge no record.
func (e *Edge) guard(id string, attempt func() error) error {
	sh := e.shard(id)
	sh.mu.Lock()
	var br *resilience.Breaker
	if ent, ok := sh.cache[id]; ok {
		br = ent.br
	}
	sh.mu.Unlock()
	if br != nil {
		if err := br.Allow(); err != nil {
			// Fail fast while the circuit is open; pull's stale fallback
			// still answers the poll.
			return resilience.Permanent(err)
		}
	}
	err := attempt()
	failed := err
	if errors.Is(err, hls.ErrNotFound) {
		failed, err = nil, resilience.Permanent(err)
	}
	if failed != nil && br == nil {
		sh.mu.Lock()
		ent := sh.entryLocked(id)
		if ent.br == nil {
			ent.br = resilience.NewBreaker(e.cfg.Breaker)
		}
		br = ent.br
		sh.mu.Unlock()
	}
	if br != nil {
		br.Report(failed)
	}
	return err
}

// invalidate marks the cached list stale, the "Wowza notifies Fastly to
// expire its old chunklist" step (⑧ in Fig. 10). The
// fresh copy is NOT fetched here — the paper's architecture defers that to
// the first subsequent viewer poll. Only invalidations that actually mark a
// cached, fresh list stale are counted: an entry that holds no list (only a
// breaker, or chunks pulled one by one) has nothing to invalidate.
func (e *Edge) invalidate(broadcastID string, version uint64) {
	sh := e.shard(broadcastID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent, ok := sh.cache[broadcastID]
	if !ok || ent.list == nil || version <= ent.list.Version {
		return
	}
	if !ent.stale {
		ent.stale = true
		e.m.invalidates.Inc()
	}
}

// limiter is the edge's admission gate: at most maxInflight store calls run
// concurrently, up to queueDepth more wait (bounded by queueWait) for a
// slot, and everything beyond that is shed on arrival. Limits are mutable at
// runtime; a release races safely with SetLimits because slots are handed
// directly to the oldest waiter, and a set that lifts or raises the cap
// hands the freed slots to the waiters it admits.
type limiter struct {
	// clk times the queue wait and releaseFn is the l.release method value,
	// bound once so admitting a request does not allocate a closure per
	// call; both are set at construction, before any acquire.
	clk       clock.Clock
	releaseFn func()

	mu          sync.Mutex
	maxInflight int
	queueDepth  int
	queueWait   time.Duration
	inflight    int
	waiters     []chan struct{}
}

// set installs new limits and grants a slot to each queued waiter, oldest
// first, that they admit: all of them when shedding is now off.
func (l *limiter) set(maxInflight, queueDepth int, queueWait time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.maxInflight = maxInflight
	l.queueDepth = queueDepth
	l.queueWait = queueWait
	for len(l.waiters) > 0 && (maxInflight <= 0 || l.inflight < maxInflight) {
		l.inflight++
		close(l.waiters[0])
		l.waiters = l.waiters[1:]
	}
}

// errShed distinguishes an admission refusal from upstream errors.
var errShed = errors.New("cdn: shed")

// acquire admits the caller or returns errShed. On success the caller must
// invoke the returned release exactly once.
func (l *limiter) acquire(ctx context.Context) (func(), error) {
	l.mu.Lock()
	if l.maxInflight <= 0 {
		l.inflight++
		l.mu.Unlock()
		return l.releaseFn, nil
	}
	if l.inflight < l.maxInflight {
		l.inflight++
		l.mu.Unlock()
		return l.releaseFn, nil
	}
	if len(l.waiters) >= l.queueDepth {
		l.mu.Unlock()
		return nil, errShed
	}
	ch := make(chan struct{})
	l.waiters = append(l.waiters, ch)
	wait := l.queueWait
	l.mu.Unlock()

	select {
	case <-ch:
		// A releasing caller handed us its slot (inflight already counts
		// us).
		return l.releaseFn, nil
	case <-l.clk.After(wait):
	case <-ctx.Done():
	}
	// Timed out or cancelled — unless the grant raced us, in which case we
	// own a slot and must either use it (timeout) or give it back (cancel).
	l.mu.Lock()
	for i, w := range l.waiters {
		if w == ch {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			l.mu.Unlock()
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, errShed
		}
	}
	l.mu.Unlock()
	if ctx.Err() != nil {
		l.release()
		return nil, ctx.Err()
	}
	return l.releaseFn, nil
}

func (l *limiter) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Hand the slot to the oldest waiter rather than decrementing, so a
	// queued request cannot be starved by a new arrival.
	if len(l.waiters) > 0 && l.inflight <= l.maxInflight {
		ch := l.waiters[0]
		l.waiters = l.waiters[1:]
		close(ch)
		return
	}
	l.inflight--
}

// admit runs the lifecycle and load-shedding gate shared by ChunkList and
// Chunk. It returns a release func on success; a shed surfaces as
// hls.OverloadedError so the HTTP layer answers 503 + Retry-After.
func (e *Edge) admit(ctx context.Context) (func(), error) {
	if e.state.Load() == edgeKilled {
		return nil, ErrEdgeDown
	}
	rel, err := e.limit.acquire(ctx)
	if errors.Is(err, errShed) {
		e.m.sheds.Inc()
		return nil, &hls.OverloadedError{RetryAfter: shedRetryAfter}
	}
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// ChunkList implements hls.Store for viewers. A fresh cached list is served
// directly — the cached pointer itself, immutable and shared, so the steady
// stream of polls between two updates costs no allocation and (through the
// list's cached Marshal) one serialization. A stale or missing list triggers
// the upstream pull. When the upstream is unreachable the last cached list is
// served stale rather than surfacing the error to the player.
//
//livesim:hotpath TestEdgeWarmHitServesByReference
func (e *Edge) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	rel, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer rel()

	sh := e.shard(id)
	sh.mu.Lock()
	if ent, ok := sh.cache[id]; ok && ent.list != nil && !ent.stale {
		cl := ent.list
		sh.mu.Unlock()
		e.m.listHits.Inc()
		return cl, nil
	}
	sh.mu.Unlock()
	return e.refresh(ctx, id)
}

// refresh is the shared miss path: concurrent polls that all find the list
// expired share one upstream pull (single-flight) and its outcome. The pull
// runs under its leader's context, and a leader that hangs up abandons it
// without an outcome: a caller still listening then joins or leads a fresh
// pull, and one that hung up too returns its own context's error.
func (e *Edge) refresh(ctx context.Context, id string) (*media.ChunkList, error) {
	for {
		cl, err, _ := e.flight.Do(id, func() (*media.ChunkList, error) {
			return e.pull(ctx, id)
		})
		if !errors.Is(err, errPullAbandoned) {
			return cl, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// errPullAbandoned is the outcome of a pull whose leader's context ended
// before it finished. It is the leader's event, not the upstream's, so it is
// neither answered from the stale list nor shared with the pull's waiters
// (refresh turns it into each caller's own answer).
var errPullAbandoned = errors.New("cdn: pull abandoned by its caller")

// pull refreshes the cached list with retries and the circuit breaker,
// falling back to the stale cached copy when the upstream stays down. A
// per-attempt timeout is an upstream fault like any other; only the
// caller's own context ending abandons the pull.
func (e *Edge) pull(ctx context.Context, id string) (*media.ChunkList, error) {
	var attempts atomic.Int64
	list, err := resilience.RetryValue(ctx, e.cfg.Retry, func(ctx context.Context) (l *media.ChunkList, err error) {
		if attempts.Add(1) > 1 {
			e.m.pullRetries.Inc()
		}
		err = e.guard(id, func() error {
			l, err = e.pullUpstream(ctx, id)
			return err
		})
		return l, err
	})
	if err == nil {
		return list, nil
	}
	if errors.Is(err, hls.ErrNotFound) {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, errPullAbandoned
	}
	// Serve-stale-on-error: a viewer poll that finds the origin
	// unreachable gets the last cached chunklist instead of a 5xx.
	sh := e.shard(id)
	sh.mu.Lock()
	if ent, ok := sh.cache[id]; ok && ent.list != nil {
		cl := ent.list
		sh.mu.Unlock()
		e.m.staleServes.Inc()
		return cl, nil
	}
	sh.mu.Unlock()
	return nil, err
}

// pullUpstream performs one pull attempt: fetch the list and eagerly copy
// new chunks. Chunk copies that fail are counted and leave the entry stale
// so the next poll retries them.
func (e *Edge) pullUpstream(ctx context.Context, id string) (*media.ChunkList, error) {
	up, err := e.cfg.Resolve(id)
	if err != nil {
		return nil, err
	}
	list, err := up.Store.ChunkList(ctx, id)
	if err != nil {
		return nil, err
	}
	e.m.listPulls.Inc()

	// Copy chunks we do not have yet (the ⑪ transfer).
	sh := e.shard(id)
	sh.mu.Lock()
	ent := sh.entryLocked(id)
	ent.usage = up.Usage
	// A list names at most a window of chunks; gather them on the stack.
	var window [media.WindowSize]media.ChunkRef
	missing := window[:0]
	for _, ref := range list.Chunks {
		if _, have := ent.chunks.get(ref.Seq); !have {
			missing = append(missing, ref)
		}
	}
	sh.mu.Unlock()

	failed := 0
	for _, ref := range missing {
		// The ⑪ transfer is the paper's Wowza→Fastly component: time from
		// starting the hop to having the chunk bytes at this edge.
		copyStart := e.cfg.Clock.Now()
		c, err := up.Store.Chunk(ctx, id, ref.Seq)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// Chunk fetch failed (it may have rolled out of the origin
			// window, or the hop dropped it). Count the failure and
			// leave the entry stale below so the next poll retries,
			// instead of caching a list whose chunks are missing.
			e.m.chunkPullErrors.Inc()
			failed++
			continue
		}
		e.m.chunkPulls.Inc()
		arrived := e.cfg.Clock.Now()
		sh.mu.Lock()
		ent.chunks.put(ref.Seq, c, arrived)
		sh.mu.Unlock()
		e.m.originEdge.Observe(arrived.Sub(copyStart))
	}

	sh.mu.Lock()
	ent.list = list
	ent.stale = failed > 0
	sh.mu.Unlock()
	return list, nil
}

// Chunk implements hls.Store for viewers: a cached chunk is returned by
// reference (the one *media.Chunk every viewer of it shares), a miss pulls
// through with retries under the broadcast's circuit breaker. Either way the
// chunk comes back sealed: the meter reads its frames after its Wire.
//
//livesim:hotpath TestEdgeWarmHitServesByReference
func (e *Edge) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	rel, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer rel()

	sh := e.shard(id)
	sh.mu.Lock()
	if ent, ok := sh.cache[id]; ok {
		if c, ok := ent.chunks.get(seq); ok {
			// Copy the meter out before unlocking; the metering itself
			// (atomic adds) runs outside the shard lock, after the seal
			// (Wire), which is what may rewrite the frames Size reads.
			usage := ent.usage
			sh.mu.Unlock()
			e.m.chunkHits.Inc()
			c.chunk.Wire()
			usage.MeterChunks(1, int64(c.chunk.Size()))
			return c.chunk, nil
		}
	}
	sh.mu.Unlock()
	return e.pullChunk(ctx, id, seq)
}

// pullChunk is Chunk's miss path.
func (e *Edge) pullChunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	var usage *metrics.Usage
	c, err := resilience.RetryValue(ctx, e.cfg.Retry, func(ctx context.Context) (c *media.Chunk, err error) {
		err = e.guard(id, func() error {
			up, err := e.cfg.Resolve(id)
			if err != nil {
				return err
			}
			usage = up.Usage
			fetchStart := e.cfg.Clock.Now()
			if c, err = up.Store.Chunk(ctx, id, seq); err != nil {
				return err
			}
			e.m.originEdge.Observe(e.cfg.Clock.Now().Sub(fetchStart))
			return nil
		})
		return c, err
	})
	if err != nil {
		return nil, err
	}
	e.m.chunkPulls.Inc()
	arrived := e.cfg.Clock.Now()
	sh := e.shard(id)
	sh.mu.Lock()
	ent := sh.entryLocked(id)
	ent.usage = usage
	ent.chunks.put(seq, c, arrived)
	sh.mu.Unlock()
	c.Wire()
	usage.MeterChunks(1, int64(c.Size()))
	return c, nil
}

// ChunkArrivedAt returns when chunk seq was copied to this edge (⑪).
func (e *Edge) ChunkArrivedAt(id string, seq uint64) (time.Time, bool) {
	sh := e.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ent, ok := sh.cache[id]
	if !ok {
		return time.Time{}, false
	}
	c, ok := ent.chunks.get(seq)
	return c.at, ok
}

// Evict drops a broadcast's record: cached list, chunks and breaker.
func (e *Edge) Evict(id string) {
	sh := e.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.cache, id)
}
