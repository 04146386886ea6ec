package viewersim

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/cdn"
	"repro/internal/clock"
	"repro/internal/delay"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// sim carries the run state both engines share: the CDN under test, the
// delay histograms, the counters, and the entity free lists. Each sim runs
// its event handlers strictly one at a time (a wheel partition on its driving
// goroutine, the reference under its coordinator), so its own state needs no
// synchronization. Wheel partitions share only the read-only world, the
// registry and the two delay-histogram sets, whose updates are atomic sums.
type sim struct {
	cfg Config
	w   *world
	reg *metrics.Registry
	ctx context.Context

	clk    clock.Clock
	wheel  *clock.Wheel
	origin *cdn.Origin
	edge   *cdn.Edge

	rh, hh *delay.ComponentHists
	ctr    counters

	// Free lists of finished broadcasts and sessions, reused for later ones.
	bfree []*bcastRun
	vfree []*viewer
	// vslab is what is left of the last viewer slab: a free-list miss takes
	// the next viewer from it, and an empty one is replaced by viewerSlab
	// fresh viewers in one allocation.
	vslab []viewer

	payload []byte

	end    time.Time
	events int64
}

type counters struct {
	views      int64
	rtmpViews  int64
	hlsViews   int64
	chunks     int64
	polls      int64
	deliveries int64
}

func (c *counters) add(o counters) {
	c.views += o.views
	c.rtmpViews += o.rtmpViews
	c.hlsViews += o.hlsViews
	c.chunks += o.chunks
	c.polls += o.polls
	c.deliveries += o.deliveries
}

func newSim(cfg Config, w *world) *sim {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &sim{
		cfg:     cfg,
		w:       w,
		reg:     reg,
		ctx:     context.Background(),
		rh:      delay.NewComponentHists(reg, "rtmp"),
		hh:      delay.NewComponentHists(reg, "hls"),
		payload: make([]byte, 32),
	}
	return s
}

// partition returns a fresh sim over s's world, registry and delay
// histograms; its clock, CDN, free lists and counters are its own.
func (s *sim) partition() *sim {
	return &sim{
		cfg:     s.cfg,
		w:       s.w,
		reg:     s.reg,
		ctx:     s.ctx,
		rh:      s.rh,
		hh:      s.hh,
		payload: make([]byte, len(s.payload)),
	}
}

// buildCDN stands up the in-process origin and edge on the engine's clock.
// The origin chunks at FrameDuration so one Ingest call seals exactly one
// chunk — the trace already decided chunk boundaries, the origin just has to
// publish them through the real invalidation path.
func (s *sim) buildCDN(clk clock.Clock) {
	s.clk = clk
	s.origin = cdn.NewOrigin(cdn.OriginConfig{
		Site:          s.w.path.Origin,
		ChunkDuration: media.FrameDuration,
		Clock:         clk,
		Metrics:       s.reg,
	})
	s.edge = cdn.NewEdge(cdn.EdgeConfig{
		Site: s.w.path.Edge,
		Resolve: func(string) (cdn.Upstream, error) {
			return cdn.Upstream{Store: s.origin}, nil
		},
		Clock:   clk,
		Metrics: s.reg,
	})
	s.origin.RegisterEdge(s.edge)
}

// bcastRun is one live broadcast's mutable state.
type bcastRun struct {
	s     *sim
	sp    bcastSpec
	id    string
	start time.Time
	// src is the broadcast's keyed stream and model draws from it; every
	// reuse re-seeds one and rebuilds the other in place.
	src       rng.Source
	model     netsim.Model
	tr        delay.Trace
	joins     []time.Duration
	nextJoin  int
	nextChunk int
	remaining int // live participants: viewers yet to finish + the broadcaster

	// ingest and join are the broadcast's two event chains, carried in the
	// record so that scheduling either allocates nothing.
	ingest ingestEvent
	join   joinEvent
}

// ingestEvent feeds its broadcast's next chunk to the origin.
type ingestEvent struct{ b *bcastRun }

func (e *ingestEvent) Fire(time.Time) { e.b.s.wheelIngest(e.b) }

// joinEvent admits its broadcast's next viewer.
type joinEvent struct{ b *bcastRun }

func (e *joinEvent) Fire(time.Time) { e.b.s.wheelJoin(e.b) }

// startEvent is a partition's start chain: it sets up the broadcast at index
// i of the start-sorted specs, then schedules itself for the partition's
// next one, stride positions on.
type startEvent struct {
	s         *sim
	i, stride int
}

func (e *startEvent) Fire(time.Time) {
	s := e.s
	s.wheelStart(s.w.specs[e.i])
	if e.i += e.stride; e.i < len(s.w.specs) {
		s.schedule(s.w.start.Add(s.w.specs[e.i].start), e)
	}
}

func (b *bcastRun) abs(off time.Duration) time.Time { return b.start.Add(off) }

// setupBroadcast materializes a spec at its start time: trace, join
// schedule, liveness count (viewers + the broadcaster's ingest chain).
func (s *sim) setupBroadcast(sp bcastSpec) *bcastRun {
	var b *bcastRun
	if n := len(s.bfree); n > 0 {
		b, s.bfree = s.bfree[n-1], s.bfree[:n-1]
	} else {
		b = &bcastRun{s: s}
		b.ingest.b, b.join.b = b, b
	}
	b.sp = sp
	b.id = "b" + strconv.Itoa(sp.idx)
	b.start = s.w.start.Add(sp.start)
	b.src.Reset(s.cfg.Seed, bcastKey(sp.idx))
	b.model = *netsim.NewModel(netsim.Params{}, &b.src)
	delay.GenTrace(&b.tr, delay.TraceConfig{
		Duration:      sp.dur,
		FramesPerItem: s.w.perChunk,
		Broadcaster:   delay.LabLocation,
		Path:          s.w.path,
	}, &b.model, &b.src)
	b.joins = b.joins[:0]
	for i := 0; i < sp.views; i++ {
		// Audiences are front-loaded (Fig. 6: most viewers arrive near
		// the start): dur·u² biases joins toward the beginning.
		u := b.src.Float64()
		b.joins = append(b.joins, time.Duration(float64(sp.dur)*u*u))
	}
	slices.Sort(b.joins)
	b.nextJoin = 0
	b.nextChunk = 0
	b.remaining = sp.views + 1
	return b
}

// ingestChunk feeds the next sealed chunk into the origin at its trace
// ready time, flowing through the real invalidate path to the edge.
//
//livesim:hotpath TestWheelIngestAllocBudget
func (s *sim) ingestChunk(b *bcastRun) {
	c := b.nextChunk
	b.nextChunk++
	s.origin.Ingest(b.id, media.Frame{
		Seq:        uint64(c),
		CapturedAt: b.abs(b.tr.Captured(c)),
		Keyframe:   true,
		Payload:    s.payload,
	}, s.clk.Now())
	s.ctr.chunks++
}

// viewerSlab is how many viewers one allocation makes when the free list is
// empty: a slab's share of a pool-miss viewer is 1/64 of an allocation.
const viewerSlab = 64

// newViewer builds the session for join index idx, or counts an empty view
// and returns nil when the viewer joined too late to see any content.
func (s *sim) newViewer(b *bcastRun, idx int) *viewer {
	var v *viewer
	if n := len(s.vfree); n > 0 {
		v, s.vfree = s.vfree[n-1], s.vfree[:n-1]
	} else {
		if len(s.vslab) == 0 {
			s.vslab = make([]viewer, viewerSlab)
		}
		v, s.vslab = &s.vslab[0], s.vslab[1:]
	}
	v.reset(s, b, idx)
	if v.init() {
		return v
	}
	s.countView(v.isRTMP)
	s.releaseViewer(v)
	s.userDone(b)
	return nil
}

func (s *sim) countView(isRTMP bool) {
	if isRTMP {
		s.ctr.rtmpViews++
	} else {
		s.ctr.hlsViews++
	}
	s.ctr.views++
}

// deliver runs one viewer event: HLS sessions touch the real edge chunklist
// (the in-process fast path every poll exercises), then the state machine
// advances. done means the session finished and was torn down.
//
//livesim:hotpath TestWheelAudienceAllocatesNothing
func (s *sim) deliver(v *viewer) (next time.Duration, done bool) {
	if !v.isRTMP {
		s.ctr.polls++
		_, _ = s.edge.ChunkList(s.ctx, v.b.id)
	}
	s.ctr.deliveries++
	arrival, dur, done := v.sess.Step()
	v.play.Add(arrival, dur)
	if done {
		s.finishViewer(v)
		return 0, true
	}
	return v.sess.Next(), false
}

// finishViewer observes the session's mean component decomposition into the
// proto-labelled histograms and releases it.
func (s *sim) finishViewer(v *viewer) {
	comp := v.sess.Components(v.play.Result().MeanBufferingDelay)
	if v.isRTMP {
		s.rh.Observe(comp)
	} else {
		s.hh.Observe(comp)
	}
	s.countView(v.isRTMP)
	b := v.b
	s.releaseViewer(v)
	s.userDone(b)
}

func (s *sim) releaseViewer(v *viewer) {
	v.b = nil
	s.vfree = append(s.vfree, v)
}

// userDone retires one participant (viewer or broadcaster); the last one out
// removes the broadcast from the CDN and recycles its state.
func (s *sim) userDone(b *bcastRun) {
	b.remaining--
	if b.remaining == 0 {
		s.origin.Remove(b.id)
		s.edge.Evict(b.id)
		s.bfree = append(s.bfree, b)
	}
}

func (s *sim) summary() *Summary {
	return &Summary{
		Broadcasts: len(s.w.specs),
		Views:      s.ctr.views,
		RTMPViews:  s.ctr.rtmpViews,
		HLSViews:   s.ctr.hlsViews,
		Chunks:     s.ctr.chunks,
		Polls:      s.ctr.polls,
		Deliveries: s.ctr.deliveries,
		Events:     s.events,
		RTMP:       s.rh.Means(),
		HLS:        s.hh.Means(),
		Start:      s.w.start,
		End:        s.end,
	}
}

// runWheel drives the day on n partitions, one goroutine each: partition p
// replays the broadcasts at positions p, p+n, p+2n, … of the start-sorted
// specs on its own wheel and CDN. Once all return, their counters and fire
// counts are added up and the latest end is the day's. No broadcast reads
// another's state, so the totals are the same at any n (DESIGN.md §10).
func (s *sim) runWheel(n int) {
	parts := make([]*sim, n)
	var wg sync.WaitGroup
	for p := range parts {
		ps := s.partition()
		parts[p] = ps
		wg.Add(1)
		go func() {
			defer wg.Done()
			ps.runPartition(p, n)
		}()
	}
	wg.Wait()
	s.end = s.w.start
	for _, ps := range parts {
		s.ctr.add(ps.ctr)
		s.events += ps.events
		if ps.end.After(s.end) {
			s.end = ps.end
		}
	}
}

// runPartition replays every stride-th broadcast from first on one timer
// wheel. Every event is a chain that reschedules itself as it fires: the
// partition's broadcast starts, in start order, and each broadcast's ingest,
// join and per-viewer delivery chains. Only the next start is ever pending,
// not the whole day's.
func (s *sim) runPartition(first, stride int) {
	s.wheel = clock.NewWheel(clock.WheelConfig{Epoch: s.w.start})
	s.buildCDN(s.wheel)
	if first < len(s.w.specs) {
		start := &startEvent{s: s, i: first, stride: stride}
		s.schedule(s.w.start.Add(s.w.specs[first].start), start)
	}
	s.end = s.wheel.Run()
	s.events = s.wheel.Fired()
	_ = s.origin.Close()
}

// schedule arms ev on the wheel at an absolute time.
//
//livesim:hotpath TestWheelAudienceAllocatesNothing
func (s *sim) schedule(at time.Time, ev clock.Event) {
	s.wheel.ScheduleEventAt(at, ev)
}

func (s *sim) wheelStart(sp bcastSpec) {
	b := s.setupBroadcast(sp)
	s.schedule(b.abs(b.tr.ReadyAt[0]), &b.ingest)
	if len(b.joins) > 0 {
		s.schedule(b.abs(b.joins[0]), &b.join)
	}
}

//livesim:hotpath TestWheelIngestAllocBudget
func (s *sim) wheelIngest(b *bcastRun) {
	s.ingestChunk(b)
	if b.nextChunk < b.tr.Items() {
		s.schedule(b.abs(b.tr.ReadyAt[b.nextChunk]), &b.ingest)
		return
	}
	s.userDone(b) // broadcaster leaves
}

//livesim:hotpath TestWheelAudienceAllocatesNothing
func (s *sim) wheelJoin(b *bcastRun) {
	idx := b.nextJoin
	b.nextJoin++
	if b.nextJoin < len(b.joins) {
		s.schedule(b.abs(b.joins[b.nextJoin]), &b.join)
	}
	if v := s.newViewer(b, idx); v != nil {
		s.schedule(b.abs(v.sess.Next()), v)
	}
}

//livesim:hotpath TestWheelAudienceAllocatesNothing
func (s *sim) wheelViewer(v *viewer) {
	next, done := s.deliver(v)
	if done {
		return
	}
	s.schedule(v.b.abs(next), v)
}
