package viewersim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/delay"
	"repro/internal/metrics"
)

// protoHists extracts the proto-labelled delay histograms — the series both
// engines must reproduce bit-for-bit. Site-labelled cdn instruments are
// excluded on purpose: the wheel rounds deadlines up to ticks and the
// reference does not, so which viewer's poll reaches the edge first differs
// between engines, and the equivalence contract only covers the
// trace-derived accounting.
func protoHists(reg *metrics.Registry) []metrics.HistogramValue {
	var out []metrics.HistogramValue
	for _, h := range reg.Snapshot().Histograms {
		if h.Labels["proto"] != "" {
			out = append(out, h)
		}
	}
	return out
}

// comparable strips the fields allowed to differ between engines: Events
// counts different things (timer fires vs coordinator sleeps) and End is
// tick-rounded on the wheel.
func comparable(s *Summary) Summary {
	c := *s
	c.Events = 0
	c.End = time.Time{}
	return c
}

// equivCfg is small enough for the goroutine reference (one goroutine per
// viewer) while still covering both protocols, multi-chunk traces, late
// joins, and broadcast overlap.
func equivCfg(seed uint64) Config {
	return Config{
		Seed:      seed,
		Scale:     5000,
		ViewerCap: 150,
		// A low RTMP cap makes HLS overflow common even in a small
		// day, so every seed exercises both protocol paths.
		RTMPCap: 20,
	}
}

// runOn runs cfg on the given number of wheel partitions (the reference
// engine ignores it) into a fresh registry.
func runOn(t *testing.T, cfg Config, parts int) (*Summary, *metrics.Registry) {
	t.Helper()
	cfg.Metrics = metrics.NewRegistry()
	sum, err := run(cfg, parts)
	if err != nil {
		t.Fatalf("%s engine on %d partitions: %v", cfg.Engine, parts, err)
	}
	return sum, cfg.Metrics
}

func TestWheelMatchesGoroutineReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 23} {
		cfg := equivCfg(seed)
		cfg.Engine = "goroutine"
		refSum, refReg := runOn(t, cfg, 1)
		refHists := protoHists(refReg)

		cfg.Engine = "wheel"
		for _, parts := range []int{1, 3} {
			wheelSum, wheelReg := runOn(t, cfg, parts)
			if got, want := comparable(wheelSum), comparable(refSum); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %d partitions: summaries diverge\nwheel:     %+v\ngoroutine: %+v", seed, parts, got, want)
			}
			if !reflect.DeepEqual(protoHists(wheelReg), refHists) {
				t.Errorf("seed %d, %d partitions: proto-labelled delay histograms diverge between engines", seed, parts)
			}
			if wheelSum.Views == 0 || wheelSum.HLSViews == 0 || wheelSum.RTMPViews == 0 {
				t.Fatalf("seed %d: degenerate workload: %+v", seed, wheelSum)
			}
		}
	}
}

// TestWheelRepeatedRunsByteIdentical pins the wheel engine's reproducibility
// at any partition count: each partition's wheel fires in one total order and
// broadcasts share only atomic sums, so not only the summary (End included)
// and the delay histograms but the whole registry — the site-labelled cdn
// instruments (list hits, origin pulls) included — repeats exactly, whether
// the day runs on one partition, on several, or on more partitions than it
// has broadcasts.
func TestWheelRepeatedRunsByteIdentical(t *testing.T) {
	days := map[string]Config{
		"equiv": equivCfg(5),
		"three broadcasts": {
			Seed: 5, Broadcasts: 3, ViewersPerBroadcast: 130, BroadcastDuration: 40 * time.Second, RTMPCap: 20,
		},
	}
	for name, cfg := range days {
		want, wantReg := runOn(t, cfg, 1)
		wantSnap := wantReg.Snapshot()
		if len(wantSnap.Counters) == 0 || len(wantSnap.Histograms) == 0 || len(wantSnap.Gauges) == 0 {
			t.Fatalf("%s: registry snapshot is incomplete: %+v", name, wantSnap)
		}
		if want.Polls == 0 || want.RTMPViews == 0 {
			t.Fatalf("%s: degenerate day: %+v", name, want)
		}
		for _, parts := range []int{1, 2, 3, 8} {
			got, gotReg := runOn(t, cfg, parts)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d partitions differ from 1:\n%+v\n%+v", name, parts, got, want)
			}
			if !reflect.DeepEqual(gotReg.Snapshot(), wantSnap) {
				t.Errorf("%s: %d partitions produce a different registry snapshot from 1", name, parts)
			}
		}
	}
}

// TestPooledViewerResetAllocatesNothing is the pooling budget: re-binding a
// pooled viewer to a new session re-seeds its stream and rebuilds its netsim
// model in place, so a view after the pool is warm costs no allocation.
func TestPooledViewerResetAllocatesNothing(t *testing.T) {
	cfg := Config{
		Seed: 2, Broadcasts: 1, ViewersPerBroadcast: 40, BroadcastDuration: time.Minute, RTMPCap: 20,
	}.withDefaults()
	s := newSim(cfg, buildWorld(cfg))
	b := s.setupBroadcast(s.w.specs[0])
	v := &viewer{}
	for _, idx := range []int{0, 20} { // the first RTMP and the first HLS session
		allocs := testing.AllocsPerRun(100, func() {
			v.reset(s, b, idx)
			if !v.init() {
				t.Fatalf("viewer %d sees no content", idx)
			}
			s.releaseViewer(v)
			s.vfree = s.vfree[:0]
		})
		if allocs != 0 {
			t.Errorf("viewer %d (rtmp=%v): reset+init allocates %.0f, want 0", idx, v.isRTMP, allocs)
		}
	}
}

// TestPoolMissViewerAllocBudget is what the audience costs while the pool
// grows: a viewer the free list cannot supply costs 1/viewerSlab of a slab
// and nothing else. It is its own wheel event, and its netsim model, a value
// in the viewer, costs nothing. The viewer itself stays inside the 288-byte
// size class its model and session fill.
func TestPoolMissViewerAllocBudget(t *testing.T) {
	if size := unsafe.Sizeof(viewer{}); size > 288 {
		t.Errorf("viewer is %d bytes, over the 288-byte size class", size)
	}
	cfg := Config{
		Seed: 2, Broadcasts: 1, ViewersPerBroadcast: 40, BroadcastDuration: time.Minute, RTMPCap: 20,
	}.withDefaults()
	s := newSim(cfg, buildWorld(cfg))
	b := s.setupBroadcast(s.w.specs[0])
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < viewerSlab; i++ {
			idx := i % 2 * 20 // the first RTMP and the first HLS session
			if s.newViewer(b, idx) == nil {
				t.Fatalf("viewer %d sees no content", idx)
			}
		}
		if len(s.vfree) != 0 || len(s.vslab) != 0 {
			t.Fatalf("%d viewers came from the free list, %d are left in the slab", len(s.vfree), len(s.vslab))
		}
	})
	if allocs != 1 {
		t.Errorf("%d pool-miss viewers allocate %.0f times, want 1: the slab", viewerSlab, allocs)
	}
}

// budgetSim is a partition, on its own wheel and CDN, over a one-broadcast
// day: 20 RTMP and 20 HLS viewers over a minute.
func budgetSim() *sim {
	cfg := Config{
		Seed: 2, Broadcasts: 1, ViewersPerBroadcast: 40, BroadcastDuration: time.Minute, RTMPCap: 20,
	}.withDefaults()
	s := newSim(cfg, buildWorld(cfg))
	s.wheel = clock.NewWheel(clock.WheelConfig{Epoch: s.w.start})
	s.buildCDN(s.wheel)
	return s
}

// TestWheelAudienceAllocatesNothing is the per-event budget of the engine: a
// broadcast's whole audience — every join, every HLS poll of the warm edge,
// every RTMP window, every player item, every session's end — replayed on a
// warm partition allocates nothing. The broadcast's chunks are all in the CDN
// already, so only viewer events fire. Warm means the viewer pool already
// holds the audience.
func TestWheelAudienceAllocatesNothing(t *testing.T) {
	s := budgetSim()
	b := s.setupBroadcast(s.w.specs[0])
	for b.nextChunk < b.tr.Items() {
		s.ingestChunk(b)
	}
	var events int64
	audience := func() {
		fired, polls := s.wheel.Fired(), s.ctr.polls
		b.start = s.wheel.Now()
		b.nextJoin = 0
		b.remaining = len(b.joins) + 1 // the broadcaster never leaves
		s.schedule(b.abs(b.joins[0]), &b.join)
		s.wheel.Run()
		events = s.wheel.Fired() - fired
		if b.remaining != 1 || s.ctr.polls == polls {
			t.Fatalf("%d sessions left open, %d polls", b.remaining-1, s.ctr.polls-polls)
		}
	}
	for i := 0; i < 5; i++ {
		audience()
	}
	if allocs := testing.AllocsPerRun(20, audience); allocs != 0 {
		t.Errorf("a %d-event audience allocates %.0f times, want 0", events, allocs)
	}
}

// TestBroadcastSetupAllocBudget pins a reused broadcast record's set-up at
// one allocation, its ID string (an index past strconv's small-number cache
// included): the trace arrays and the join schedule are the record's own,
// sized once to the audience and the trace.
func TestBroadcastSetupAllocBudget(t *testing.T) {
	s := budgetSim()
	sp := s.w.specs[0]
	sp.idx = 123_456
	s.bfree = append(s.bfree, s.setupBroadcast(sp))
	allocs := testing.AllocsPerRun(20, func() {
		s.bfree = append(s.bfree, s.setupBroadcast(sp))
	})
	if allocs != 1 {
		t.Errorf("a reused broadcast's set-up allocates %.0f times, want 1", allocs)
	}
	if b := s.bfree[0]; b.id != "b123456" || len(b.joins) != sp.views || cap(b.joins) != sp.views || cap(b.tr.ReadyAt) != b.tr.Items() {
		t.Errorf("set up %q with %d joins in %d, %d items in %d", b.id, len(b.joins), cap(b.joins), b.tr.Items(), cap(b.tr.ReadyAt))
	}
}

// TestConcurrencyChangesOnlyConcurrency runs a day and the same broadcasts
// at ten times the rate over a tenth of the time: scale S over a fraction F
// of the day against S/10 over F/10. Each broadcast's streams are keyed by
// its index and its start only moves, so the two must print the same
// summary, byte for byte; any coupling between broadcasts — through the
// shared origin, edge, wheel or pools — would show as a difference. It is
// the controlled pair EXPERIMENTS.md profiles the 1:1 day with, at a test's
// size.
func TestConcurrencyChangesOnlyConcurrency(t *testing.T) {
	base := Config{Seed: 3, ViewerCap: 100, RTMPCap: 20, Engine: "wheel"}
	sparse, dense := base, base
	sparse.Scale, sparse.DayFraction = 500, 0.5
	dense.Scale, dense.DayFraction = 50, 0.05
	a, _ := runOn(t, sparse, 2)
	b, _ := runOn(t, dense, 2)
	if a.Broadcasts < 20 || a.Polls == 0 || a.RTMPViews == 0 || a.HLSViews == 0 {
		t.Fatalf("degenerate day: %s", a)
	}
	if a.String() != b.String() {
		t.Errorf("1:%g over %g of the day:\n%s\n1:%g over %g:\n%s", sparse.Scale, sparse.DayFraction, a, dense.Scale, dense.DayFraction, b)
	}
}

// TestWheelIngestAllocBudget pins the ingest events — the origin seals a
// chunk, publishes its successor list and invalidates the edge, and the next
// ingest is scheduled — at 2 allocations per 64 events, counted exactly,
// both of them the CDN's: one slab each of sealed chunks, each with the list
// its seal publishes, and of frames (a chunk is one frame here, 64 to a
// slab). Invalidating the edge reads the origin's copy-on-write edge slice,
// and the engine's share of an event is pooled.
func TestWheelIngestAllocBudget(t *testing.T) {
	const events = 64
	s := budgetSim()
	sp := s.w.specs[0]
	sp.views, sp.rtmp, sp.dur = 0, 0, time.Hour
	b := s.setupBroadcast(sp)
	s.schedule(b.abs(b.tr.ReadyAt[0]), &b.ingest)
	allocs := testing.AllocsPerRun(1, func() {
		for range events {
			fired := s.wheel.Fired()
			s.wheel.RunUntil(b.abs(b.tr.ReadyAt[b.nextChunk]).Add(s.wheel.Resolution()))
			if s.wheel.Fired() != fired+1 {
				t.Fatalf("%d events fired, want the one ingest", s.wheel.Fired()-fired)
			}
		}
	})
	if allocs != 2 {
		t.Errorf("%d ingest events allocate %.0f times, want 2", events, allocs)
	}
}

func TestFixedFanoutCounts(t *testing.T) {
	cfg := Config{
		Seed:                3,
		Scale:               1000,
		Broadcasts:          3,
		ViewersPerBroadcast: 5,
		BroadcastDuration:   10 * time.Second,
		Engine:              "wheel",
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Broadcasts != 3 {
		t.Errorf("broadcasts = %d, want 3", sum.Broadcasts)
	}
	if sum.Views != 15 {
		t.Errorf("views = %d, want 15", sum.Views)
	}
	// 10 s at 3 s chunks → 4 chunks per broadcast.
	if sum.Chunks != 12 {
		t.Errorf("chunks = %d, want 12", sum.Chunks)
	}
	if sum.RTMPViews != 15 || sum.HLSViews != 0 {
		t.Errorf("5 viewers under the RTMP cap should all take RTMP: %+v", sum)
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	if _, err := Run(Config{Engine: "bogus", Broadcasts: 1, ViewersPerBroadcast: 1}); err == nil {
		t.Fatal("want error for unknown engine")
	}
}

// TestScaleSmoke is what `make scale-smoke` runs alone: a 1:200-scale
// simulated day on the wheel engine under -race, with the real-socket
// fidelity slice running concurrently, asserting the Fig. 11 shape — HLS
// delay dominated by chunking+polling+buffering, an order beyond RTMP.
func TestScaleSmoke(t *testing.T) {
	cfg := Config{
		Seed:         11,
		Scale:        200,
		ViewerCap:    500,
		Engine:       "wheel",
		RealHLS:      2,
		RealRTMP:     2,
		RealDuration: time.Second,
		Metrics:      metrics.NewRegistry(),
	}
	sum, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Broadcasts == 0 || sum.Views == 0 || sum.Chunks == 0 || sum.Deliveries == 0 {
		t.Fatalf("degenerate day: %+v", sum)
	}
	rtmpTotal := sum.RTMP.Total()
	hlsTotal := sum.HLS.Total()
	if rtmpTotal < 200*time.Millisecond || rtmpTotal > 10*time.Second {
		t.Errorf("RTMP total delay %v outside the Fig. 11 band", rtmpTotal)
	}
	if hlsTotal < 4*time.Second || hlsTotal > 60*time.Second {
		t.Errorf("HLS total delay %v outside the Fig. 11 band", hlsTotal)
	}
	if hlsTotal < 2*rtmpTotal {
		t.Errorf("HLS (%v) should dominate RTMP (%v) as in Fig. 11", hlsTotal, rtmpTotal)
	}
	if sum.HLS.Polling <= 0 || sum.HLS.Polling > delay.HLSPollInterval {
		t.Errorf("HLS polling %v outside (0, interval]", sum.HLS.Polling)
	}
	if math.Abs(float64(sum.HLS.Chunking-3*time.Second)) > float64(time.Second) {
		t.Errorf("HLS chunking %v should sit near the 3 s chunk duration", sum.HLS.Chunking)
	}
	if sum.RealFrames == 0 {
		t.Errorf("real RTMP slice drained no frames")
	}
	if sum.RealPolls == 0 {
		t.Errorf("real HLS slice made no polls")
	}
}

// TestAllocsPerEventFlatAcrossAudience pins the pooled-viewer invariant: a
// viewer costs a share of a slab while the pool grows and nothing per event,
// so the mallocs per event that an audience adds to a 100-viewer day stay
// under maxMarginal at 1k and at 10k viewers alike. Counting from the
// 100-viewer day leaves out the day's own set-up (world, CDN, registry: a few
// hundred mallocs that do not grow with the audience). The bound is absolute
// rather than a ratio between the two audiences: what is left, about 0.01 per
// event, is the granularity of slab refills (viewers, timer nodes, chunks),
// whose ratio between audiences moves by tens of percent and means nothing,
// while one allocation of its own per viewer adds about 0.25. (The level of a
// whole day is gated end to end by bench's simday allocs_per_op.)
func TestAllocsPerEventFlatAcrossAudience(t *testing.T) {
	day := func(viewers int) (mallocs uint64, events int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum, err := Run(Config{
			Seed:                1,
			Broadcasts:          1,
			ViewersPerBroadcast: viewers,
			BroadcastDuration:   12 * time.Second,
			Engine:              "wheel",
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Views != int64(viewers) || sum.Events == 0 {
			t.Fatalf("%d viewers: %d views, %d events", viewers, sum.Views, sum.Events)
		}
		return after.Mallocs - before.Mallocs, sum.Events
	}
	baseMallocs, baseEvents := day(100)
	perEvent := func(viewers int) float64 {
		mallocs, events := day(viewers)
		return float64(mallocs-baseMallocs) / float64(events-baseEvents)
	}
	const maxMarginal = 0.02
	for _, viewers := range []int{1_000, 10_000} {
		if got := perEvent(viewers); got > maxMarginal {
			t.Errorf("mallocs/event over a 100-viewer day = %.4f at %d viewers, want ≤ %.2f", got, viewers, maxMarginal)
		}
	}
}
