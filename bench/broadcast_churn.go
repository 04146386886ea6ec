package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/resilience"
	"repro/internal/rtmp"
)

// broadcast_churn: nproc workers run whole broadcast lifecycles back to back
// against a full core.Platform — start, publish one chunk's worth of frames,
// join and watch over RTMP, resolve an edge and fetch the chunklist and chunk
// cold, comment and heart, end. An op is one lifecycle in which every step
// verified.
//
// Why this workload: it uses the same layers as the two steady-state
// workloads the other way round — writes beside reads. It is the only one
// that appends to the journals, mutates the control plane, pays RTMP connect
// and teardown, takes the edge's miss path (every broadcast is new to every
// edge) and depends on per-broadcast state being reclaimed. A cache or pool
// that wins on hls_poll or rtmp_fanout but costs cold start, or leaks state
// per broadcast, shows here in goodput_ops_s and peak_rss_mb.
const (
	churnUsers = 1024
	// churnSweepEvery lifecycles, counted not timed, the platform reclaims
	// ended broadcasts and the journals are checkpointed.
	churnSweepEvery = 1000
	// churnWarm lifecycles run through the measured path during set-up.
	churnWarm = 1500
	// churnPerSecond sizes a window (see fanFramesPerSecond).
	churnPerSecond = 900
	// churnRetention only has to be non-zero for SweepEnded to act; sweeps
	// are called with a time past it, so the platform's own wall-clock
	// janitor (period retention/2) never fires during a run.
	churnRetention = time.Hour
	churnStepLimit = 20 * time.Second
)

type churn struct {
	p        params
	reg      *metrics.Registry
	plat     *core.Platform
	journals []*journal.Mem
	users    []uint64
	cities   []geo.Location
	workers  []*churnWorker

	perWindow    int64
	next         atomic.Int64 // next lifecycle index
	completed    atomic.Int64
	journalBytes atomic.Int64
	sweeps       atomic.Int64
	swept        atomic.Int64
	jmu          sync.Mutex
}

// churnWorker owns one keep-alive HTTP connection pool; every client it uses
// talks to the platform's single HTTP listener.
type churnWorker struct {
	cc *control.Client
	mc *pubsub.Client
	hc *http.Client
}

func newChurn(p params) workload { return &churn{p: p} }

func (w *churn) registry() *metrics.Registry { return w.reg }

func (w *churn) setUp() error {
	tr := w.p.tr
	w.reg = metrics.NewRegistry()
	w.perWindow = w.p.scaled(churnPerSecond, 1)
	w.cities = geo.CityCatalog()[:8] // North America: spreads joins over the four edges
	fastly := geo.FastlySites()
	cfg := core.PlatformConfig{
		OriginSites:   geo.WowzaSites()[:2],                                         // Ashburn, San Jose
		EdgeSites:     []geo.Datacenter{fastly[0], fastly[8], fastly[1], fastly[9]}, // their two gateways + Los Angeles, New York
		ChunkDuration: framesPerChunk * frameInterval,
		Retention:     churnRetention,
		Seed:          w.p.seed,
		Metrics:       w.reg,
		Journal:       w.newJournal,
	}
	if tr != nil {
		cfg.WrapUpstream = func(s hls.Store) hls.Store {
			if _, isOrigin := s.(*cdn.Origin); isOrigin {
				return &spanStore{tr: tr, next: s, list: "cdn.origin.list", chunk: "cdn.origin.chunk"}
			}
			return &spanStore{tr: tr, next: s, list: "cdn.gateway.list", chunk: "cdn.gateway.chunk"}
		}
	}
	sp := tr.start("core.start", 0, noSpan)
	w.plat = core.NewPlatform(cfg)
	err := w.plat.Start(context.Background())
	tr.end(sp)
	if err != nil {
		return err
	}
	names := newGen(w.p.seed, "churn-users")
	for i := 0; i < churnUsers; i++ {
		w.users = append(w.users, w.plat.Ctrl.Register(names.hexID("user-")).ID)
	}
	for i := 0; i < w.p.drivers*churnPacedWorkers; i++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
		w.workers = append(w.workers, &churnWorker{
			cc: &control.Client{BaseURL: w.plat.ControlURL(), HTTPClient: hc},
			mc: &pubsub.Client{BaseURL: w.plat.MessageURL(), HTTPClient: hc, Retry: resilience.Policy{MaxAttempts: 1}},
			hc: hc,
		})
	}
	if _, failed := w.run(churnWarm); failed > 0 {
		return fmt.Errorf("warm-up: %d of %d lifecycles failed", failed, churnWarm)
	}
	return nil
}

// newJournal hands each origin and the control plane its own in-memory log.
// journal.File would fsync per batch, and this box's disk is not the system
// under test.
func (w *churn) newJournal(string) journal.Backend {
	m := journal.NewMem()
	w.jmu.Lock()
	w.journals = append(w.journals, m)
	w.jmu.Unlock()
	if w.p.tr == nil {
		return m
	}
	return &spanBackend{w: w, next: m}
}

// spanBackend records a span around each group commit.
type spanBackend struct {
	w    *churn
	next journal.Backend
}

func (b *spanBackend) Append(p []byte) error {
	sp := b.w.p.tr.start("journal.append", 0, noSpan)
	err := b.next.Append(p)
	b.w.p.tr.end(sp)
	b.w.journalBytes.Add(int64(len(p)))
	return err
}

func (b *spanBackend) Load() ([]byte, error)     { return b.next.Load() }
func (b *spanBackend) Truncate(size int64) error { return b.next.Truncate(size) }

// run executes n lifecycles closed-loop on the first nproc workers and
// returns when all have finished.
func (w *churn) run(n int64) (attempted, failed int64) {
	end := w.next.Load() + n
	var fails atomic.Int64
	var wg sync.WaitGroup
	for _, wk := range w.workers[:w.p.drivers] {
		wg.Add(1)
		go func(wk *churnWorker) {
			defer wg.Done()
			for {
				i := w.next.Add(1) - 1
				if i >= end {
					w.next.Add(-1)
					return
				}
				if w.p.expired() || w.lifecycle(wk, i) != nil {
					fails.Add(1)
				}
				w.afterLifecycle()
			}
		}(wk)
	}
	wg.Wait()
	return n, fails.Load()
}

// afterLifecycle is the count-based janitor: every churnSweepEvery completed
// lifecycles, whichever worker crossed the mark sweeps the platform and
// checkpoints the journals (an ended, swept broadcast needs no replay; without
// this the in-memory logs, not the platform, would own the process's
// footprint).
func (w *churn) afterLifecycle() {
	if w.completed.Add(1)%churnSweepEvery != 0 {
		return
	}
	sp := w.p.tr.start("core.sweep", 0, noSpan)
	n := w.plat.SweepEnded(time.Now().Add(2 * churnRetention))
	w.p.tr.end(sp)
	w.sweeps.Add(1)
	w.swept.Add(int64(n))
	w.jmu.Lock()
	for _, j := range w.journals {
		_ = j.Truncate(0) // size 0 is always inside the log
	}
	w.jmu.Unlock()
}

func (w *churn) window(int) (attempted, failed int64) { return w.run(w.perWindow) }

var errStep = errors.New("lifecycle step failed verification")

// lifecycle runs broadcast number i from start to ended. Every input — who
// broadcasts, who watches, from where, and every payload byte — is drawn
// from (seed, i).
func (w *churn) lifecycle(wk *churnWorker, i int64) (err error) {
	tr := w.p.tr
	g := newGen(w.p.seed, "churn-life", uint64(i))
	broadcaster := w.users[g.intn(len(w.users))]
	watcher := w.users[g.intn(len(w.users))]
	loc := w.cities[g.intn(len(w.cities))]
	img := genChunk(g, 0, 0, framesPerChunk, framePayload)

	ctx, cancel := context.WithTimeout(context.Background(), churnStepLimit)
	defer cancel()
	life := tr.start("core.lifecycle", i, noSpan)
	defer tr.end(life)
	step := func(name string) func() {
		sp := tr.start(name, i, life)
		return func() { tr.end(sp) }
	}

	done := step("control.start")
	grant, err := wk.cc.StartBroadcast(ctx, broadcaster, loc)
	done()
	if err != nil {
		return fmt.Errorf("start: %w", err)
	}
	id := grant.BroadcastID

	done = step("rtmp.publish")
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, id, grant.Token, nil)
	done()
	if err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	defer pub.Close()

	done = step("control.join")
	vg, err := wk.cc.Join(ctx, watcher, id, loc)
	done()
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if vg.Protocol != control.ProtoRTMP {
		return fmt.Errorf("join routed to %q, want rtmp: %w", vg.Protocol, errStep)
	}

	done = step("rtmp.subscribe")
	viewer, err := rtmp.Subscribe(ctx, vg.RTMPAddr, id, "", rtmp.ViewerOptions{Queue: 2 * framesPerChunk})
	done()
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	defer viewer.Close()

	done = step("rtmp.send")
	for n, pl := range img.payloads {
		seq := uint64(n)
		f := media.Frame{Seq: seq, CapturedAt: captureTime(seq), Keyframe: isKeyframe(seq), Payload: pl}
		if err = pub.Send(&f); err != nil {
			break
		}
	}
	done()
	if err != nil {
		return fmt.Errorf("send: %w", err)
	}

	done = step("rtmp.recv")
	for n := range img.payloads {
		select {
		case rf, ok := <-viewer.Frames():
			if !ok || !sameFrame(&rf.Frame, uint64(n), img.payloads[n]) {
				err = fmt.Errorf("pushed frame %d: %w", n, errStep)
			}
		case <-ctx.Done():
			err = fmt.Errorf("pushed frame %d: %w", n, ctx.Err())
		}
		if err != nil {
			break
		}
	}
	done()
	if err != nil {
		return err
	}

	done = step("control.resolve")
	edgeURL, err := wk.cc.ResolveEdge(ctx, id, loc)
	done()
	if err != nil {
		return fmt.Errorf("resolve edge: %w", err)
	}
	hc := &hls.Client{BaseURL: edgeURL, HTTPClient: wk.hc, Retry: resilience.Policy{MaxAttempts: 1}}

	done = step("hls.fetch_list")
	cl, err := hc.FetchChunkList(ctx, id, 0)
	done()
	if err != nil {
		return fmt.Errorf("chunklist: %w", err)
	}
	if err := checkList(cl); err != nil {
		return err
	}

	done = step("hls.fetch_chunk")
	chunk, err := hc.FetchChunk(ctx, id, 0)
	done()
	if err != nil {
		return fmt.Errorf("chunk: %w", err)
	}
	if err := checkChunk(chunk, img); err != nil {
		return err
	}

	user := fmt.Sprintf("viewer-%d", watcher)
	for _, ev := range []pubsub.Event{
		{UserID: user, Kind: pubsub.KindComment, Text: "hello"},
		{UserID: user, Kind: pubsub.KindHeart},
	} {
		done = step("pubsub.publish")
		stored, err := wk.mc.Publish(ctx, id, ev)
		done()
		if err != nil {
			return fmt.Errorf("publish %s: %w", ev.Kind, err)
		}
		if stored.Seq == 0 || stored.Kind != ev.Kind {
			return fmt.Errorf("stored event %+v: %w", stored, errStep)
		}
	}
	done = step("pubsub.events")
	evs, _, err := wk.mc.Events(ctx, id, 0, false)
	done()
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if err := checkEvents(evs); err != nil {
		return err
	}

	done = step("control.end")
	err = wk.cc.EndBroadcast(ctx, id, grant.Token)
	done()
	if err != nil {
		return fmt.Errorf("end: %w", err)
	}
	if err := pub.End(); err != nil {
		return fmt.Errorf("publisher end: %w", err)
	}
	if info, err := w.plat.Ctrl.Info(id); err != nil || info.Live {
		return fmt.Errorf("broadcast still live after end (%v): %w", err, errStep)
	}
	return nil
}

// checkList verifies the cold chunklist of a broadcast that sealed exactly one
// chunk.
func checkList(cl *media.ChunkList) error {
	if cl.Version == 0 || len(cl.Chunks) != 1 || cl.Chunks[0].Seq != 0 {
		return fmt.Errorf("chunklist v%d with %d chunks: %w", cl.Version, len(cl.Chunks), errStep)
	}
	return nil
}

// checkChunk verifies the downloaded chunk against the frames the lifecycle
// published.
func checkChunk(c *media.Chunk, img chunkImage) error {
	if c.Seq != 0 || len(c.Frames) != len(img.payloads) {
		return fmt.Errorf("chunk %d with %d frames: %w", c.Seq, len(c.Frames), errStep)
	}
	for n := range c.Frames {
		if !sameFrame(&c.Frames[n], uint64(n), img.payloads[n]) {
			return fmt.Errorf("chunk frame %d: %w", n, errStep)
		}
	}
	return nil
}

// checkEvents verifies the channel holds the lifecycle's two interactions, in
// order; a lifecycle that skipped one is a failed op.
func checkEvents(evs []pubsub.Event) error {
	if len(evs) != 2 || evs[0].Kind != pubsub.KindComment || evs[1].Kind != pubsub.KindHeart {
		return fmt.Errorf("%d events: %w", len(evs), errStep)
	}
	return nil
}

// sameFrame checks a delivered frame against the one generated for seq.
func sameFrame(f *media.Frame, seq uint64, payload []byte) bool {
	return f.Seq == seq && f.CapturedAt.UnixNano() == captureTime(seq).UnixNano() &&
		f.Keyframe == isKeyframe(seq) && bytes.Equal(f.Payload, payload)
}

func (w *churn) tearDown() {
	for _, wk := range w.workers {
		wk.hc.CloseIdleConnections()
	}
	if w.plat != nil {
		w.plat.Stop()
	}
}

// churnPacedWorkers is how many times nproc workers the open-loop segment
// may have in flight, so a slow lifecycle delays its successors' start (and
// is charged for it) instead of silently lowering the offered rate.
const churnPacedWorkers = 4

func (w *churn) paced(rate float64, d time.Duration) pacedResult {
	n := int64(rate * d.Seconds())
	base := w.next.Add(n) - n
	t0 := time.Now().Add(time.Millisecond)
	var slot atomic.Int64
	results := make([]pacedResult, len(w.workers))
	var wg sync.WaitGroup
	for wi, wk := range w.workers {
		wg.Add(1)
		go func(wi int, wk *churnWorker) {
			defer wg.Done()
			pr := &results[wi]
			for {
				k := slot.Add(1) - 1
				if k >= n || w.p.expired() {
					return
				}
				due := t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				pacedWait(due)
				pr.lateNs = append(pr.lateNs, int64(max(time.Since(due), 0)))
				if w.lifecycle(wk, base+k) == nil {
					pr.latencyNs = append(pr.latencyNs, int64(time.Since(due)))
				}
				w.afterLifecycle()
			}
		}(wi, wk)
	}
	wg.Wait()
	var out pacedResult
	for _, pr := range results {
		out.latencyNs = append(out.latencyNs, pr.latencyNs...)
		out.lateNs = append(out.lateNs, pr.lateNs...)
	}
	return out
}

func (w *churn) layers(lc *layerCtx) {
	edgeLayerMetrics(lc)
	in, out := lc.reg.counter("rtmp_frames_in_total"), lc.reg.counter("rtmp_frames_out_total")
	lc.m["rtmp.frames_in"] = in
	lc.m["rtmp.frames_out"] = out
	lc.m["rtmp.fanout_ratio"] = div(out, in) // one viewer per broadcast
	lc.m["rtmp.slow_evictions"] = lc.reg.counter("rtmp_slow_evictions_total")
	lc.m["rtmp.send_blocked_us_per_frame"] = lc.spans["rtmp.send"].meanNs() / framesPerChunk / 1e3
	hs := append(append([]int64(nil), lc.spans["rtmp.publish"].durations()...), lc.spans["rtmp.subscribe"].durations()...)
	lc.m["rtmp.handshake_p50_us"] = summarize(hs, 99).P50 / 1e3

	lc.m["cdn.origin.chunks_sealed"] = lc.reg.counter("cdn_origin_chunks_total")
	lc.m["cdn.origin.list_ns_per_pull"] = lc.spans["cdn.origin.list"].meanNs()
	lc.m["cdn.origin.chunk_ns_per_pull"] = lc.spans["cdn.origin.chunk"].meanNs()

	var controlNs int64
	for metric, name := range map[string]string{
		"control.start_p50_us":   "control.start",
		"control.join_p50_us":    "control.join",
		"control.resolve_p50_us": "control.resolve",
		"control.end_p50_us":     "control.end",
		"pubsub.publish_p50_us":  "pubsub.publish",
		"pubsub.events_p50_us":   "pubsub.events",
	} {
		st := lc.spans[name]
		lc.m[metric] = summarize(st.durations(), 99).P50 / 1e3
		if st != nil && name[:7] == "control" {
			controlNs += st.total
		}
	}
	if life := lc.spans["core.lifecycle"]; life != nil {
		lc.m["control.busy_share"] = div(float64(controlNs), float64(life.total))
		logTiming("core.lifecycle (closed loop)", summarize(life.durations(), 99))
		total := func(names ...string) (ns float64) {
			for _, n := range names {
				if st := lc.spans[n]; st != nil {
					ns += float64(st.total)
				}
			}
			return ns
		}
		logShares("broadcast_churn (of lifecycle wall time)", float64(life.total), "verify+teardown", map[string]float64{
			"control": float64(controlNs),
			"rtmp":    total("rtmp.publish", "rtmp.subscribe", "rtmp.send", "rtmp.recv"),
			"hls+cdn": total("hls.fetch_list", "hls.fetch_chunk"),
			"pubsub":  total("pubsub.publish", "pubsub.events"),
		})
	}

	lc.m["journal.append_us_per_batch"] = lc.spans["journal.append"].meanNs() / 1e3
	lc.m["journal.records_per_batch"] = div(lc.reg.counter("journal_appends_total"), lc.reg.counter("journal_batches_total"))
	lc.m["journal.bytes_per_op"] = div(float64(w.journalBytes.Load()), float64(w.completed.Load()))
	lc.m["journal.append_errors"] = lc.reg.counter("journal_append_errors_total")

	lc.m["core.start_s"] = lc.setup["core.start"].meanNs() / 1e9
	life := summarize(lc.paced.latencyNs, 99)
	lc.m["core.lifecycle_p50_ms"] = life.P50 / 1e6
	lc.m["core.lifecycle_p99_ms"] = life.Tail / 1e6
	lc.m["core.sweep_ms_per_call"] = lc.spans["core.sweep"].meanNs() / 1e6
	lc.m["core.swept_per_call"] = div(float64(w.swept.Load()), float64(w.sweeps.Load()))
	logTiming("core.lifecycle (paced)", life)

	img := genChunk(newGen(w.p.seed, "churn-life", 0), 0, 0, framesPerChunk, framePayload)
	probeWire(lc.m, img.payloads)
	probeMedia(lc.m, img.payloads)
	probeIngest(lc.m, img.payloads)
	lc.m["loadgen.cpu_ms_per_kop"] = probeChurnGenerator(w.p.seed)
}
