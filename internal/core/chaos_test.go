package core

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/pubsub"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/rtmp"
	"repro/internal/testutil"
)

// chaosConnRecorder captures the viewer's raw RTMP conns so the test can
// force a deterministic mid-stream reset on top of the random fault rates.
type chaosConnRecorder struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (r *chaosConnRecorder) wrap(c net.Conn) net.Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conns = append(r.conns, c)
	return c
}

func (r *chaosConnRecorder) kill(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= len(r.conns) {
		return false
	}
	r.conns[i].Close()
	return true
}

// TestPlatformChaosSoak runs one full broadcast through the assembled
// platform with faults injected on every hop — origin↔edge pulls (store
// errors + latency), viewer↔edge HLS fetches (HTTP errors, latency,
// truncated bodies), viewer↔hub pubsub calls (HTTP errors + latency), and
// the viewer's RTMP transport (latency, partial reads, resets, plus one
// deterministic mid-stream reset) — and checks the resilience layer absorbs
// all of it: the broadcast completes, the edge serves stale chunklists while
// the origin is fully down, the RTMP viewer resumes past the reset, the HLS
// viewer's stall ratio stays bounded, and no goroutines leak.
func TestPlatformChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak under -short")
	}

	// Leak check registered before startPlatform so it runs after p.Stop
	// (t.Cleanup is LIFO).
	testutil.CheckGoroutines(t)

	// Origin↔edge hop: every upstream store an edge pulls from fails 15%
	// of calls and delays 10% (the §5.3 WAN hop under loss).
	upFaults := faults.New(faults.Config{
		Seed:        42,
		ErrorRate:   0.15,
		LatencyRate: 0.10,
		LatencyMin:  500 * time.Microsecond,
		LatencyMax:  2 * time.Millisecond,
	})
	fastRetry := resilience.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:   200 * time.Millisecond,
		RTMPViewerLimit: 2,
		WrapUpstream:    upFaults.Store,
		EdgeRetry:       resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		EdgeBreaker:     resilience.BreakerConfig{FailureThreshold: 4, OpenFor: 60 * time.Millisecond},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cc := &control.Client{BaseURL: p.ControlURL()}

	uid, err := cc.Register(ctx, "chaos")
	if err != nil {
		t.Fatal(err)
	}
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}
	grant, err := cc.StartBroadcast(ctx, uid, ashburn)
	if err != nil {
		t.Fatal(err)
	}

	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		t.Fatal(err)
	}

	// RTMP viewer over a lossy last-mile link (§5.2): random latency,
	// partial reads and resets, plus one deterministic reset below.
	viewerFaults := faults.New(faults.Config{
		Seed:            9,
		LatencyRate:     0.05,
		LatencyMin:      200 * time.Microsecond,
		LatencyMax:      time.Millisecond,
		ResetRate:       0.02,
		PartialReadRate: 0.10,
	})
	rec := &chaosConnRecorder{}
	vg, err := cc.Join(ctx, 100, grant.BroadcastID, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	if vg.Protocol != control.ProtoRTMP {
		t.Fatalf("first viewer protocol = %s, want RTMP", vg.Protocol)
	}
	rv, err := rtmp.SubscribeResilient(ctx, vg.RTMPAddr, grant.BroadcastID, "", rtmp.ReconnectConfig{
		Options: rtmp.ViewerOptions{WrapConn: func(c net.Conn) net.Conn {
			return rec.wrap(viewerFaults.Conn(c))
		}},
		Backoff:       resilience.Policy{BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		MaxReconnects: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()

	var rtmpSeqs []uint64
	rtmpDone := make(chan struct{})
	go func() {
		defer close(rtmpDone)
		killed := false
		for rf := range rv.Frames() {
			rtmpSeqs = append(rtmpSeqs, rf.Frame.Seq)
			if !killed && len(rtmpSeqs) == 15 {
				killed = rec.kill(0)
			}
		}
	}()

	// Publisher: 100 frames, encoder-clocked so chunks close every 5
	// frames, real-time paced so the chaos windows overlap the stream.
	const totalFrames = 100
	framesPerChunk := int(200 * time.Millisecond / media.FrameDuration)
	totalChunks := totalFrames / framesPerChunk
	pubErr := make(chan error, 1)
	go func() {
		enc := media.NewEncoder(media.EncoderConfig{}, rng.New(3))
		base := time.Now()
		for i := 0; i < totalFrames; i++ {
			f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
			if err := pub.Send(&f); err != nil {
				pubErr <- fmt.Errorf("send frame %d: %w", i, err)
				return
			}
			time.Sleep(4 * time.Millisecond)
		}
		pubErr <- pub.End()
	}()

	// HLS viewer polls the nearest edge through a faulty HTTP transport:
	// errors, latency spikes and truncated bodies on the §4.3 fetch path.
	edge := p.Topo.NearestEdge(ashburn)
	edgeURL := p.EdgeURL(edge)
	hlsFaults := faults.New(faults.Config{
		Seed:            7,
		ErrorRate:       0.10,
		LatencyRate:     0.10,
		LatencyMin:      500 * time.Microsecond,
		LatencyMax:      2 * time.Millisecond,
		PartialReadRate: 0.05,
	})
	hc := &hls.Client{
		BaseURL:    edgeURL,
		HTTPClient: hlsFaults.Client(nil),
		Timeout:    2 * time.Second,
		Retry:      fastRetry,
		Metrics:    p.Metrics(),
	}
	// Wait for the first chunk to reach the edge before starting the
	// poller (Poll treats not-found as terminal).
	warm := &hls.Client{BaseURL: edgeURL, Retry: fastRetry}
	warmDeadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := warm.FetchChunkList(ctx, grant.BroadcastID, 0)
		if err == nil && len(cl.Chunks) > 0 {
			break
		}
		if time.Now().After(warmDeadline) {
			t.Fatalf("edge never served the first chunk: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	var chunksSeen atomic.Int64
	hlsPollErr := make(chan error, 1) // nil once the poller saw the end marker
	go func() {
		err := hc.Poll(ctx, grant.BroadcastID, hls.PollerConfig{
			Interval:  25 * time.Millisecond,
			PreBuffer: 400 * time.Millisecond,
			OnChunk:   func(ev hls.ChunkEvent) { chunksSeen.Add(1) },
		})
		hlsPollErr <- err
	}()

	// Pubsub hop under HTTP faults: publish comments and hearts while a
	// long-poll consumer drains the channel.
	psFaults := faults.New(faults.Config{
		Seed:        8,
		ErrorRate:   0.10,
		LatencyRate: 0.10,
		LatencyMin:  500 * time.Microsecond,
		LatencyMax:  2 * time.Millisecond,
	})
	mc := &pubsub.Client{
		BaseURL:         p.MessageURL(),
		HTTPClient:      psFaults.Client(nil),
		Timeout:         2 * time.Second,
		LongPollTimeout: 10 * time.Second,
		Retry:           fastRetry,
	}
	const totalEvents = 12
	var eventsSeen atomic.Int64
	psDone := make(chan error, 1)
	go func() {
		var since uint64
		for {
			evs, closed, err := mc.Events(ctx, grant.BroadcastID, since, true)
			if err != nil {
				psDone <- err
				return
			}
			eventsSeen.Add(int64(len(evs)))
			since += uint64(len(evs))
			if closed {
				psDone <- nil
				return
			}
		}
	}()
	for i := 0; i < totalEvents; i++ {
		ev := pubsub.Event{UserID: fmt.Sprintf("u%d", 100+i%3), Kind: pubsub.KindHeart}
		if i%2 == 0 {
			ev.Kind = pubsub.KindComment
			ev.Text = fmt.Sprintf("msg %d", i)
		}
		if _, err := mc.Publish(ctx, grant.BroadcastID, ev); err != nil {
			t.Fatalf("publish event %d: %v", i, err)
		}
	}

	// Origin-down window: once the stream is mid-flight, fail 100% of
	// upstream pulls. The edges must keep answering polls from their stale
	// cached chunklists instead of propagating errors (§4.3 degradation).
	waitFor(t, 10*time.Second, "mid-stream chunks", func() bool { return chunksSeen.Load() >= 8 })
	downCfg := upFaults.Config()
	downCfg.ErrorRate = 1
	upFaults.SetConfig(downCfg)
	staleSum := func() int64 { return counterSum(p, "cdn_stale_serves_total") }
	staleBefore := staleSum()
	waitFor(t, 5*time.Second, "stale serves while origin down", func() bool { return staleSum() > staleBefore })
	// With the origin unreachable a direct poll must still succeed.
	clean := &hls.Client{BaseURL: edgeURL}
	if cl, err := clean.FetchChunkList(ctx, grant.BroadcastID, 0); err != nil {
		t.Fatalf("poll while origin down: %v (want stale chunklist)", err)
	} else if len(cl.Chunks) == 0 {
		t.Fatal("stale chunklist is empty")
	}
	upFaults.SetConfig(faults.Config{
		ErrorRate:   0.15,
		LatencyRate: 0.10,
		LatencyMin:  500 * time.Microsecond,
		LatencyMax:  2 * time.Millisecond,
	})

	// The broadcast must complete end-to-end despite everything above.
	select {
	case err := <-pubErr:
		if err != nil {
			t.Fatalf("publisher: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("publisher never finished")
	}
	select {
	case err := <-hlsPollErr:
		if err != nil {
			t.Fatalf("HLS poll: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("HLS poller never saw the end marker (chunks seen: %d/%d)", chunksSeen.Load(), totalChunks)
	}
	select {
	case <-rtmpDone:
	case <-time.After(15 * time.Second):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("RTMP viewer frame channel never closed\n%s", buf)
	}
	select {
	case err := <-psDone:
		if err != nil {
			t.Fatalf("pubsub consumer: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("pubsub consumer never saw channel close (events: %d/%d)", eventsSeen.Load(), totalEvents)
	}

	// RTMP viewer: resumed past the deterministic reset, stream strictly
	// ordered, stall ratio bounded (gaps during redials allowed).
	if err := rv.Err(); err != nil {
		t.Fatalf("resilient viewer terminal err = %v, want clean end", err)
	}
	if rv.Reconnects() < 1 {
		t.Fatalf("Reconnects = %d, want ≥ 1 after forced reset", rv.Reconnects())
	}
	for i := 1; i < len(rtmpSeqs); i++ {
		if rtmpSeqs[i] <= rtmpSeqs[i-1] {
			t.Fatalf("seq %d after %d: duplicate or reordered frame", rtmpSeqs[i], rtmpSeqs[i-1])
		}
	}
	if len(rtmpSeqs) < totalFrames/2 {
		t.Fatalf("RTMP viewer stall ratio too high: received %d/%d frames", len(rtmpSeqs), totalFrames)
	}
	if last := rtmpSeqs[len(rtmpSeqs)-1]; last < 60 {
		t.Fatalf("RTMP viewer never caught up after reset: last seq %d", last)
	}

	// HLS viewer: bounded stall ratio — at least 80% of chunks observed
	// (the poller catches up from the chunklist after the down window).
	if got := chunksSeen.Load(); got < int64(totalChunks*8/10) {
		t.Fatalf("HLS viewer saw %d/%d chunks", got, totalChunks)
	}
	// Pubsub: retries make delivery exact, not just eventual — injected
	// transport errors fire before the request is forwarded, so retried
	// publishes never duplicate.
	if got := eventsSeen.Load(); got != totalEvents {
		t.Fatalf("pubsub consumer saw %d/%d events", got, totalEvents)
	}

	// The run only counts if the injectors actually fired on every hop.
	for name, inj := range map[string]*faults.Injector{
		"origin-edge": upFaults, "hls": hlsFaults, "pubsub": psFaults, "rtmp-conn": viewerFaults,
	} {
		if inj.Stats().Total() == 0 {
			t.Errorf("%s injector never fired — chaos run is vacuous", name)
		}
	}

	// Every paper delay component must have registered observations in the
	// platform's shared registry by the end of the soak: chunking at the
	// origins, origin→edge on upstream pulls, polling and buffering at the
	// HLS viewer (Fig. 11's decomposition, live rather than simulated).
	snap := p.Metrics().Snapshot()
	histCount := func(name string) int64 {
		var n int64
		for _, h := range snap.Histograms {
			if h.Name == name {
				n += h.Count
			}
		}
		return n
	}
	for _, name := range []string{
		metrics.DelayChunking,
		metrics.DelayOriginEdge,
		metrics.DelayPolling,
		metrics.DelayBuffering,
	} {
		if histCount(name) == 0 {
			t.Errorf("histogram %s has no observations after chaos soak", name)
		}
	}

	// Control-plane accounting converges.
	waitFor(t, 5*time.Second, "live count drains", func() bool { return p.Ctrl.LiveCount() == 0 })
}

// soakFramePace is the wall-clock gap the exactly-once soaks leave between
// published frames: real time. A 200 ms chunk then takes 200 ms to fill and
// the six-entry playlist window is 1.2 s of wall time, so a viewer
// descheduled for a few hundred milliseconds (-race beside a CPU hog) still
// finds its next chunk listed. Do not speed it up to shorten the soaks: at an
// 8 ms pace (a 240 ms window) the origin-crash soak skipped a chunk 4 runs in
// 60.
const soakFramePace = media.FrameDuration

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
