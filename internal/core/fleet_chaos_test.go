package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/rtmp"
	"repro/internal/testutil"
)

// TestPlatformFleetChaosSoak drives one broadcast through the assembled
// platform while the fleet degrades around the viewers: the edge serving
// them is killed outright (crash), the failover target is later drained
// (graceful wind-down), and an overload burst forces load shedding — all at
// a 10% background fault rate on the HLS path. Every failover-polling viewer
// must still receive chunks through end-of-stream with strictly increasing
// sequence numbers (gaps allowed, duplicates never), the detector must walk
// the killed edge to Down and hold the drained one at Draining, and the
// Sheds / Failovers / HeartbeatMisses counters must all move.
func TestPlatformFleetChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos soak under -short")
	}
	testutil.CheckGoroutines(t)

	// Origin↔edge hop at a 10% background fault rate, with a test-controlled
	// gate in front: closing the gate parks one pull upstream so the
	// overload phase can pin the target edge's only inflight slot
	// deterministically.
	upGate := &upstreamGate{arrived: make(chan struct{}, 1)}
	upFaults := faults.New(faults.Config{
		Seed:        43,
		ErrorRate:   0.10,
		LatencyRate: 0.05,
		LatencyMin:  200 * time.Microsecond,
		LatencyMax:  time.Millisecond,
	})
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:   200 * time.Millisecond,
		RTMPViewerLimit: 1, // push every test viewer onto the HLS path
		WrapUpstream: func(s hls.Store) hls.Store {
			return &gatedStore{inner: upFaults.Store(s), g: upGate}
		},
		EdgeRetry: resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		// Fast detector so kill → down fits the soak: 25 ms beats, suspect
		// after 2 silent intervals, down after 4 (~100 ms).
		HeartbeatInterval: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cc := &control.Client{BaseURL: p.ControlURL()}

	uid, err := cc.Register(ctx, "fleet-chaos")
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

	// Publisher: 150 frames at 8 ms pace (~1.2 s of wall time, 30 chunks
	// at 5 frames per 200 ms chunk) so the kill, overload, and drain
	// phases all land mid-stream.
	const totalFrames = 150
	framesPerChunk := int(200 * time.Millisecond / media.FrameDuration)
	totalChunks := totalFrames / framesPerChunk
	pubErr := make(chan error, 1)
	go func() {
		enc := media.NewEncoder(media.EncoderConfig{}, rng.New(21))
		base := time.Now()
		for i := 0; i < totalFrames; i++ {
			f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
			if err := pub.Send(&f); err != nil {
				pubErr <- fmt.Errorf("send frame %d: %w", i, err)
				return
			}
			time.Sleep(8 * time.Millisecond)
		}
		pubErr <- pub.End()
	}()

	// Identify the fleet: viewers near Ashburn land on fastly-ashburn,
	// fail over to fastly-london when it dies, and migrate to fastly-tokyo
	// when london drains.
	servingEdge := p.EdgeByID("fastly-ashburn")
	failoverEdge := p.EdgeByID("fastly-london")
	lastEdge := p.EdgeByID("fastly-tokyo")
	if servingEdge == nil || failoverEdge == nil || lastEdge == nil {
		t.Fatal("expected small-site edge fleet missing")
	}
	if got := p.Topo.NearestEdge(ashburn); got != servingEdge {
		t.Fatalf("NearestEdge(ashburn) = %s", got.Site().ID)
	}

	// Wait for the first chunk to reach the serving edge before starting
	// viewers, so a not-yet-ingested broadcast is not mistaken for a gone
	// one.
	warm := &hls.Client{BaseURL: p.EdgeURL(servingEdge), Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	waitFor(t, 10*time.Second, "first chunk at the edge", func() bool {
		cl, err := warm.FetchChunkList(ctx, grant.BroadcastID, 0)
		return err == nil && len(cl.Chunks) > 0
	})

	// Three failover-polling viewers, each with its own 10% fault injector
	// on the viewer↔edge HTTP hop and a control-plane re-resolve loop.
	const viewers = 3
	type viewerRun struct {
		fp    *hls.FailoverPoller
		seqs  []uint64
		ended atomic.Bool
		mu    sync.Mutex
	}
	runs := make([]*viewerRun, viewers)
	viewerInjectors := make([]*faults.Injector, viewers)
	viewerErrs := make(chan error, viewers)
	minSeen := func() int {
		m := int(^uint(0) >> 1)
		for _, vr := range runs {
			vr.mu.Lock()
			n := len(vr.seqs)
			vr.mu.Unlock()
			if n < m {
				m = n
			}
		}
		return m
	}
	for i := 0; i < viewers; i++ {
		vr := &viewerRun{}
		runs[i] = vr
		inj := faults.New(faults.Config{
			Seed:        100 + uint64(i),
			ErrorRate:   0.10, // the 10% background fault rate
			LatencyRate: 0.05,
			LatencyMin:  200 * time.Microsecond,
			LatencyMax:  time.Millisecond,
		})
		viewerInjectors[i] = inj
		cfg := hls.FailoverConfig{
			Resolve: func(ctx context.Context) (string, error) {
				return cc.ResolveEdge(ctx, grant.BroadcastID, ashburn)
			},
			NewClient: func(baseURL string) *hls.Client {
				return &hls.Client{
					BaseURL:       baseURL,
					HTTPClient:    inj.Client(nil),
					Timeout:       2 * time.Second,
					Retry:         resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
					RetryAfterCap: 5 * time.Millisecond,
				}
			},
			Poller: hls.PollerConfig{
				Interval: 15 * time.Millisecond,
				OnChunk: func(ev hls.ChunkEvent) {
					vr.mu.Lock()
					vr.seqs = append(vr.seqs, ev.Ref.Seq)
					vr.mu.Unlock()
				},
			},
			FailureThreshold: 2,
			MaxFailovers:     -1, // the re-resolve may hand back a dying edge for a few beats
			Backoff:          resilience.Policy{BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		}
		vr.fp = hls.NewFailoverPoller(grant.BroadcastID, cfg)
		go func(vr *viewerRun) {
			err := vr.fp.Run(ctx)
			vr.ended.Store(err == nil) // Run returns nil only at the end marker
			viewerErrs <- err
		}(vr)
	}

	// Phase 1 — kill the serving edge mid-broadcast. Its heartbeats stop,
	// the detector walks it suspect → down, Join/ResolveEdge stop handing
	// it out, and every viewer fails over.
	waitFor(t, 10*time.Second, "viewers mid-stream before the kill", func() bool { return minSeen() >= 4 })
	if err := p.KillEdge(servingEdge.Site().ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "detector marks the killed edge down", func() bool {
		st, ok := p.Health.State("edge:fastly-ashburn")
		return ok && st == health.StateDown
	})
	waitFor(t, 5*time.Second, "assignment moves off the killed edge", func() bool {
		return p.Topo.NearestEdge(ashburn) == failoverEdge
	})

	// Phase 2 — overload the failover edge: clamp it to one inflight
	// request with a single queue slot, park a chunk fetch on the gated
	// upstream so that slot stays pinned, then fire 40 concurrent fetches.
	// All of them must be shed with the overload error.
	waitFor(t, 10*time.Second, "viewers resumed on the failover edge", func() bool { return minSeen() >= 8 })
	failoverEdge.SetLimits(1, 1, time.Millisecond)
	upGate.block()
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		// An uncached far-future chunk forces an upstream pull, which parks
		// on the gate while holding the edge's only inflight slot.
		_, _ = failoverEdge.Chunk(ctx, grant.BroadcastID, 1<<40)
	}()
	select {
	case <-upGate.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("slot-pinning fetch never reached the gated upstream")
	}
	var burstSheds, burstOK atomic.Int64
	var burst sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 40; i++ {
		burst.Add(1)
		go func() {
			defer burst.Done()
			<-start
			_, err := failoverEdge.ChunkList(ctx, grant.BroadcastID)
			switch {
			case errors.Is(err, hls.ErrOverloaded):
				burstSheds.Add(1)
			case err == nil:
				burstOK.Add(1)
			}
		}()
	}
	close(start)
	burst.Wait()
	failoverEdge.SetLimits(0, 0, 0) // lift the clamp so viewers recover
	upGate.open()
	select {
	case <-holderDone:
	case <-time.After(5 * time.Second):
		t.Fatal("slot-pinning fetch never returned after the gate opened")
	}
	if burstSheds.Load() == 0 {
		t.Fatalf("overload burst produced no sheds (ok=%d)", burstOK.Load())
	}
	if metricCounter(p, "cdn_sheds_total", failoverEdge.Site().ID) == 0 {
		t.Fatal("edge cdn_sheds_total counter never moved during the overload phase")
	}

	// Phase 3 — drain the failover edge. It keeps serving but hints every
	// response; viewers migrate to the last healthy sibling without losing
	// the stream.
	waitFor(t, 10*time.Second, "viewers past the overload phase", func() bool { return minSeen() >= 12 })
	if err := p.DrainEdge(failoverEdge.Site().ID); err != nil {
		t.Fatal(err)
	}
	if st, ok := p.Health.State("edge:fastly-london"); !ok || st != health.StateDraining {
		t.Fatalf("drained edge state = %v, want draining", st)
	}
	waitFor(t, 5*time.Second, "assignment moves off the draining edge", func() bool {
		return p.Topo.NearestEdge(ashburn) == lastEdge
	})

	// The broadcast completes end-to-end despite the fleet churn.
	select {
	case err := <-pubErr:
		if err != nil {
			t.Fatalf("publisher: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("publisher never finished")
	}
	for i := 0; i < viewers; i++ {
		select {
		case err := <-viewerErrs:
			if err != nil {
				t.Fatalf("failover viewer: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("a failover viewer never terminated (min chunks seen: %d/%d)", minSeen(), totalChunks)
		}
	}

	// Every viewer: end marker seen, strictly increasing sequences (no
	// dupes, no reordering), and at least 80% chunk coverage.
	var totalFailovers, totalDrainHints int64
	for i, vr := range runs {
		if !vr.ended.Load() {
			t.Errorf("viewer %d never saw the end marker", i)
		}
		vr.mu.Lock()
		seqs := append([]uint64(nil), vr.seqs...)
		vr.mu.Unlock()
		for j := 1; j < len(seqs); j++ {
			if seqs[j] <= seqs[j-1] {
				t.Errorf("viewer %d: seq %d after %d — duplicate or reordered", i, seqs[j], seqs[j-1])
			}
		}
		if len(seqs) < totalChunks*8/10 {
			t.Errorf("viewer %d saw %d/%d chunks", i, len(seqs), totalChunks)
		}
		totalFailovers += vr.fp.Failovers()
		totalDrainHints += vr.fp.DrainHints()
	}
	if totalFailovers == 0 {
		t.Error("no viewer ever failed over despite a killed and a drained edge")
	}
	if totalDrainHints == 0 {
		t.Error("no viewer ever saw a drain hint from the draining edge")
	}

	// Fleet-health counters and terminal states.
	if p.Health.Stats().HeartbeatMisses.Load() == 0 {
		t.Error("HeartbeatMisses never moved despite a killed edge")
	}
	if st, _ := p.Health.State("edge:fastly-ashburn"); st != health.StateDown {
		t.Errorf("killed edge final state = %v, want down", st)
	}
	if st, _ := p.Health.State("edge:fastly-london"); st != health.StateDraining {
		t.Errorf("drained edge final state = %v, want draining", st)
	}
	if st, _ := p.Health.State("edge:fastly-tokyo"); st != health.StateHealthy {
		t.Errorf("surviving edge state = %v, want healthy", st)
	}

	// The background injectors actually fired — the soak was not vacuous.
	injected := upFaults.Stats().Total()
	for _, inj := range viewerInjectors {
		injected += inj.Stats().Total()
	}
	if injected == 0 {
		t.Error("fault injectors never fired — chaos run is vacuous")
	}

	// The /fleet endpoint publishes the same picture.
	resp, err := http.Get(p.BaseURL() + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fleet struct {
		Nodes []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	states := make(map[string]string, len(fleet.Nodes))
	for _, n := range fleet.Nodes {
		states[n.ID] = n.State
	}
	if states["edge:fastly-ashburn"] != "down" || states["edge:fastly-london"] != "draining" {
		t.Errorf("/fleet states = %v", states)
	}

	waitFor(t, 5*time.Second, "live count drains", func() bool { return p.Ctrl.LiveCount() == 0 })
}

// upstreamGate lets the fleet soak park upstream pulls on demand: while
// blocked, any store call waits (signalling arrival once) until the gate
// reopens or the caller's context ends.
type upstreamGate struct {
	mu      sync.Mutex
	blocked chan struct{} // non-nil → calls park until it closes
	arrived chan struct{} // capacity 1; signalled when a call parks
}

func (g *upstreamGate) block() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blocked = make(chan struct{})
}

func (g *upstreamGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.blocked != nil {
		close(g.blocked)
		g.blocked = nil
	}
}

func (g *upstreamGate) wait(ctx context.Context) error {
	g.mu.Lock()
	ch := g.blocked
	g.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case g.arrived <- struct{}{}:
	default:
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// gatedStore interposes the gate in front of an upstream store.
type gatedStore struct {
	inner hls.Store
	g     *upstreamGate
}

func (s *gatedStore) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	if err := s.g.wait(ctx); err != nil {
		return nil, err
	}
	return s.inner.ChunkList(ctx, id)
}

func (s *gatedStore) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	if err := s.g.wait(ctx); err != nil {
		return nil, err
	}
	return s.inner.Chunk(ctx, id, seq)
}
