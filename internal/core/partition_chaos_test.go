package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/rtmp"
	"repro/internal/testutil"
)

// soakViewers runs n HLS failover-polling viewers against a broadcast and
// returns the per-viewer runs plus a floor function over chunks seen — the
// shared machinery of the control-outage and partition soaks.
type soakViewer struct {
	fp    *hls.FailoverPoller
	seqs  []uint64
	ended atomic.Bool
	mu    sync.Mutex
}

func launchSoakViewers(ctx context.Context, n int, broadcastID string, resolve func(context.Context) (string, error)) ([]*soakViewer, chan error) {
	runs := make([]*soakViewer, n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		vr := &soakViewer{}
		runs[i] = vr
		cfg := hls.FailoverConfig{
			Resolve: resolve,
			NewClient: func(baseURL string) *hls.Client {
				return &hls.Client{
					BaseURL:       baseURL,
					Timeout:       2 * time.Second,
					Retry:         resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
					RetryAfterCap: 5 * time.Millisecond,
				}
			},
			Poller: hls.PollerConfig{
				Interval: 20 * time.Millisecond,
				OnChunk: func(ev hls.ChunkEvent) {
					vr.mu.Lock()
					vr.seqs = append(vr.seqs, ev.Ref.Seq)
					vr.mu.Unlock()
				},
			},
			FailureThreshold: 2,
			MaxFailovers:     -1,
			Backoff:          resilience.Policy{BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		}
		vr.fp = hls.NewFailoverPoller(broadcastID, cfg)
		go func(vr *soakViewer) {
			err := vr.fp.Run(ctx)
			vr.ended.Store(err == nil) // Run returns nil only at the end marker
			errs <- err
		}(vr)
	}
	return runs, errs
}

func minChunksSeen(runs []*soakViewer) int {
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

// assertExactlyOnce requires every viewer to have seen the end marker and
// every chunk sequence 0..total-1 exactly once, in order.
func assertExactlyOnce(t *testing.T, runs []*soakViewer, total int) {
	t.Helper()
	for i, vr := range runs {
		if !vr.ended.Load() {
			t.Errorf("viewer %d never saw the end marker", i)
		}
		vr.mu.Lock()
		seqs := append([]uint64(nil), vr.seqs...)
		vr.mu.Unlock()
		if len(seqs) != total {
			t.Errorf("viewer %d saw %d chunks, want exactly %d", i, len(seqs), total)
			continue
		}
		for j, s := range seqs {
			if s != uint64(j) {
				t.Errorf("viewer %d: seq %d at position %d — gap or duplicate", i, s, j)
				break
			}
		}
	}
}

// TestPlatformControlCrashRecoverySoak kills the control plane mid-broadcast
// — with a torn journal tail — while HLS viewers poll and an RTMP viewer
// watches, and requires live delivery to keep flowing: the data plane never
// consults control per chunk, a new join is refused while established
// sessions stream on, the serving edge drains so every HLS viewer fails over
// against the dead control plane onto its last-known edge, a broadcast that
// ends during the outage is parked and replayed after recovery, and the
// recovered control plane rehydrates every broadcast from its journal
// without ending anything falsely.
func TestPlatformControlCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("control crash-recovery soak under -short")
	}
	testutil.CheckGoroutines(t)

	journals := make(map[string]*journal.Mem)
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:   200 * time.Millisecond,
		RTMPViewerLimit: 1, // one RTMP viewer, everyone else on HLS
		Journal: func(siteID string) journal.Backend {
			m := journal.NewMem()
			journals[siteID] = m
			return m
		},
		EdgeRetry:         resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		HeartbeatInterval: 25 * time.Millisecond,
	})
	if journals["control"] == nil {
		t.Fatal("no journal backend for the control plane")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cc := &control.Client{BaseURL: p.ControlURL()}
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}

	// All registrations happen while control is up; the outage tests the
	// already-admitted population, which is the §4.1 steady state.
	alice, err := cc.Register(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := cc.Register(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	carol, err := cc.Register(ctx, "carol")
	if err != nil {
		t.Fatal(err)
	}
	dave, err := cc.Register(ctx, "dave")
	if err != nil {
		t.Fatal(err)
	}

	grant, err := cc.StartBroadcast(ctx, alice, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	grant2, err := cc.StartBroadcast(ctx, bob, ashburn)
	if err != nil {
		t.Fatal(err)
	}

	// Publishers. b1 streams across the whole soak; b2 is short and ends
	// during the outage, exercising the parked-end replay.
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		t.Fatal(err)
	}

	// RTMP viewer: joins while control is up — before any frame flows, so
	// its exactly-once check covers the full stream — then must ride
	// through the outage on its established connection.
	vg, err := cc.Join(ctx, carol, grant.BroadcastID, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	if vg.Protocol != control.ProtoRTMP {
		t.Fatalf("first viewer protocol = %s, want RTMP", vg.Protocol)
	}
	rv, err := rtmp.SubscribeResilient(ctx, vg.RTMPAddr, grant.BroadcastID, "", rtmp.ReconnectConfig{
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
		for rf := range rv.Frames() {
			rtmpSeqs = append(rtmpSeqs, rf.Frame.Seq)
		}
	}()
	pub2, err := rtmp.Publish(ctx, grant2.RTMPAddr, grant2.BroadcastID, grant2.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc2 := media.NewEncoder(media.EncoderConfig{}, rng.New(7))
	base2 := time.Now()
	for i := 0; i < 10; i++ {
		f := enc2.Next(base2.Add(time.Duration(i) * media.FrameDuration))
		if err := pub2.Send(&f); err != nil {
			t.Fatalf("b2 send frame %d: %v", i, err)
		}
	}

	const totalFrames = 150
	framesPerChunk := int(200 * time.Millisecond / media.FrameDuration)
	totalChunks := totalFrames / framesPerChunk
	pubErr := make(chan error, 1)
	go func() {
		enc := media.NewEncoder(media.EncoderConfig{}, rng.New(33))
		base := time.Now()
		for i := 0; i < totalFrames; i++ {
			f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
			if err := pub.Send(&f); err != nil {
				pubErr <- fmt.Errorf("send frame %d: %w", i, err)
				return
			}
			time.Sleep(soakFramePace)
		}
		pubErr <- pub.End()
	}()

	servingEdge := p.Topo.NearestEdge(ashburn)
	warm := &hls.Client{BaseURL: p.EdgeURL(servingEdge), Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	waitFor(t, 10*time.Second, "first chunk at the edge", func() bool {
		cl, err := warm.FetchChunkList(ctx, grant.BroadcastID, 0)
		return err == nil && len(cl.Chunks) > 0
	})

	const viewers = 20
	runs, viewerErrs := launchSoakViewers(ctx, viewers, grant.BroadcastID, func(ctx context.Context) (string, error) {
		return cc.ResolveEdge(ctx, grant.BroadcastID, ashburn)
	})

	// The outage: crash control mid-broadcast and tear its journal tail —
	// the torn write of the crash moment.
	waitFor(t, 15*time.Second, "viewers mid-stream before the crash", func() bool { return minChunksSeen(runs) >= 6 })
	for i, vr := range runs {
		if got, want := vr.fp.BaseURL(), p.EdgeURL(servingEdge); got != want {
			t.Fatalf("viewer %d polls %q, want the serving edge %q", i, got, want)
		}
	}
	p.KillControl()
	journals["control"].CorruptTail(3)

	// API calls answer ErrUnavailable: a new session waits for recovery.
	if _, err := cc.ResolveEdge(ctx, grant.BroadcastID, ashburn); !errors.Is(err, control.ErrUnavailable) {
		t.Fatalf("ResolveEdge during the outage = %v, want ErrUnavailable", err)
	}
	if _, err := cc.Join(ctx, dave, grant.BroadcastID, ashburn); !errors.Is(err, control.ErrUnavailable) {
		t.Fatalf("Join during the outage = %v, want ErrUnavailable", err)
	}

	// Drain the serving edge: every viewer must re-resolve against the dead
	// control plane, fall back to its last-known edge and stream on.
	if err := p.DrainEdge(servingEdge.Site().ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "every viewer re-resolving against the dead control plane", func() bool {
		for _, vr := range runs {
			if vr.fp.StaleResolves() == 0 {
				return false
			}
		}
		return true
	})

	// b2 ends while control is down: the data plane stops immediately, and
	// the control-plane end parks for replay.
	if err := pub2.End(); err != nil {
		t.Fatalf("b2 end: %v", err)
	}
	waitFor(t, 5*time.Second, "b2's end parked for replay", func() bool {
		p.mu.Lock()
		n := len(p.pendingEnds)
		p.mu.Unlock()
		return n == 1
	})

	// Live delivery never stalls: both HLS and RTMP progress while control
	// is down.
	before := minChunksSeen(runs)
	waitFor(t, 15*time.Second, "chunks flowing through the outage", func() bool {
		return minChunksSeen(runs) >= before+3
	})

	p.RestartControl()

	// Recovery: journal replay rehydrates both broadcasts, then the parked
	// end lands — b1 live, b2 dead, nothing falsely ended either way.
	waitFor(t, 5*time.Second, "live count settles to b1 only", func() bool { return p.Ctrl.LiveCount() == 1 })

	// The broadcast completes end-to-end across the outage.
	select {
	case err := <-pubErr:
		if err != nil {
			t.Fatalf("publisher: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("publisher never finished")
	}
	for i := 0; i < viewers; i++ {
		select {
		case err := <-viewerErrs:
			if err != nil {
				t.Fatalf("failover viewer: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("a failover viewer never terminated (min chunks seen: %d/%d)", minChunksSeen(runs), totalChunks)
		}
	}
	assertExactlyOnce(t, runs, totalChunks)
	select {
	case <-rtmpDone:
	case <-time.After(60 * time.Second):
		t.Fatal("RTMP viewer never saw the stream end")
	}
	if len(rtmpSeqs) != totalFrames {
		t.Errorf("RTMP viewer saw %d frames, want exactly %d", len(rtmpSeqs), totalFrames)
	}
	for j, s := range rtmpSeqs {
		if s != uint64(j) {
			t.Errorf("RTMP viewer: frame seq %d at position %d — gap or duplicate", s, j)
			break
		}
	}

	// Instruments: recovery latency observed, the torn tail detected, the
	// journal replayed, and every viewer's outage failover counted.
	var recovered bool
	for _, h := range p.Metrics().Snapshot().Histograms {
		if h.Name == "control_recovery_seconds" && h.Count >= 1 {
			recovered = true
		}
	}
	if !recovered {
		t.Error("control_recovery_seconds histogram never observed a recovery")
	}
	if v := metricCounter(p, "journal_corrupt_tails_total", "control"); v < 1 {
		t.Errorf("journal_corrupt_tails_total{site=control} = %d, want >= 1", v)
	}
	if v := metricCounter(p, "journal_replayed_records_total", "control"); v <= 0 {
		t.Errorf("journal_replayed_records_total{site=control} = %d, want > 0", v)
	}
	for i, vr := range runs {
		if vr.fp.StaleResolves() == 0 || vr.fp.Failovers() == 0 {
			t.Errorf("viewer %d: hls_stale_resolves_total = %d, hls_failovers_total = %d, want both > 0",
				i, vr.fp.StaleResolves(), vr.fp.Failovers())
		}
	}

	waitFor(t, 5*time.Second, "live count drains", func() bool { return p.Ctrl.LiveCount() == 0 })
}

// TestPlatformControlEdgePartitionSoak cuts the serving edge's heartbeat path
// to the control plane mid-broadcast — asymmetrically, the way real routing
// failures land — and simultaneously partitions the origins from control. The
// health detector must walk the unreachable nodes down (they look dead from
// control), yet delivery never stalls: viewers keep pulling chunks from the
// "down" edge, the origin admits a new RTMP viewer from its grant cache, and
// the broadcast is never falsely ended. Healing walks everything back.
func TestPlatformControlEdgePartitionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("control↔edge partition soak under -short")
	}
	testutil.CheckGoroutines(t)

	parts := netsim.NewPartitions()
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:     200 * time.Millisecond,
		RTMPViewerLimit:   2, // two RTMP viewers: one pre-cut, one mid-cut
		Partitions:        parts,
		EdgeRetry:         resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		HeartbeatInterval: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cc := &control.Client{BaseURL: p.ControlURL()}
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}

	alice, err := cc.Register(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	carol, err := cc.Register(ctx, "carol")
	if err != nil {
		t.Fatal(err)
	}
	dave, err := cc.Register(ctx, "dave")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := cc.StartBroadcast(ctx, alice, ashburn)
	if err != nil {
		t.Fatal(err)
	}

	const totalFrames = 150
	framesPerChunk := int(200 * time.Millisecond / media.FrameDuration)
	totalChunks := totalFrames / framesPerChunk
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		t.Fatal(err)
	}

	// RTMP viewer 1 subscribes before any frame flows, so its exactly-once
	// check covers the full stream. Its authorize also warms the origin's
	// grant cache for the (broadcast, viewer) key viewer 2 reuses mid-cut.
	vg, err := cc.Join(ctx, carol, grant.BroadcastID, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	if vg.Protocol != control.ProtoRTMP {
		t.Fatalf("first viewer protocol = %s, want RTMP", vg.Protocol)
	}
	rv, err := rtmp.SubscribeResilient(ctx, vg.RTMPAddr, grant.BroadcastID, "", rtmp.ReconnectConfig{
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
		for rf := range rv.Frames() {
			rtmpSeqs = append(rtmpSeqs, rf.Frame.Seq)
		}
	}()

	pubErr := make(chan error, 1)
	go func() {
		enc := media.NewEncoder(media.EncoderConfig{}, rng.New(33))
		base := time.Now()
		for i := 0; i < totalFrames; i++ {
			f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
			if err := pub.Send(&f); err != nil {
				pubErr <- fmt.Errorf("send frame %d: %w", i, err)
				return
			}
			time.Sleep(soakFramePace)
		}
		pubErr <- pub.End()
	}()

	servingEdge := p.Topo.NearestEdge(ashburn)
	edgeNode := healthNodeID("edge", servingEdge.Site().ID)
	warm := &hls.Client{BaseURL: p.EdgeURL(servingEdge), Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	waitFor(t, 10*time.Second, "first chunk at the edge", func() bool {
		cl, err := warm.FetchChunkList(ctx, grant.BroadcastID, 0)
		return err == nil && len(cl.Chunks) > 0
	})

	const viewers = 20
	runs, viewerErrs := launchSoakViewers(ctx, viewers, grant.BroadcastID, func(ctx context.Context) (string, error) {
		return cc.ResolveEdge(ctx, grant.BroadcastID, ashburn)
	})

	// The partition, orchestrated by the seeded scheduler: the serving
	// edge's heartbeat link to control goes dark in one direction only.
	waitFor(t, 15*time.Second, "viewers mid-stream before the cut", func() bool { return minChunksSeen(runs) >= 6 })
	links := make([]netsim.Link, len(p.Topo.Edges))
	planned := -1
	for i, e := range p.Topo.Edges {
		links[i] = netsim.Link{From: healthNodeID("edge", e.Site().ID), To: "control"}
		if e.Site().ID == servingEdge.Site().ID {
			planned = i
		}
	}
	if planned < 0 {
		t.Fatal("serving edge not in topology")
	}
	ps := faults.NewPartitionScheduler(faults.PartitionPlan{
		Link:     planned,
		Duration: 1200 * time.Millisecond,
	}, parts, links)
	schedErr := make(chan error, 1)
	go func() { schedErr <- ps.Run(ctx) }()

	// The origins lose control too — the role-level link gates both their
	// heartbeats and the auth path's live lookups.
	parts.Cut("origin", "control")

	// From control's side the partitioned nodes look dead...
	waitFor(t, 5*time.Second, "detector marks the partitioned edge down", func() bool {
		st, ok := p.Health.State(edgeNode)
		return ok && st == health.StateDown
	})
	// ...but a viewer-side join still lands (viewer→control is healthy) and
	// the origin admits it from its grant cache, never reaching control.
	vg2, err := cc.Join(ctx, dave, grant.BroadcastID, ashburn)
	if err != nil {
		t.Fatalf("join during the partition: %v", err)
	}
	if vg2.Protocol != control.ProtoRTMP {
		t.Fatalf("second viewer protocol = %s, want RTMP", vg2.Protocol)
	}
	rv2, err := rtmp.SubscribeResilient(ctx, vg2.RTMPAddr, grant.BroadcastID, "", rtmp.ReconnectConfig{
		Backoff:       resilience.Policy{BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		MaxReconnects: -1,
	})
	if err != nil {
		t.Fatalf("subscribe during the partition: %v", err)
	}
	defer rv2.Close()
	var rtmp2Mu sync.Mutex
	var rtmp2Seqs []uint64
	rtmp2Done := make(chan struct{})
	go func() {
		defer close(rtmp2Done)
		for rf := range rv2.Frames() {
			rtmp2Mu.Lock()
			rtmp2Seqs = append(rtmp2Seqs, rf.Frame.Seq)
			rtmp2Mu.Unlock()
		}
	}()
	if v := counterSum(p, "control_stale_served_total"); v <= 0 {
		t.Errorf("control_stale_served_total = %d, want > 0 (mid-cut admit must come from the cache)", v)
	}

	// Delivery keeps flowing from the "down" edge, and the broadcast is
	// never falsely ended.
	before := minChunksSeen(runs)
	waitFor(t, 15*time.Second, "chunks flowing through the partition", func() bool {
		return minChunksSeen(runs) >= before+3
	})
	if n := p.Ctrl.LiveCount(); n != 1 {
		t.Errorf("live count during the partition = %d, want 1 (partition must not end the broadcast)", n)
	}

	select {
	case err := <-schedErr:
		if err != nil {
			t.Fatalf("partition scheduler: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("partition scheduler never completed")
	}
	parts.Heal("origin", "control")
	if st := ps.Stats(); st.Cuts != 1 || st.Heals != 1 {
		t.Fatalf("scheduler stats = %+v, want one cut and one heal", st)
	}
	waitFor(t, 5*time.Second, "detector walks the healed edge back to healthy", func() bool {
		st, ok := p.Health.State(edgeNode)
		return ok && st == health.StateHealthy
	})

	// The broadcast completes end-to-end across the partition.
	select {
	case err := <-pubErr:
		if err != nil {
			t.Fatalf("publisher: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("publisher never finished")
	}
	for i := 0; i < viewers; i++ {
		select {
		case err := <-viewerErrs:
			if err != nil {
				t.Fatalf("failover viewer: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("a failover viewer never terminated (min chunks seen: %d/%d)", minChunksSeen(runs), totalChunks)
		}
	}
	assertExactlyOnce(t, runs, totalChunks)
	select {
	case <-rtmpDone:
	case <-time.After(60 * time.Second):
		t.Fatal("RTMP viewer 1 never saw the stream end")
	}
	if len(rtmpSeqs) != totalFrames {
		t.Errorf("RTMP viewer 1 saw %d frames, want exactly %d", len(rtmpSeqs), totalFrames)
	}
	for j, s := range rtmpSeqs {
		if s != uint64(j) {
			t.Errorf("RTMP viewer 1: frame seq %d at position %d — gap or duplicate", s, j)
			break
		}
	}
	select {
	case <-rtmp2Done:
	case <-time.After(60 * time.Second):
		t.Fatal("RTMP viewer 2 never saw the stream end")
	}
	// Viewer 2 joined mid-stream: its view must be gapless and duplicate-
	// free from its first frame onward.
	rtmp2Mu.Lock()
	seqs2 := append([]uint64(nil), rtmp2Seqs...)
	rtmp2Mu.Unlock()
	if len(seqs2) == 0 {
		t.Error("RTMP viewer 2 never received a frame")
	}
	for j := 1; j < len(seqs2); j++ {
		if seqs2[j] != seqs2[j-1]+1 {
			t.Errorf("RTMP viewer 2: seq %d follows %d — gap or duplicate", seqs2[j], seqs2[j-1])
			break
		}
	}

	waitFor(t, 5*time.Second, "live count drains", func() bool { return p.Ctrl.LiveCount() == 0 })
}
