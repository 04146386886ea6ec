package core

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
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
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/rtmp"
	"repro/internal/testutil"
)

// TestPlatformOriginCrashRecoverySoak crashes the ingest origin mid-broadcast
// — with a torn journal tail for good measure — while 50 failover-polling
// viewers watch, then restarts it and requires the whole system to stitch the
// broadcast back together: the resilient publisher redials and resumes by
// sequence on the same broadcast ID, journal replay rehydrates every sealed
// chunk (discarding the corrupted tail record), edges re-register for
// invalidation, and every viewer receives every chunk exactly once, in order,
// through the end marker. The detector must walk the origin down and back to
// healthy, and the recovery/journal instruments must all move.
func TestPlatformOriginCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("origin crash-recovery soak under -short")
	}
	testutil.CheckGoroutines(t)

	// Per-site in-memory journals, held by the test so the corruption hook
	// can tear the crashed origin's tail while it is down. Build invokes the
	// provider synchronously inside NewPlatform, so the map is complete (and
	// never written again) before any goroutine reads it.
	journals := make(map[string]*journal.Mem)
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:   200 * time.Millisecond,
		RTMPViewerLimit: 1, // push every test viewer onto the HLS path
		Journal: func(siteID string) journal.Backend {
			m := journal.NewMem()
			journals[siteID] = m
			return m
		},
		EdgeRetry: resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		// Fast detector so kill → down → healthy fits the soak: 25 ms beats,
		// suspect after 2 silent intervals, down after 4 (~100 ms).
		HeartbeatInterval: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cc := &control.Client{BaseURL: p.ControlURL()}

	uid, err := cc.Register(ctx, "crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}
	grant, err := cc.StartBroadcast(ctx, uid, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	originID := grant.OriginID
	if journals[originID] == nil {
		t.Fatalf("no journal backend for assigned origin %s", originID)
	}

	// Resilient publisher: the Resolve hook re-reads the origin's current
	// RTMP address before each redial, since a restart may re-listen on a
	// fresh port. The frame buffer comfortably exceeds frames-per-chunk, so
	// every frame past the journal's replay floor is on hand for resend.
	pub, err := rtmp.PublishResilient(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, rtmp.PublishResilientConfig{
		Resolve:       func() string { return p.RTMPAddr(originID) },
		Backoff:       resilience.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		MaxReconnects: -1, // the origin stays down for several backoff rounds
		BufferFrames:  1024,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Publisher: 150 frames at soakFramePace (30 chunks at 5 frames per
	// 200 ms chunk). Sends stall inside the redial loop while the origin is
	// down, then resume — so the crash always lands mid-broadcast.
	const totalFrames = 150
	framesPerChunk := int(200 * time.Millisecond / media.FrameDuration)
	totalChunks := totalFrames / framesPerChunk
	pubErr := make(chan error, 1)
	go func() {
		enc := media.NewEncoder(media.EncoderConfig{}, rng.New(33))
		base := time.Now()
		for i := 0; i < totalFrames; i++ {
			f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
			if err := pub.Send(ctx, &f); err != nil {
				pubErr <- fmt.Errorf("send frame %d: %w", i, err)
				return
			}
			time.Sleep(soakFramePace)
		}
		pubErr <- pub.End(ctx)
	}()

	// Wait for the first chunk to reach the nearest edge before starting
	// viewers, so a not-yet-ingested broadcast is not mistaken for a gone one.
	servingEdge := p.Topo.NearestEdge(ashburn)
	warm := &hls.Client{BaseURL: p.EdgeURL(servingEdge), Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	waitFor(t, 10*time.Second, "first chunk at the edge", func() bool {
		cl, err := warm.FetchChunkList(ctx, grant.BroadcastID, 0)
		return err == nil && len(cl.Chunks) > 0
	})

	// 50 failover-polling viewers. No background fault injection this time —
	// the origin crash is the chaos — so the delivery invariant is exact:
	// every viewer sees every chunk exactly once, in order.
	const viewers = 50
	type viewerRun struct {
		fp    *hls.FailoverPoller
		seqs  []uint64
		ended atomic.Bool
		mu    sync.Mutex
	}
	runs := make([]*viewerRun, viewers)
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
		cfg := hls.FailoverConfig{
			Resolve: func(ctx context.Context) (string, error) {
				return cc.ResolveEdge(ctx, grant.BroadcastID, ashburn)
			},
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
		vr.fp = hls.NewFailoverPoller(grant.BroadcastID, cfg)
		go func(vr *viewerRun) {
			err := vr.fp.Run(ctx)
			vr.ended.Store(err == nil) // Run returns nil only at the end marker
			viewerErrs <- err
		}(vr)
	}

	// The crash, orchestrated by the seeded scheduler: wait until viewers are
	// mid-stream, kill the ingest origin, tear the last bytes off its journal
	// while it is down (a torn write at the moment of the crash), hold it
	// down long enough for the detector to notice, restart.
	waitFor(t, 15*time.Second, "viewers mid-stream before the crash", func() bool { return minSeen() >= 6 })
	targetIdx := -1
	targets := make([]faults.CrashTarget, len(p.Topo.Origins))
	for i, o := range p.Topo.Origins {
		id := o.Site().ID
		if id == originID {
			targetIdx = i
		}
		targets[i] = faults.CrashTarget{
			Kill:    func() error { return p.KillOrigin(id) },
			Restart: func() error { return p.RestartOrigin(id) },
		}
	}
	if targetIdx < 0 {
		t.Fatalf("assigned origin %s not in topology", originID)
	}
	cs := faults.NewCrashScheduler(faults.CrashPlan{
		Target:   targetIdx,
		Downtime: 600 * time.Millisecond,
		Corrupt:  func(int) { journals[originID].CorruptTail(3) },
	}, targets)
	schedErr := make(chan error, 1)
	go func() { schedErr <- cs.Run(ctx) }()

	// While the origin is down: the detector walks it to down, and the
	// broadcast record at the control plane stays live — the broadcast is
	// interrupted, never force-ended.
	waitFor(t, 5*time.Second, "detector marks the crashed origin down", func() bool {
		st, ok := p.Health.State("origin:" + originID)
		return ok && st == health.StateDown
	})
	if n := p.Ctrl.LiveCount(); n != 1 {
		t.Errorf("live count during the outage = %d, want 1 (crash must not end the broadcast)", n)
	}

	select {
	case err := <-schedErr:
		if err != nil {
			t.Fatalf("crash scheduler: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("crash scheduler never completed")
	}
	if st := cs.Stats(); st.Crashes != 1 || st.Restarts != 1 {
		t.Fatalf("scheduler stats = %+v, want one crash and one restart", st)
	}
	waitFor(t, 5*time.Second, "detector walks the restarted origin back to healthy", func() bool {
		st, ok := p.Health.State("origin:" + originID)
		return ok && st == health.StateHealthy
	})

	// The broadcast completes end-to-end across the crash.
	select {
	case err := <-pubErr:
		if err != nil {
			t.Fatalf("publisher: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("publisher never finished")
	}
	if pub.Reconnects() == 0 {
		t.Error("publisher never reconnected despite the origin crash")
	}
	for i := 0; i < viewers; i++ {
		select {
		case err := <-viewerErrs:
			if err != nil {
				t.Fatalf("failover viewer: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("a failover viewer never terminated (min chunks seen: %d/%d)", minSeen(), totalChunks)
		}
	}

	// The recovery invariant: every viewer saw the end marker and every chunk
	// sequence exactly once, in order — zero gaps, zero duplicates, across
	// the crash and the journal-replayed re-seal.
	for i, vr := range runs {
		if !vr.ended.Load() {
			t.Errorf("viewer %d never saw the end marker", i)
		}
		vr.mu.Lock()
		seqs := append([]uint64(nil), vr.seqs...)
		vr.mu.Unlock()
		if len(seqs) != totalChunks {
			t.Errorf("viewer %d saw %d chunks, want exactly %d", i, len(seqs), totalChunks)
			continue
		}
		for j, s := range seqs {
			if s != uint64(j) {
				t.Errorf("viewer %d: seq %d at position %d — gap or duplicate", i, s, j)
				break
			}
		}
	}

	// Recovery and journal instruments all moved: the crash appended records
	// before it, replay consumed them after it, and the torn tail was
	// detected and discarded.
	snap := p.Metrics().Snapshot()
	counter := func(name string) int64 {
		for _, c := range snap.Counters {
			if c.Name == name && c.Labels["site"] == originID {
				return c.Value
			}
		}
		return -1
	}
	for _, want := range []string{
		"journal_appends_total",
		"journal_batches_total",
		"journal_replayed_records_total",
	} {
		if v := counter(want); v <= 0 {
			t.Errorf("%s{site=%s} = %d, want > 0", want, originID, v)
		}
	}
	if v := counter("journal_corrupt_tails_total"); v < 1 {
		t.Errorf("journal_corrupt_tails_total{site=%s} = %d, want >= 1 (the tail was torn)", originID, v)
	}
	var recovered bool
	for _, h := range snap.Histograms {
		if h.Name == "origin_recovery_seconds" && h.Count >= 1 {
			recovered = true
		}
	}
	if !recovered {
		t.Error("origin_recovery_seconds histogram never observed a recovery")
	}

	// The same series are published over /metrics.
	resp, err := http.Get(p.BaseURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"origin_recovery_seconds", "journal_replayed_records_total", "journal_corrupt_tails_total"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing series %q", want)
		}
	}

	waitFor(t, 5*time.Second, "live count drains", func() bool { return p.Ctrl.LiveCount() == 0 })
}
