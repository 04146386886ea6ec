// Command livesim runs the reproduced livestreaming platform as a server:
// control plane, RTMP origins, HLS edges and the message hub, all bound to
// loopback. With -demo it also spawns synthetic broadcasters and viewers so
// the crawler (cmd/crawl) has something to measure. With -snapshot it boots
// a small platform, drives one scripted broadcast through ingest, the edge,
// an HLS viewer, and the message hub, prints the metrics snapshot, and exits
// — the smoke path `make metrics` runs in CI. With -simday it replays a full
// simulated day of the paper's workload through the viewer event engine
// (internal/viewersim) and prints the Fig. 11 delay decomposition. With
// -tenants N it provisions N tenants with API keys at startup; -demo
// broadcasts then round-robin across those keys and the final per-tenant
// usage rollups print at shutdown.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/pubsub"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

func main() {
	var (
		chunkSecs    = flag.Float64("chunk", 3, "HLS chunk duration in seconds")
		rtmpCap      = flag.Int("rtmp-cap", 100, "RTMP viewer limit per broadcast")
		demo         = flag.Bool("demo", false, "run synthetic broadcasters/viewers")
		demoRate     = flag.Float64("demo-rate", 0.5, "demo broadcasts started per second")
		retention    = flag.Duration("retention", 10*time.Minute, "GC ended broadcasts after this (0 keeps everything)")
		apiRPS       = flag.Float64("api-rps", 0, "per-client control API rate limit (0 = unlimited)")
		whitelist    = flag.String("api-whitelist", "127.0.0.1", "comma-separated hosts exempt from the API limit")
		seed         = flag.Uint64("seed", 1, "random seed")
		snapshot     = flag.Bool("snapshot", false, "run one scripted broadcast on a small platform, print the metrics snapshot, exit")
		metricsEvery = flag.Duration("metrics-every", 0, "log a one-line metrics summary at this interval (0 disables)")
		journalDir   = flag.String("journal-dir", "", "directory for per-origin write-ahead logs; origins recover live broadcasts from them after a crash (empty disables journaling)")
		tenants      = flag.Int("tenants", 0, "provision this many tenants with API keys at startup; -demo broadcasts round-robin across them and final /usage rollups print at shutdown")
		tenantQuota  = flag.Int64("tenant-quota", 1<<30, "per-tenant daily delivered-bytes quota for -tenants plans (0 = unlimited)")
	)
	flag.Parse()
	stopProfiles, err := startProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "livesim: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *snapshot {
		if err := runSnapshot(); err != nil {
			fmt.Fprintf(os.Stderr, "livesim: snapshot: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *simday {
		chunk := time.Duration(*chunkSecs * float64(time.Second))
		if err := runSimday(*seed, chunk, *rtmpCap); err != nil {
			fmt.Fprintf(os.Stderr, "livesim: simday: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := core.PlatformConfig{
		ChunkDuration:   time.Duration(*chunkSecs * float64(time.Second)),
		RTMPViewerLimit: *rtmpCap,
		Retention:       *retention,
		Seed:            *seed,
	}
	if *apiRPS > 0 {
		cfg.APIRate = &control.RateLimiterConfig{
			RequestsPerSecond: *apiRPS,
			Burst:             *apiRPS * 2,
			Whitelist:         strings.Split(*whitelist, ","),
		}
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "livesim: journal dir: %v\n", err)
			os.Exit(1)
		}
		cfg.Journal = func(siteID string) journal.Backend {
			b, err := journal.OpenFile(filepath.Join(*journalDir, siteID+".wal"))
			if err != nil {
				// A site without a journal still streams; it just cannot
				// recover broadcasts across a crash.
				fmt.Fprintf(os.Stderr, "livesim: journal %s: %v\n", siteID, err)
				return nil
			}
			return b
		}
	}
	p := core.NewPlatform(cfg)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := p.Start(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "livesim: %v\n", err)
		os.Exit(1)
	}
	defer p.Stop()

	fmt.Printf("platform up\n")
	fmt.Printf("  control API : %s\n", p.ControlURL())
	fmt.Printf("  messages    : %s\n", p.MessageURL())
	fmt.Printf("  metrics     : %s/metrics (flat: /debug/vars)\n", p.BaseURL())
	fmt.Printf("  origins     : %d RTMP listeners\n", len(p.Topo.Origins))
	fmt.Printf("  edges       : %d HLS caches\n", len(p.Topo.Edges))

	var keys []string
	var tenantIDs []string
	if *tenants > 0 {
		plan := control.Plan{
			Name:                    "livesim",
			MaxConcurrentBroadcasts: 8,
			MaxJoinRPS:              50,
			DailyBytesQuota:         *tenantQuota,
		}
		for i := 1; i <= *tenants; i++ {
			tn, err := p.Ctrl.CreateTenant(fmt.Sprintf("tenant-%d", i), plan)
			if err != nil {
				fmt.Fprintf(os.Stderr, "livesim: create tenant: %v\n", err)
				os.Exit(1)
			}
			key, err := p.Ctrl.IssueAPIKey(tn.ID)
			if err != nil {
				fmt.Fprintf(os.Stderr, "livesim: issue key: %v\n", err)
				os.Exit(1)
			}
			tenantIDs = append(tenantIDs, tn.ID)
			keys = append(keys, key.Key)
			fmt.Printf("  tenant      : %s  key=%s  usage=%s/usage?tenant=%s\n",
				tn.ID, key.Key, p.ControlURL(), tn.ID)
		}
	}

	if *demo {
		go runDemo(ctx, p, *demoRate, *seed, keys)
	}
	if *metricsEvery > 0 {
		go logMetrics(ctx, p, *metricsEvery)
	}
	<-ctx.Done()
	fmt.Println("\nshutting down")
	if len(tenantIDs) > 0 {
		p.Ctrl.FlushUsage()
		for _, id := range tenantIDs {
			days, err := p.Ctrl.Usage(id)
			if err != nil {
				continue
			}
			var frames, chunks, bytes int64
			for _, d := range days {
				frames += d.Frames
				chunks += d.Chunks
				bytes += d.Bytes
			}
			fmt.Printf("usage %s: frames=%d chunks=%d bytes=%d over %d day(s)\n",
				id, frames, chunks, bytes, len(days))
		}
	}
}

// logMetrics prints a one-line summary of the busiest counters each tick —
// enough to watch a demo run converge without scraping /metrics.
func logMetrics(ctx context.Context, p *core.Platform, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		snap := p.Metrics().Snapshot()
		sum := func(name string) int64 {
			var n int64
			for _, c := range snap.Counters {
				if c.Name == name {
					n += c.Value
				}
			}
			return n
		}
		fmt.Printf("metrics: frames_in=%d frames_out=%d chunks=%d hls_polls=%d chunk_pulls=%d publishes=%d\n",
			sum("rtmp_frames_in_total"), sum("rtmp_frames_out_total"),
			sum("cdn_origin_chunks_total"), sum("hls_polls_total"),
			sum("cdn_chunk_pulls_total"), sum("pubsub_publishes_total"))
	}
}

// runSnapshot is the -snapshot mode: one origin, one edge, one broadcast of
// ~4 s content at 200 ms chunks, one HLS viewer with a pre-buffer, a couple
// of hearts through the hub — then the full registry snapshot on stdout.
// Every paper delay-component histogram (chunking, origin→edge, polling,
// buffering) gets live observations on this path.
func runSnapshot() error {
	w, f := geo.WowzaSites(), geo.FastlySites()
	p := core.NewPlatform(core.PlatformConfig{
		OriginSites:   []geo.Datacenter{w[0]},
		EdgeSites:     []geo.Datacenter{f[8]},
		ChunkDuration: 200 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Start(ctx); err != nil {
		return err
	}
	defer p.Stop()

	cc := &control.Client{BaseURL: p.ControlURL()}
	uid, err := cc.Register(ctx, "snapshot")
	if err != nil {
		return err
	}
	loc := w[0].Location
	grant, err := cc.StartBroadcast(ctx, uid, loc)
	if err != nil {
		return err
	}
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		return err
	}

	hc := &hls.Client{BaseURL: p.EdgeURL(p.Topo.NearestEdge(loc)), Metrics: p.Metrics()}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(1))
	mc := &pubsub.Client{BaseURL: grant.MessageURL}
	base := time.Now()
	const frames = 100
	for i := 0; i < frames; i++ {
		fr := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
		if err := pub.Send(&fr); err != nil {
			return fmt.Errorf("send frame %d: %w", i, err)
		}
		if i%25 == 0 {
			if _, err := mc.Publish(ctx, grant.BroadcastID, pubsub.Event{UserID: "v1", Kind: pubsub.KindHeart}); err != nil {
				return fmt.Errorf("publish heart: %w", err)
			}
		}
		// Poll starts only once the edge can serve the first chunk (Poll
		// treats not-found as terminal), below.
		time.Sleep(2 * time.Millisecond)
	}

	// Wait for the edge to have the first chunk, then run the viewer to the
	// end marker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := hc.FetchChunkList(ctx, grant.BroadcastID, 0)
		if err == nil && len(cl.Chunks) > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("edge never served the first chunk: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pollDone := make(chan error, 1)
	go func() {
		pollDone <- hc.Poll(ctx, grant.BroadcastID, hls.PollerConfig{
			Interval:  25 * time.Millisecond,
			PreBuffer: 400 * time.Millisecond,
		})
	}()
	if err := pub.End(); err != nil {
		return err
	}
	if err := <-pollDone; err != nil {
		return fmt.Errorf("hls poll: %w", err)
	}

	out, err := json.MarshalIndent(p.Metrics().Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runDemo continuously starts short broadcasts with a few viewers each. When
// API keys are provisioned (-tenants), broadcasts round-robin across them so
// per-tenant usage rollups accrue; otherwise they run untenanted.
func runDemo(ctx context.Context, p *core.Platform, rate float64, seed uint64, keys []string) {
	clients := []*control.Client{{BaseURL: p.ControlURL()}}
	if len(keys) > 0 {
		clients = clients[:0]
		for _, k := range keys {
			clients = append(clients, &control.Client{BaseURL: p.ControlURL(), APIKey: k})
		}
	}
	src := rng.New(seed)
	cities := geo.CityCatalog()
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	n := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		n++
		loc := cities[src.Intn(len(cities))]
		go runDemoBroadcast(ctx, p, clients[n%len(clients)], uint64(n), loc, src.Uint64())
	}
}

func runDemoBroadcast(ctx context.Context, p *core.Platform, cc *control.Client, n uint64, loc geo.Location, seed uint64) {
	uid, err := cc.Register(ctx, fmt.Sprintf("demo-%d", n))
	if err != nil {
		return
	}
	grant, err := cc.StartBroadcast(ctx, uid, loc)
	if err != nil {
		return
	}
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		return
	}
	// One HLS viewer per demo broadcast: it is what moves chunks through the
	// edges, so delivery metrics — and per-tenant usage rollups — accrue.
	go runDemoViewer(ctx, p, grant.BroadcastID, loc)
	src := rng.New(seed)
	enc := media.NewEncoder(media.EncoderConfig{}, src)
	mc := &pubsub.Client{BaseURL: grant.MessageURL}
	frames := 100 + src.Intn(400) // 4–20 s of video
	ticker := time.NewTicker(media.FrameDuration)
	defer ticker.Stop()
	for i := 0; i < frames; i++ {
		select {
		case <-ctx.Done():
			pub.End()
			return
		case <-ticker.C:
		}
		f := enc.Next(time.Now())
		if err := pub.Send(&f); err != nil {
			return
		}
		if src.Bool(0.02) {
			mc.Publish(ctx, grant.BroadcastID, pubsub.Event{
				UserID: fmt.Sprintf("viewer-%d", src.Intn(50)), Kind: pubsub.KindHeart,
			})
		}
	}
	pub.End()
}

// runDemoViewer polls a demo broadcast's HLS stream from its nearest edge
// until the end marker, giving every demo broadcast real delivered chunks.
func runDemoViewer(ctx context.Context, p *core.Platform, broadcastID string, loc geo.Location) {
	hc := &hls.Client{BaseURL: p.EdgeURL(p.Topo.NearestEdge(loc)), Metrics: p.Metrics()}
	// Poll treats not-found as terminal, so wait for the first chunk.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cl, err := hc.FetchChunkList(ctx, broadcastID, 0); err == nil && len(cl.Chunks) > 0 {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	hc.Poll(ctx, broadcastID, hls.PollerConfig{
		Interval:  200 * time.Millisecond,
		PreBuffer: 400 * time.Millisecond,
	})
}
