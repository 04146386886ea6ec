package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/rng"
	"repro/internal/rtmp"
	"repro/internal/testutil"
)

// tenantCounter reads a tenant's delivery meter series.
func tenantCounter(p *Platform, name, tenant string) int64 {
	return p.Metrics().Counter(name, metrics.L("tenant", tenant)).Value()
}

// meteredAs reports whether a broadcast's assignment carries the tenant's
// delivery meter — the one the origins and edges meter its delivery into.
func meteredAs(p *Platform, broadcastID, tenant string) bool {
	u := p.Topo.Usage(broadcastID)
	return u != nil && u.Frames == p.Metrics().Counter("tenant_frames_out_total", metrics.L("tenant", tenant))
}

// usageTotals sums a tenant's flushed rollups across days.
func usageTotals(t *testing.T, s *control.Service, tenantID string) (frames, chunks, bytes int64) {
	t.Helper()
	days, err := s.Usage(tenantID)
	if err != nil {
		t.Fatalf("Usage(%s): %v", tenantID, err)
	}
	for _, d := range days {
		frames += d.Frames
		chunks += d.Chunks
		bytes += d.Bytes
	}
	return
}

// TestPlatformNoisyNeighborSoak is the tenancy acceptance soak: one
// over-quota tenant hammers key-authenticated joins at far above its plan
// rate while two compliant tenants stream to HLS viewers. The loud tenant
// must be throttled at exactly its token-bucket plan limit (and, once its
// daily bytes are spent, by the quota check); the compliant tenants' viewers
// must see every chunk exactly once; and after a mid-soak control crash and
// recovery the per-tenant usage rollups must equal what the tenants' delivery
// meters counted — byte for byte, for all three tenants.
func TestPlatformNoisyNeighborSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("noisy-neighbor tenancy soak under -short")
	}
	testutil.CheckGoroutines(t)

	journals := make(map[string]*journal.Mem)
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:   200 * time.Millisecond,
		RTMPViewerLimit: 1, // first join per broadcast is RTMP, the rest HLS
		Journal: func(siteID string) journal.Backend {
			m := journal.NewMem()
			journals[siteID] = m
			return m
		},
		EdgeRetry:          resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		UsageFlushInterval: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	admin := &control.Client{BaseURL: p.ControlURL()}
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}

	// Three tenants: two compliant with roomy plans, one loud with a tight
	// join rate and a daily byte quota it is guaranteed to blow through.
	const loudRPS, loudBurst = 20.0, 5.0
	tA, err := admin.CreateTenant(ctx, "compliant-a", control.Plan{Name: "pro", MaxJoinRPS: 500, DailyBytesQuota: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	tB, err := admin.CreateTenant(ctx, "compliant-b", control.Plan{Name: "pro", MaxJoinRPS: 500, DailyBytesQuota: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	loud, err := admin.CreateTenant(ctx, "loud", control.Plan{Name: "free", MaxJoinRPS: loudRPS, JoinBurst: loudBurst, DailyBytesQuota: 4000})
	if err != nil {
		t.Fatal(err)
	}
	keyA, err := admin.IssueAPIKey(ctx, tA.ID)
	if err != nil {
		t.Fatal(err)
	}
	keyB, err := admin.IssueAPIKey(ctx, tB.ID)
	if err != nil {
		t.Fatal(err)
	}
	keyL, err := admin.IssueAPIKey(ctx, loud.ID)
	if err != nil {
		t.Fatal(err)
	}
	cA := &control.Client{BaseURL: admin.BaseURL, APIKey: keyA}
	cB := &control.Client{BaseURL: admin.BaseURL, APIKey: keyB}
	cL := &control.Client{BaseURL: admin.BaseURL, APIKey: keyL}

	alice, err := admin.Register(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := admin.Register(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	lou, err := admin.Register(ctx, "lou")
	if err != nil {
		t.Fatal(err)
	}
	carol, err := admin.Register(ctx, "carol")
	if err != nil {
		t.Fatal(err)
	}

	grantA, err := cA.StartBroadcast(ctx, alice, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	grantB, err := cB.StartBroadcast(ctx, bob, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	grantL, err := cL.StartBroadcast(ctx, lou, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ bcast, tenant string }{
		{grantA.BroadcastID, tA.ID}, {grantB.BroadcastID, tB.ID}, {grantL.BroadcastID, loud.ID},
	} {
		if !meteredAs(p, want.bcast, want.tenant) {
			t.Fatalf("%s is not assigned %s's delivery meter", want.bcast, want.tenant)
		}
	}

	// Connect all three publishers before any viewer subscribes so the
	// origins know the broadcasts; frames start flowing only after the RTMP
	// viewer below is attached, keeping its exactly-once check full-stream.
	pubA, err := rtmp.Publish(ctx, grantA.RTMPAddr, grantA.BroadcastID, grantA.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	pubB, err := rtmp.Publish(ctx, grantB.RTMPAddr, grantB.BroadcastID, grantB.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	pubL, err := rtmp.Publish(ctx, grantL.RTMPAddr, grantL.BroadcastID, grantL.Token, nil)
	if err != nil {
		t.Fatal(err)
	}

	// ---- Noisy neighbor, phase 1: hammer joins far above the plan rate. ----
	// Nothing has been delivered yet, so the byte quota is untouched and the
	// admissions measure the token bucket alone: at most burst + rps·elapsed
	// joins pass; everything else must come back 429 as a QuotaError.
	var admitted, throttled int
	hammerStart := time.Now()
	for time.Since(hammerStart) < 1100*time.Millisecond {
		_, err := cL.Join(ctx, lou, grantL.BroadcastID, ashburn)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, control.ErrQuotaExceeded):
			throttled++
			var qe *control.QuotaError
			if !errors.As(err, &qe) || qe.RetryAfterHint() < time.Second {
				t.Fatalf("throttled join err = %v, want QuotaError with >=1s hint", err)
			}
		default:
			t.Fatalf("hammer join: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(hammerStart).Seconds()
	bound := int(loudBurst+loudRPS*elapsed) + 2
	if admitted > bound {
		t.Errorf("loud tenant: %d joins admitted in %.2fs, token bucket allows at most %d", admitted, elapsed, bound)
	}
	if admitted < int(loudBurst) {
		t.Errorf("loud tenant: %d joins admitted, want at least the burst depth %.0f", admitted, loudBurst)
	}
	if throttled == 0 {
		t.Error("loud tenant was never throttled despite hammering at ~500 joins/s")
	}

	// Compliant tenants are untouched by the hammering: their joins admit.
	if _, err := cB.Join(ctx, carol, grantB.BroadcastID, ashburn); err != nil {
		t.Fatalf("compliant join during the hammer: %v", err)
	}

	// Tenant A's first viewer rides RTMP, so frame fan-out metering is
	// exercised alongside chunk serves.
	vg, err := cA.Join(ctx, carol, grantA.BroadcastID, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	if vg.Protocol != control.ProtoRTMP {
		t.Fatalf("first viewer protocol = %s, want RTMP", vg.Protocol)
	}
	rv, err := rtmp.SubscribeResilient(ctx, vg.RTMPAddr, grantA.BroadcastID, "", rtmp.ReconnectConfig{
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

	// Publishers: all three tenants stream 150 frames.
	const totalFrames = 150
	framesPerChunk := int(200 * time.Millisecond / media.FrameDuration)
	totalChunks := totalFrames / framesPerChunk
	publish := func(pub *rtmp.Publisher, seed uint64) chan error {
		errc := make(chan error, 1)
		go func() {
			enc := media.NewEncoder(media.EncoderConfig{}, rng.New(seed))
			base := time.Now()
			for i := 0; i < totalFrames; i++ {
				f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
				if err := pub.Send(&f); err != nil {
					errc <- fmt.Errorf("send frame %d: %w", i, err)
					return
				}
				time.Sleep(soakFramePace)
			}
			errc <- pub.End()
		}()
		return errc
	}
	pubErrA := publish(pubA, 33)
	pubErrB := publish(pubB, 44)
	pubErrL := publish(pubL, 55)

	servingEdge := p.Topo.NearestEdge(ashburn)
	warm := &hls.Client{BaseURL: p.EdgeURL(servingEdge), Retry: resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
	for _, id := range []string{grantA.BroadcastID, grantB.BroadcastID, grantL.BroadcastID} {
		id := id
		waitFor(t, 10*time.Second, "first chunk at the edge for "+id, func() bool {
			cl, err := warm.FetchChunkList(ctx, id, 0)
			return err == nil && len(cl.Chunks) > 0
		})
	}

	// Compliant viewers: six per tenant, resolving through the control API.
	const viewersPerTenant = 6
	runsA, errsA := launchSoakViewers(ctx, viewersPerTenant, grantA.BroadcastID, func(ctx context.Context) (string, error) {
		return admin.ResolveEdge(ctx, grantA.BroadcastID, ashburn)
	})
	runsB, errsB := launchSoakViewers(ctx, viewersPerTenant, grantB.BroadcastID, func(ctx context.Context) (string, error) {
		return admin.ResolveEdge(ctx, grantB.BroadcastID, ashburn)
	})
	// One viewer on the loud tenant's stream pulls chunks so its metered
	// bytes march toward the 4000-byte daily quota.
	runsL, errsL := launchSoakViewers(ctx, 1, grantL.BroadcastID, func(ctx context.Context) (string, error) {
		return admin.ResolveEdge(ctx, grantL.BroadcastID, ashburn)
	})

	// ---- Mid-soak control crash. ----
	waitFor(t, 15*time.Second, "compliant viewers mid-stream before the crash", func() bool {
		return minChunksSeen(runsA) >= 4 && minChunksSeen(runsB) >= 4
	})
	p.KillControl()

	// Tenancy fails closed during the outage: no auth verdicts from wiped
	// state, just 503.
	if _, err := cL.Join(ctx, lou, grantL.BroadcastID, ashburn); !errors.Is(err, control.ErrUnavailable) {
		t.Fatalf("key-authed join during the outage = %v, want ErrUnavailable", err)
	}
	if _, err := admin.Usage(ctx, loud.ID); !errors.Is(err, control.ErrUnavailable) {
		t.Fatalf("usage during the outage = %v, want ErrUnavailable", err)
	}
	// Delivery — and per-tenant metering — never stalls.
	beforeA, beforeB := minChunksSeen(runsA), minChunksSeen(runsB)
	waitFor(t, 15*time.Second, "chunks flowing through the outage", func() bool {
		return minChunksSeen(runsA) >= beforeA+2 && minChunksSeen(runsB) >= beforeB+2
	})

	p.RestartControl()

	// Replay rebuilt the tenancy state: rows, plans, keys, attribution.
	recovered, err := p.Ctrl.TenantInfo(loud.ID)
	if err != nil || recovered.Plan.MaxJoinRPS != loudRPS || recovered.Plan.DailyBytesQuota != 4000 {
		t.Fatalf("recovered loud tenant = %+v, err %v", recovered, err)
	}
	if !meteredAs(p, grantA.BroadcastID, tA.ID) {
		t.Fatalf("after recovery %s is not assigned %s's delivery meter", grantA.BroadcastID, tA.ID)
	}

	// ---- Noisy neighbor, phase 2: the daily byte quota. ----
	// The loud viewer keeps pulling chunks; once the flushed + pending bytes
	// cross the 4000-byte quota, joins that clear the rate limiter are
	// rejected by the quota check with a day-boundary Retry-After.
	waitFor(t, 30*time.Second, "loud tenant over its daily byte quota", func() bool {
		_, err := p.Ctrl.JoinKey(keyL, lou, grantL.BroadcastID, ashburn)
		var qe *control.QuotaError
		return errors.As(err, &qe) && qe.Reason == "daily delivered-bytes quota"
	})
	// The failover-resolve path sees the same 429, with the hint a
	// FailoverPoller would pace its backoff on.
	_, err = admin.ResolveEdge(ctx, grantL.BroadcastID, ashburn)
	var qe *control.QuotaError
	if !errors.As(err, &qe) || qe.RetryAfterHint() < time.Second {
		t.Fatalf("over-quota ResolveEdge = %v, want QuotaError with >=1s hint", err)
	}
	// Compliant tenants still admit joins and resolves.
	if _, err := cA.Join(ctx, carol, grantA.BroadcastID, ashburn); err != nil {
		t.Fatalf("compliant join after quota trip: %v", err)
	}
	if _, err := admin.ResolveEdge(ctx, grantB.BroadcastID, ashburn); err != nil {
		t.Fatalf("compliant resolve after quota trip: %v", err)
	}

	// ---- Drain: broadcasts end, viewers finish, exactly once. ----
	for _, pe := range []chan error{pubErrA, pubErrB, pubErrL} {
		select {
		case err := <-pe:
			if err != nil {
				t.Fatalf("publisher: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("a publisher never finished")
		}
	}
	drain := func(name string, n int, errs chan error, runs []*soakViewer) {
		for i := 0; i < n; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("%s viewer: %v", name, err)
				}
			case <-time.After(60 * time.Second):
				t.Fatalf("a %s viewer never terminated (min chunks seen: %d/%d)", name, minChunksSeen(runs), totalChunks)
			}
		}
	}
	drain("tenant-a", viewersPerTenant, errsA, runsA)
	drain("tenant-b", viewersPerTenant, errsB, runsB)
	drain("loud", 1, errsL, runsL)
	assertExactlyOnce(t, runsA, totalChunks)
	assertExactlyOnce(t, runsB, totalChunks)
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

	// ---- Usage rollups equal delivered counts, across the crash. ----
	// Meters survive Crash (the data plane holds their counters) and flushes
	// journal absolute day totals, so after a final flush every tenant's
	// rollups must match its delivery meter's series exactly.
	p.Ctrl.FlushUsage()
	for _, tn := range []control.Tenant{tA, tB, loud} {
		frames, chunks, bytes := usageTotals(t, p.Ctrl, tn.ID)
		wantFrames := tenantCounter(p, "tenant_frames_out_total", tn.ID)
		wantChunks := tenantCounter(p, "tenant_chunks_out_total", tn.ID)
		wantBytes := tenantCounter(p, "tenant_bytes_out_total", tn.ID)
		if frames != wantFrames || chunks != wantChunks || bytes != wantBytes {
			t.Errorf("tenant %s rollups = (frames %d, chunks %d, bytes %d), delivery meter says (%d, %d, %d)",
				tn.ID, frames, chunks, bytes, wantFrames, wantChunks, wantBytes)
		}
	}
	// Floors: tenant A delivered its full stream to the RTMP viewer and
	// every chunk to six HLS viewers; the loud tenant really went over quota.
	framesA, chunksA, _ := usageTotals(t, p.Ctrl, tA.ID)
	if framesA < totalFrames {
		t.Errorf("tenant A metered %d frames, want >= %d", framesA, totalFrames)
	}
	if chunksA < int64(viewersPerTenant*totalChunks) {
		t.Errorf("tenant A metered %d chunk serves, want >= %d", chunksA, viewersPerTenant*totalChunks)
	}
	_, _, bytesL := usageTotals(t, p.Ctrl, loud.ID)
	if bytesL < 4000 {
		t.Errorf("loud tenant metered %d bytes, expected its 4000-byte quota spent", bytesL)
	}
	// The /usage endpoint serves the same rollups over the wire.
	days, err := admin.Usage(ctx, tA.ID)
	if err != nil {
		t.Fatal(err)
	}
	var httpBytes int64
	for _, d := range days {
		httpBytes += d.Bytes
	}
	_, _, svcBytes := usageTotals(t, p.Ctrl, tA.ID)
	if httpBytes != svcBytes {
		t.Errorf("/usage bytes = %d, service says %d", httpBytes, svcBytes)
	}

	waitFor(t, 5*time.Second, "live count drains", func() bool { return p.Ctrl.LiveCount() == 0 })
}

// TestPlatformOutageReconnectStaysMetered: a publisher that reconnects to a
// restarted origin while the control plane is down is admitted from the
// origin's grant cache, and what its broadcast delivers from then on is still
// metered to its tenant. The meter travels with the broadcast's assignment,
// which the control outage does not touch; a meter looked up from the control
// plane at the reconnect would find the broadcast unknown and leave it
// unmetered for good, and the rollup would fall short of what the viewer got.
func TestPlatformOutageReconnectStaysMetered(t *testing.T) {
	testutil.CheckGoroutines(t)
	p := startPlatform(t, PlatformConfig{
		ChunkDuration: 200 * time.Millisecond,
		Journal:       func(string) journal.Backend { return journal.NewMem() },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	admin := &control.Client{BaseURL: p.ControlURL()}
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}
	tn, err := admin.CreateTenant(ctx, "acme", control.Plan{Name: "pro"})
	if err != nil {
		t.Fatal(err)
	}
	key, err := admin.IssueAPIKey(ctx, tn.ID)
	if err != nil {
		t.Fatal(err)
	}
	c := &control.Client{BaseURL: admin.BaseURL, APIKey: key}
	alice, err := admin.Register(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.StartBroadcast(ctx, alice, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	originID := grant.OriginID
	pub, err := rtmp.PublishResilient(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, rtmp.PublishResilientConfig{
		Resolve:       func() string { return p.RTMPAddr(originID) },
		Backoff:       resilience.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
		MaxReconnects: -1,
		BufferFrames:  1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	vg, err := c.Join(ctx, alice, grant.BroadcastID, ashburn)
	if err != nil || vg.Protocol != control.ProtoRTMP {
		t.Fatalf("join = %+v, %v; want an RTMP grant", vg, err)
	}

	// The viewer counts frames across its sessions: one before the crash,
	// one at the restarted origin.
	var received atomic.Int64
	watch := func(addr string) *rtmp.Viewer {
		t.Helper()
		v, err := rtmp.Subscribe(ctx, addr, grant.BroadcastID, "", rtmp.ViewerOptions{})
		if err != nil {
			t.Fatalf("subscribe at %s: %v", addr, err)
		}
		go func() {
			for range v.Frames() {
				received.Add(1)
			}
		}()
		return v
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(7))
	base := time.Now()
	sent := 0
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			f := enc.Next(base.Add(time.Duration(sent) * media.FrameDuration))
			if err := pub.Send(ctx, &f); err != nil {
				t.Fatalf("send frame %d: %v", sent, err)
			}
			sent++
			time.Sleep(soakFramePace)
		}
	}

	// Before the outage: the viewer's handshake also caches its grant at the
	// origin, as the publisher's did.
	v1 := watch(grant.RTMPAddr)
	defer v1.Close()
	const before, after = 10, 20
	send(before)
	waitFor(t, 10*time.Second, "frames before the outage", func() bool { return received.Load() >= before })

	p.KillControl()
	if err := p.KillOrigin(originID); err != nil {
		t.Fatal(err)
	}
	if err := p.RestartOrigin(originID); err != nil {
		t.Fatal(err)
	}
	// A send that finds the transport dead redials the restarted origin;
	// only the grant cache can admit it while control is down.
	waitFor(t, 10*time.Second, "publisher reconnects to the restarted origin", func() bool {
		send(1)
		return pub.Reconnects() > 0
	})
	if v := counterSum(p, "control_stale_served_total"); v <= 0 {
		t.Fatalf("control_stale_served_total = %d, want > 0 (the reconnect must be admitted from the cache)", v)
	}
	v2 := watch(p.RTMPAddr(originID))
	defer v2.Close()
	got := received.Load()
	send(after)
	waitFor(t, 10*time.Second, "frames after the reconnect", func() bool { return received.Load() >= got+after })

	p.RestartControl()
	p.Ctrl.FlushUsage()
	frames, _, bytes := usageTotals(t, p.Ctrl, tn.ID)
	if delivered := received.Load(); frames < delivered {
		t.Fatalf("rollup has %d frames, the viewer received %d: delivery after the reconnect went unmetered", frames, delivered)
	}
	if bytes <= 0 {
		t.Fatalf("rollup bytes = %d, want > 0", bytes)
	}
	if err := pub.End(ctx); err != nil {
		t.Fatal(err)
	}
}
