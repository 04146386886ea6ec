package core

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/pubsub"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

// TestSweepEndedCollectsBroadcastState: after retention, ended broadcasts
// disappear from origins, edges, the message hub, the topology map and the
// origins' auth cache.
func TestSweepEndedCollectsBroadcastState(t *testing.T) {
	p := startPlatform(t, PlatformConfig{
		ChunkDuration: time.Second,
		Retention:     time.Minute,
	})
	ctx := context.Background()
	cc := &control.Client{BaseURL: p.ControlURL()}
	uid, _ := cc.Register(ctx, "b")
	loc := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}
	grant, err := cc.StartBroadcast(ctx, uid, loc)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(1))
	base := time.Now()
	for i := 0; i < 30; i++ {
		f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
		pub.Send(&f)
	}
	pub.End()

	// Wait for end to propagate, then prime an edge cache.
	deadline := time.Now().Add(2 * time.Second)
	var vg control.ViewerGrant
	for {
		info, err := cc.Info(ctx, grant.BroadcastID)
		if err == nil && !info.Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("broadcast never ended")
		}
		time.Sleep(5 * time.Millisecond)
	}
	vg, err = func() (control.ViewerGrant, error) {
		// Join fails after end; use the edge URL route directly.
		return control.ViewerGrant{HLSBaseURL: p.EdgeURL(p.Topo.NearestEdge(loc))}, nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	hc := &hls.Client{BaseURL: vg.HLSBaseURL}
	if _, err := hc.FetchChunkList(ctx, grant.BroadcastID, 0); err != nil {
		t.Fatalf("replay before sweep: %v", err)
	}

	// Before retention expires: nothing collected.
	if n := p.SweepEnded(time.Now()); n != 0 {
		t.Fatalf("premature sweep collected %d", n)
	}
	if g := staleGrants(p); g != 1 {
		t.Fatalf("control_stale_grants = %d before the sweep, want the publisher's 1", g)
	}
	// After retention: everything goes.
	if n := p.SweepEnded(time.Now().Add(2 * time.Minute)); n != 1 {
		t.Fatalf("sweep collected %d, want 1", n)
	}
	if _, err := hc.FetchChunkList(ctx, grant.BroadcastID, 0); !errors.Is(err, hls.ErrNotFound) {
		t.Fatalf("swept broadcast still served: %v", err)
	}
	if _, ok := p.Topo.OriginFor(grant.BroadcastID); ok {
		t.Fatal("topology assignment survived sweep")
	}
	if _, _, err := p.Hub.EventsSince(grant.BroadcastID, 0); !errors.Is(err, pubsub.ErrNoChannel) {
		t.Fatalf("message channel survived sweep: %v", err)
	}
	if g := staleGrants(p); g != 0 {
		t.Fatalf("control_stale_grants = %d after the sweep, want 0", g)
	}
}

// TestSweepEndedCollectsRecoveredOrigin: the platform's end stamp is the one
// retention clock. An origin that crashes and replays its journal between a
// broadcast's end and the sweep forgets the broadcast with everyone else; its
// replay does not restart the clock.
func TestSweepEndedCollectsRecoveredOrigin(t *testing.T) {
	wheel := clock.NewWheel(clock.WheelConfig{})
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:     time.Second,
		Retention:         time.Hour,
		HeartbeatInterval: time.Minute,
		Clock:             wheel,
		Journal:           func(string) journal.Backend { return journal.NewMem() },
	})
	u := p.Ctrl.Register("b")
	grant, err := p.Ctrl.StartBroadcast(u.ID, geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(1))
	for i := 0; i < 60; i++ {
		f := enc.Next(wheel.Now().Add(time.Duration(i) * media.FrameDuration))
		pub.Send(&f)
	}
	pub.End()
	// The end reaches the janitor through control's OnEnd, after control
	// itself reports the broadcast over.
	ended := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		_, ok := p.endedAt[grant.BroadcastID]
		return ok
	}
	if !eventually(ended) {
		t.Fatal("the janitor never learned of the broadcast's end")
	}
	t0 := wheel.Now()

	advance(t, wheel, 50*time.Minute)
	if err := p.KillOrigin(grant.OriginID); err != nil {
		t.Fatal(err)
	}
	if err := p.RestartOrigin(grant.OriginID); err != nil {
		t.Fatal(err)
	}
	if n := p.SweepEnded(t0.Add(70 * time.Minute)); n != 1 {
		t.Fatalf("sweep collected %d, want 1", n)
	}
	for _, o := range p.Topo.Origins {
		if _, err := o.ChunkList(ctx, grant.BroadcastID); !errors.Is(err, hls.ErrNotFound) {
			t.Fatalf("origin %s still answers the swept broadcast: err %v", o.Site().ID, err)
		}
	}
}

// staleGrants reads the auth cache's gauge of unexpired cached grants.
func staleGrants(p *Platform) int64 {
	for _, g := range p.Metrics().Snapshot().Gauges {
		if g.Name == "control_stale_grants" {
			return g.Value
		}
	}
	return -1
}

// TestAPIRateLimiting: the control API throttles a greedy client but not a
// whitelisted one — the paper's crawler situation.
func TestAPIRateLimiting(t *testing.T) {
	p := startPlatform(t, PlatformConfig{
		ChunkDuration: time.Second,
		APIRate: &control.RateLimiterConfig{
			RequestsPerSecond: 0.001,
			Burst:             3,
			Whitelist:         nil, // loopback NOT whitelisted: everything throttles
		},
	})
	url := p.ControlURL() + "/global"
	codes := []int{}
	for i := 0; i < 5; i++ {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	throttled := 0
	for _, c := range codes {
		if c == http.StatusTooManyRequests {
			throttled++
		}
	}
	if throttled != 2 {
		t.Fatalf("codes = %v, want exactly 2 throttled", codes)
	}

	// Whitelisted platform: the same burst sails through.
	p2 := startPlatform(t, PlatformConfig{
		ChunkDuration: time.Second,
		APIRate: &control.RateLimiterConfig{
			RequestsPerSecond: 0.001,
			Burst:             1,
			Whitelist:         []string{"127.0.0.1"},
		},
	})
	for i := 0; i < 10; i++ {
		resp, err := http.Get(p2.ControlURL() + "/global")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("whitelisted request %d got %d", i, resp.StatusCode)
		}
	}
}
