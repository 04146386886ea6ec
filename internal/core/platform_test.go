package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/pubsub"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

// smallSites keeps integration tests to 2 origins + 3 edges.
func smallSites() ([]geo.Datacenter, []geo.Datacenter) {
	w := geo.WowzaSites()
	f := geo.FastlySites()
	return []geo.Datacenter{w[0], w[4]}, []geo.Datacenter{f[8], f[16], f[11]}
}

// metricCounter reads one labelled counter series from the platform registry
// — the way tests observe per-site CDN counters now that edges expose no
// bespoke stats snapshot.
func metricCounter(p *Platform, name, site string) int64 {
	for _, c := range p.Metrics().Snapshot().Counters {
		if c.Name == name && c.Labels["site"] == site {
			return c.Value
		}
	}
	return 0
}

// counterSum totals a counter across every site label.
func counterSum(p *Platform, name string) int64 {
	var n int64
	for _, c := range p.Metrics().Snapshot().Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

func startPlatform(t *testing.T, cfg PlatformConfig) *Platform {
	t.Helper()
	if cfg.OriginSites == nil {
		cfg.OriginSites, cfg.EdgeSites = smallSites()
	}
	p := NewPlatform(cfg)
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

func TestPlatformEndToEnd(t *testing.T) {
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:   time.Second,
		RTMPViewerLimit: 2,
	})
	ctx := context.Background()
	cc := &control.Client{BaseURL: p.ControlURL()}

	// Register a broadcaster and start a broadcast near Ashburn.
	uid, err := cc.Register(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}
	grant, err := cc.StartBroadcast(ctx, uid, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	if grant.OriginID != "wowza-ashburn" {
		t.Fatalf("assigned origin %s, want wowza-ashburn", grant.OriginID)
	}
	if grant.RTMPAddr == "" || grant.MessageURL == "" {
		t.Fatalf("incomplete grant: %+v", grant)
	}

	// Publish 60 frames (2.4 s of video at 1 s chunks → 2 full chunks).
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(1))
	base := time.Now()

	// Two RTMP viewers join first, then a third must be routed to HLS.
	var rtmpViewers []*rtmp.Viewer
	for i := 0; i < 2; i++ {
		vg, err := cc.Join(ctx, uint64(100+i), grant.BroadcastID, ashburn)
		if err != nil {
			t.Fatal(err)
		}
		if vg.Protocol != control.ProtoRTMP {
			t.Fatalf("viewer %d protocol = %s", i, vg.Protocol)
		}
		v, err := rtmp.Subscribe(ctx, vg.RTMPAddr, grant.BroadcastID, "", rtmp.ViewerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer v.Close()
		rtmpViewers = append(rtmpViewers, v)
	}
	hlsGrant, err := cc.Join(ctx, 999, grant.BroadcastID, ashburn)
	if err != nil {
		t.Fatal(err)
	}
	if hlsGrant.Protocol != control.ProtoHLS || hlsGrant.HLSBaseURL == "" {
		t.Fatalf("3rd viewer grant = %+v, want HLS", hlsGrant)
	}

	for i := 0; i < 60; i++ {
		f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
		if err := pub.Send(&f); err != nil {
			t.Fatal(err)
		}
	}

	// Comments and hearts through the message hub.
	mc := &pubsub.Client{BaseURL: hlsGrant.MessageURL}
	if _, err := mc.Publish(ctx, grant.BroadcastID, pubsub.Event{UserID: "u100", Kind: pubsub.KindComment, Text: "hi"}); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Publish(ctx, grant.BroadcastID, pubsub.Event{UserID: "u999", Kind: pubsub.KindHeart}); err != nil {
		t.Fatal(err)
	}

	// HLS viewer fetches chunks from its assigned edge.
	hc := &hls.Client{BaseURL: hlsGrant.HLSBaseURL}
	var cl *media.ChunkList
	deadline := time.Now().Add(3 * time.Second)
	for {
		cl, err = hc.FetchChunkList(ctx, grant.BroadcastID, 0)
		if err == nil && len(cl.Chunks) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("edge never served chunks: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	chunk, err := hc.FetchChunk(ctx, grant.BroadcastID, cl.Chunks[0].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Frames) != 25 {
		t.Fatalf("chunk frames = %d, want 25", len(chunk.Frames))
	}

	// End the broadcast; RTMP viewers see the end, control marks it.
	if err := pub.End(); err != nil {
		t.Fatal(err)
	}
	for i, v := range rtmpViewers {
		n := 0
		for range v.Frames() {
			n++
		}
		if n != 60 {
			t.Fatalf("RTMP viewer %d received %d/60 frames", i, n)
		}
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		info, err := cc.Info(ctx, grant.BroadcastID)
		if err == nil && !info.Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("broadcast still live after publisher ended")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Message channel closed with events intact.
	evs, closed, err := mc.Events(ctx, grant.BroadcastID, 0, false)
	if err != nil || !closed || len(evs) != 2 {
		t.Fatalf("events after end: %v closed=%v n=%d", err, closed, len(evs))
	}
}

// A standard HLS player follows a playlist's chunk lines, resolving each
// against the playlist's own URL (RFC 8216 §4.1). Every chunk line of a
// platform edge's playlist, mounted under /edge/<site>/hls, must so resolve to
// that chunk's bytes.
func TestPlatformPlaylistChunkURIsResolve(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	ctx := context.Background()
	cc := &control.Client{BaseURL: p.ControlURL()}
	uid, err := cc.Register(ctx, "player")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := cc.StartBroadcast(ctx, uid, geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(3))
	base := time.Now()
	for i := 0; i < 60; i++ { // two full 1 s chunks, and a third at the end
		f := enc.Next(base.Add(time.Duration(i) * media.FrameDuration))
		if err := pub.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.End(); err != nil {
		t.Fatal(err)
	}

	playlist := p.EdgeURL(p.Topo.Edges[0]) + "/" + grant.BroadcastID + "/chunklist.m3u8"
	var body string
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(playlist)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && strings.Contains(string(b), "#EXT-X-ENDLIST") {
			body = string(b)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("edge never served the ended playlist: status %d, %q", resp.StatusCode, b)
		}
	}
	listURL, err := url.Parse(playlist)
	if err != nil {
		t.Fatal(err)
	}
	origin := p.OriginByID(grant.OriginID)
	lines := strings.Split(body, "\n")
	followed := 0
	for i, line := range lines {
		title, ok := strings.CutPrefix(line, "#EXTINF:")
		if !ok {
			continue
		}
		_, seqStr, _ := strings.Cut(title, ",")
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil || i+1 == len(lines) {
			t.Fatalf("bad chunk entry %q in\n%s", line, body)
		}
		ref, err := url.Parse(lines[i+1])
		if err != nil {
			t.Fatal(err)
		}
		chunkURL := listURL.ResolveReference(ref).String()
		resp, err := http.Get(chunkURL)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s (line %q): status %d, %v", chunkURL, lines[i+1], resp.StatusCode, err)
		}
		want, err := origin.Chunk(ctx, grant.BroadcastID, seq)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Wire()) {
			t.Fatalf("GET %s: body is not chunk %d's bytes", chunkURL, seq)
		}
		followed++
	}
	if followed != 3 {
		t.Fatalf("followed %d chunk lines, want 3:\n%s", followed, body)
	}
}

func TestPlatformRejectsBadToken(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	ctx := context.Background()
	cc := &control.Client{BaseURL: p.ControlURL()}
	uid, _ := cc.Register(ctx, "mallory")
	grant, err := cc.StartBroadcast(ctx, uid, geo.Location{City: "X"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, "forged-token", nil); err == nil {
		t.Fatal("forged token accepted at origin")
	}
}

func TestPlatformGlobalListAndCrawlability(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	ctx := context.Background()
	cc := &control.Client{BaseURL: p.ControlURL()}
	uid, _ := cc.Register(ctx, "b")
	var grants []control.BroadcastGrant
	for i := 0; i < 5; i++ {
		g, err := cc.StartBroadcast(ctx, uid, geo.Location{City: "X"})
		if err != nil {
			t.Fatal(err)
		}
		grants = append(grants, g)
	}
	list, err := cc.GlobalList(ctx)
	if err != nil || len(list) != 5 {
		t.Fatalf("global list = %d, %v", len(list), err)
	}
	for _, g := range grants {
		if err := cc.EndBroadcast(ctx, g.BroadcastID, g.Token); err != nil {
			t.Fatal(err)
		}
	}
	list, _ = cc.GlobalList(ctx)
	if len(list) != 0 {
		t.Fatalf("list after ends = %d", len(list))
	}
}

func TestPlatformDoubleStartFails(t *testing.T) {
	p := startPlatform(t, PlatformConfig{})
	if err := p.Start(context.Background()); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestPlatformSignedBroadcast(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	ctx := context.Background()
	cc := &control.Client{BaseURL: p.ControlURL()}
	uid, _ := cc.Register(ctx, "signer")
	grant, err := cc.StartBroadcast(ctx, uid, geo.Location{City: "X"})
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := func() ([]byte, []byte, error) {
		pk, sk, err := generateKeys()
		return pk, sk, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.RegisterPublicKey(ctx, grant.BroadcastID, grant.Token, pub); err != nil {
		t.Fatal(err)
	}
	publisher, err := rtmp.Publish(ctx, grant.RTMPAddr, grant.BroadcastID, grant.Token, priv)
	if err != nil {
		t.Fatal(err)
	}
	viewerKey, err := cc.PublicKey(ctx, grant.BroadcastID)
	if err != nil {
		t.Fatal(err)
	}
	view, err := rtmp.Subscribe(ctx, grant.RTMPAddr, grant.BroadcastID, "", rtmp.ViewerOptions{PubKey: viewerKey})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(2))
	for i := 0; i < 5; i++ {
		f := enc.Next(time.Now())
		if err := publisher.Send(&f); err != nil {
			t.Fatal(err)
		}
	}
	publisher.End()
	n := 0
	for rf := range view.Frames() {
		if !rf.Verified {
			t.Fatal("platform-signed frame failed viewer verification")
		}
		n++
	}
	if n != 5 {
		t.Fatalf("received %d/5 signed frames", n)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatal("unexpected cancellation")
	}
}
