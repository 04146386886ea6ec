package viewersim

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/clock"
	"repro/internal/delay"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

// realResult summarizes the fidelity slice.
type realResult struct {
	hlsViewers  int
	rtmpViewers int
	frames      int64
	polls       int64
}

// runReal is the protocol-fidelity slice: while the event engine simulates
// the day's millions of views in process, a configurable handful of real
// hls.Client pollers and rtmp.Viewer sessions watch one short loopback
// broadcast over actual sockets — RTMP publish into the origin's embedded
// ingest server, HLS over an httptest server fronting the edge — and report
// into the same metrics registry as the simulated majority. Its sites carry
// "real-" prefixed IDs so the cdn's site-labelled instruments stay separable
// from the simulation's.
func runReal(cfg Config, reg *metrics.Registry) (*realResult, error) {
	clk := clock.Real{}
	originSite := geo.Nearest(delay.LabLocation, geo.WowzaSites())
	originSite.ID = "real-" + originSite.ID
	edgeSite := geo.Nearest(delay.LabLocation, geo.FastlySites())
	edgeSite.ID = "real-" + edgeSite.ID

	origin := cdn.NewOrigin(cdn.OriginConfig{
		Site:          originSite,
		ChunkDuration: cfg.ChunkDuration,
		Clock:         clk,
		Metrics:       reg,
	})
	defer origin.Close()
	edge := cdn.NewEdge(cdn.EdgeConfig{
		Site: edgeSite,
		Resolve: func(string) (cdn.Upstream, error) {
			return cdn.Upstream{Store: origin}, nil
		},
		Clock:   clk,
		Metrics: reg,
	})
	origin.RegisterEdge(edge)

	ctx, cancel := context.WithTimeout(context.Background(), cfg.RealDuration+5*time.Second)
	defer cancel()

	ln, err := origin.RTMP().Listen(ctx, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	httpSrv := httptest.NewServer(hls.Handler("/hls", edge))
	defer httpSrv.Close()

	const id = "real-0"
	pub, err := rtmp.Publish(ctx, addr, id, "tok", nil)
	if err != nil {
		return nil, err
	}

	res := &realResult{hlsViewers: cfg.RealHLS, rtmpViewers: cfg.RealRTMP}
	pollCounter := reg.Counter("hls_polls_total")
	pollBase := pollCounter.Value()

	var frames atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < cfg.RealRTMP; i++ {
		v, err := rtmp.Subscribe(ctx, addr, id, "", rtmp.ViewerOptions{Queue: 4096})
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(v *rtmp.Viewer) {
			defer wg.Done()
			defer v.Close()
			for range v.Frames() {
				frames.Add(1)
			}
		}(v)
	}

	src := rng.New(cfg.Seed).Split("real")
	pollCtx, pollCancel := context.WithTimeout(ctx, cfg.RealDuration+2*time.Second)
	defer pollCancel()
	interval := delay.HLSPollInterval
	if interval > cfg.RealDuration {
		// A slice shorter than the nominal cadence still deserves a few
		// polls per viewer.
		interval = cfg.RealDuration / 4
	}
	for i := 0; i < cfg.RealHLS; i++ {
		stagger := time.Duration(src.Float64() * float64(interval) / 8)
		wg.Add(1)
		go func(stagger time.Duration) {
			defer wg.Done()
			client := &hls.Client{BaseURL: httpSrv.URL + "/hls", Metrics: reg, Clock: clk}
			if clk.Sleep(pollCtx, stagger) != nil {
				return
			}
			_ = client.Poll(pollCtx, id, hls.PollerConfig{Interval: interval})
		}(stagger)
	}

	enc := media.NewEncoder(media.EncoderConfig{}, src.Split("enc"))
	nFrames := int(cfg.RealDuration / media.FrameDuration)
	for i := 0; i < nFrames; i++ {
		if err := clk.Sleep(ctx, media.FrameDuration); err != nil {
			break
		}
		f := enc.Next(clk.Now())
		if err := pub.Send(&f); err != nil {
			return nil, err
		}
	}
	pub.End()
	wg.Wait()

	res.frames = frames.Load()
	res.polls = pollCounter.Value() - pollBase
	return res, nil
}
