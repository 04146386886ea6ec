// Package crawler reimplements the paper's measurement apparatus (§3.1,
// §4.3) against the reproduced platform: a global-list crawler that samples
// the 50-random broadcast list at high frequency to capture every broadcast,
// per-broadcast monitors that join and record metadata (viewers, comments,
// hearts — never video content), an RTMP tap with a zero stream buffer that
// timestamps every pushed frame, and a 100 ms HLS poller that timestamps
// chunk availability. Output is trace records, anonymized before analysis.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/pubsub"
	"repro/internal/rtmp"
	"repro/internal/trace"
)

// Config tunes the crawler.
type Config struct {
	// Control reaches the platform's control API. Required.
	Control *control.Client
	// ListInterval is the effective global-list sampling period. The
	// paper's per-account rate is 5 s; with 20 accounts the aggregate is
	// 250 ms (default).
	ListInterval time.Duration
	// TapRTMP attaches a zero-buffer RTMP viewer to each broadcast and
	// emits per-frame delay records (§4.3 passive crawling).
	TapRTMP bool
	// TapHLS polls each broadcast's edge at HLSPollInterval and emits
	// per-chunk delay records.
	TapHLS bool
	// HLSPollInterval defaults to the paper's 100 ms.
	HLSPollInterval time.Duration
	// WatchMessages subscribes to the comment/heart channel.
	WatchMessages bool
	// OnBroadcast receives the finished record for every broadcast.
	OnBroadcast func(rec trace.BroadcastRecord)
	// OnDelay receives frame/chunk delay observations.
	OnDelay func(rec trace.DelayRecord)
	// Anonymizer pseudonymizes records before OnBroadcast; nil disables
	// (tests want raw IDs; production use mirrors the paper's IRB terms).
	Anonymizer *trace.Anonymizer
}

// Stats count crawler activity.
type Stats struct {
	ListPolls      atomic.Int64
	BroadcastsSeen atomic.Int64
	BroadcastsDone atomic.Int64
	FramesTapped   atomic.Int64
	ChunksTapped   atomic.Int64
}

// Crawler captures the platform's broadcast population.
type Crawler struct {
	cfg   Config
	stats Stats

	mu    sync.Mutex
	known map[string]bool
	wg    sync.WaitGroup
}

// New builds a Crawler.
func New(cfg Config) (*Crawler, error) {
	if cfg.Control == nil {
		return nil, errors.New("crawler: Control client required")
	}
	if cfg.ListInterval <= 0 {
		cfg.ListInterval = 250 * time.Millisecond
	}
	if cfg.HLSPollInterval <= 0 {
		cfg.HLSPollInterval = 100 * time.Millisecond
	}
	return &Crawler{cfg: cfg, known: make(map[string]bool)}, nil
}

// Stats exposes the counters.
func (c *Crawler) Stats() *Stats { return &c.stats }

// Run polls the global list until ctx is done, monitoring every broadcast
// it discovers. It returns after all monitors finish.
func (c *Crawler) Run(ctx context.Context) error {
	//lint:allow walltime the paper's external instrument samples a live service in real time
	ticker := time.NewTicker(c.cfg.ListInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			c.wg.Wait()
			return ctx.Err()
		case <-ticker.C:
		}
		c.stats.ListPolls.Add(1)
		list, err := c.cfg.Control.GlobalList(ctx)
		if err != nil {
			if ctx.Err() != nil {
				c.wg.Wait()
				return ctx.Err()
			}
			continue // transient error: keep crawling
		}
		for _, b := range list {
			c.maybeMonitor(ctx, b)
		}
	}
}

func (c *Crawler) maybeMonitor(ctx context.Context, b control.Summary) {
	c.mu.Lock()
	if c.known[b.BroadcastID] {
		c.mu.Unlock()
		return
	}
	c.known[b.BroadcastID] = true
	c.mu.Unlock()
	c.stats.BroadcastsSeen.Add(1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.monitor(ctx, b)
	}()
}

// monitor joins one broadcast and records it until it ends.
func (c *Crawler) monitor(ctx context.Context, b control.Summary) {
	defer c.stats.BroadcastsDone.Add(1)
	rec := trace.BroadcastRecord{
		BroadcastID: b.BroadcastID,
		Broadcaster: fmt.Sprintf("user-%d", b.Broadcaster),
		StartedAt:   b.StartedAt,
	}
	// Every monitor joins as user 0, the crawler's account, reporting no
	// location (edge assignment sees lat 0, lon 0).
	grant, err := c.cfg.Control.Join(ctx, 0, b.BroadcastID, geo.Location{})
	if err != nil {
		// Ended between discovery and join; record what we saw.
		c.finish(rec)
		return
	}

	var wg sync.WaitGroup
	var mu sync.Mutex // guards rec during concurrent taps

	if c.cfg.TapRTMP && grant.RTMPAddr != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.tapRTMP(ctx, grant.RTMPAddr, b.BroadcastID)
		}()
	}
	if c.cfg.TapHLS && grant.HLSBaseURL != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.tapHLS(ctx, grant.HLSBaseURL, b.BroadcastID)
		}()
	}
	if c.cfg.WatchMessages && grant.MessageURL != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.watchMessages(ctx, grant.MessageURL, b.BroadcastID, &mu, &rec)
		}()
	}

	// Poll broadcast info until it ends; pick up viewer joins.
	//lint:allow walltime the paper's external instrument samples a live service in real time
	ticker := time.NewTicker(c.cfg.ListInterval * 2)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			c.finish(rec)
			return
		case <-ticker.C:
		}
		info, err := c.cfg.Control.Info(ctx, b.BroadcastID)
		if err != nil || !info.Live {
			if err == nil {
				rec.EndedAt = info.EndedAt
			}
			wg.Wait()
			c.finish(rec)
			return
		}
	}
}

func (c *Crawler) finish(rec trace.BroadcastRecord) {
	if c.cfg.OnBroadcast == nil {
		return
	}
	if c.cfg.Anonymizer != nil {
		rec = c.cfg.Anonymizer.AnonymizeRecord(rec)
	}
	c.cfg.OnBroadcast(rec)
}

// tapRTMP joins with a zero stream buffer so every frame is pushed the
// moment it is available (§4.3), recording per-frame delivery delay against
// the capture timestamp embedded in frame metadata.
func (c *Crawler) tapRTMP(ctx context.Context, addr, broadcastID string) {
	v, err := rtmp.Subscribe(ctx, addr, broadcastID, "", rtmp.ViewerOptions{BufferMs: 0})
	if err != nil {
		return
	}
	defer v.Close()
	for {
		select {
		case <-ctx.Done():
			return
		case rf, ok := <-v.Frames():
			if !ok {
				return
			}
			c.stats.FramesTapped.Add(1)
			if c.cfg.OnDelay != nil {
				c.cfg.OnDelay(trace.DelayRecord{
					BroadcastID: broadcastID,
					Kind:        "frame",
					Seq:         rf.Frame.Seq,
					CapturedAt:  rf.Frame.CapturedAt,
					OriginAt:    rf.ReceivedAt,
					Delay:       rf.ReceivedAt.Sub(rf.Frame.CapturedAt),
				})
			}
		}
	}
}

// tapHLS polls the chunklist at high frequency, triggering edge pulls
// immediately (the paper's crawler isolates the Wowza2Fastly delay this
// way) and records per-chunk availability.
func (c *Crawler) tapHLS(ctx context.Context, baseURL, broadcastID string) {
	client := &hls.Client{BaseURL: baseURL}
	_ = client.Poll(ctx, broadcastID, hls.PollerConfig{
		Interval: c.cfg.HLSPollInterval,
		OnChunk: func(ev hls.ChunkEvent) {
			c.stats.ChunksTapped.Add(1)
			if c.cfg.OnDelay == nil {
				return
			}
			rec := trace.DelayRecord{
				BroadcastID: broadcastID,
				Kind:        "chunk",
				Seq:         ev.Ref.Seq,
				EdgeAt:      ev.ListFetchedAt,
			}
			if ev.Chunk != nil {
				rec.CapturedAt = ev.Chunk.FirstCapturedAt()
				rec.Delay = ev.FetchedAt.Sub(rec.CapturedAt)
			}
			c.cfg.OnDelay(rec)
		},
	})
}

// watchMessages records comment/heart timelines (metadata only).
func (c *Crawler) watchMessages(ctx context.Context, baseURL, broadcastID string, mu *sync.Mutex, rec *trace.BroadcastRecord) {
	client := &pubsub.Client{BaseURL: baseURL}
	var since uint64
	for {
		evs, closed, err := client.Events(ctx, broadcastID, since, true)
		if err != nil {
			return
		}
		mu.Lock()
		for _, ev := range evs {
			since = ev.Seq
			rec.Events = append(rec.Events, trace.Event{
				UserID: ev.UserID,
				Kind:   string(ev.Kind),
				At:     ev.At,
			})
		}
		mu.Unlock()
		if closed {
			return
		}
	}
}
