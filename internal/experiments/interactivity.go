package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/delay"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("sec1_interactivity", "Delayed feedback: heart misattribution and vote discounting (§1)", runInteractivity)
}

// The paper's motivation (§1): a lagging audience produces lagging feedback.
// A viewer delayed by d hearts what they see; the broadcaster, living in
// real time, attributes that heart to whatever is happening NOW — d seconds
// of content later. Similarly, a vote cast after the real-time window
// closed is discounted. This experiment quantifies both failure modes for
// the replayed RTMP and HLS sessions.

// sessionDelays replays n viewers of the §4.3 controlled broadcast, spread
// over reps two-minute broadcasts and joining uniformly over each one's
// first minute, and returns each session's end-to-end delay. A session plays
// on a fixed schedule, so every frame it plays reaches the screen with the
// same delay, up to the jitter its buffer absorbs: the session's
// Components.Total().
func sessionDelays(seed uint64, hls bool, reps, n int) []time.Duration {
	frames, pre := 1, delay.RTMPPreBuffer
	if hls {
		frames, pre = 0, delay.HLSPreBuffer
	}
	src := rng.New(seed)
	var tr delay.Trace
	var s delay.Session
	var p player.Player
	out := make([]time.Duration, 0, n)
	for rep := 0; rep < reps; rep++ {
		rs := src.Split("rep")
		model := netsim.NewModel(netsim.Params{}, rs)
		delay.GenTrace(&tr, delay.TraceConfig{
			Duration:      2 * time.Minute,
			FramesPerItem: frames,
			Broadcaster:   delay.LabLocation,
			Path:          delay.LabPath(),
		}, model, rs)
		for i := 0; i < n/reps; i++ {
			p.Reset(pre)
			if s.Start(&tr, model, hls, time.Duration(rs.Float64()*float64(time.Minute)), 0) {
				out = append(out, s.Play(&p).Total())
			}
		}
	}
	return out
}

func runInteractivity(cfg Config) (*Result, error) {
	reps := 10
	viewers := 2000
	if cfg.Quick {
		reps, viewers = 3, 400
	}
	rtmpD := sessionDelays(cfg.Seed, false, reps, viewers)
	hlsD := sessionDelays(cfg.Seed+1, true, reps, viewers)
	src := rng.New(cfg.Seed + 31)
	reaction := func() time.Duration { return time.Duration(src.Exp(float64(2 * time.Second))) }
	mean := func(ds []time.Duration) float64 {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return (sum / time.Duration(len(ds))).Seconds()
	}

	values := map[string]float64{
		"rtmp_delay": mean(rtmpD),
		"hls_delay":  mean(hlsD),
	}
	var b strings.Builder
	b.WriteString("§1 interactivity: what end-to-end delay does to feedback\n\n")

	// Heart misattribution: events change every E seconds; a heart sent
	// for the event at stream time t arrives while the broadcaster is
	// showing stream time t + d + reaction. Misattributed when that is
	// a different event.
	t1 := &stats.Table{
		Title:   "Heart misattribution rate (hearts credited to the wrong stream event)",
		Headers: []string{"Event cadence", "RTMP viewers", "HLS viewers"},
	}
	for _, cadence := range []time.Duration{5 * time.Second, 10 * time.Second, 20 * time.Second, 60 * time.Second} {
		mis := func(delays []time.Duration) float64 {
			wrong := 0
			for _, d := range delays {
				eventAt := time.Duration(src.Float64() * float64(cadence)) // position within the event
				if eventAt+d+reaction() >= cadence {
					wrong++
				}
			}
			return float64(wrong) / float64(len(delays))
		}
		r := mis(rtmpD)
		h := mis(hlsD)
		t1.AddRow(cadence.String(), fmt.Sprintf("%.1f%%", 100*r), fmt.Sprintf("%.1f%%", 100*h))
		key := fmt.Sprintf("%ds", int(cadence.Seconds()))
		values["misattr_rtmp_"+key] = r
		values["misattr_hls_"+key] = h
	}
	b.WriteString(t1.String())

	// Vote discounting: the broadcaster opens a W-second vote; a viewer
	// sees the announcement d late, reacts, and the vote must arrive
	// (one uplink ≈ 150 ms) before the window closes.
	t2 := &stats.Table{
		Title:   "Discounted votes (cast after the real-time window closed)",
		Headers: []string{"Vote window", "RTMP viewers", "HLS viewers"},
	}
	const uplink = 150 * time.Millisecond
	for _, window := range []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		missed := func(delays []time.Duration) float64 {
			late := 0
			for _, d := range delays {
				if d+reaction()+uplink > window {
					late++
				}
			}
			return float64(late) / float64(len(delays))
		}
		r := missed(rtmpD)
		h := missed(hlsD)
		t2.AddRow(window.String(), fmt.Sprintf("%.1f%%", 100*r), fmt.Sprintf("%.1f%%", 100*h))
		key := fmt.Sprintf("%ds", int(window.Seconds()))
		values["missed_rtmp_"+key] = r
		values["missed_hls_"+key] = h
	}
	b.WriteString("\n")
	b.WriteString(t2.String())
	b.WriteString("\nThe HLS audience's feedback lags a full chunk-and-buffer pipeline behind the broadcast — the paper's case for why the first ~100 (RTMP) viewers are the only ones allowed to comment.\n")
	return &Result{Text: b.String(), Values: values}, nil
}
