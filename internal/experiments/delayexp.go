package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/delay"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/rng"
	"repro/internal/stats"
)

func init() {
	register("fig11", "HLS/RTMP end-to-end delay breakdown", runFig11)
	register("fig12", "CDF of average polling delay with different polling intervals", runFig12)
	register("fig13", "CDF of polling delay variance with different polling intervals", runFig13)
	register("fig15", "Wowza-to-Fastly delay by datacenter distance", runFig15)
	register("fig16", "RTMP: impact of pre-buffer size on buffering delay and stalling", runFig16)
	register("fig17", "HLS: impact of pre-buffer size on buffering delay and stalling", runFig17)
}

// replayTraces generates n broadcasts of the §4.3 lab setting at the given
// granularity and edge path — durations of 2 min plus an exponential 2 min,
// capped at 8 min; a burstyShare of them bursty — the paper's
// 16,013-broadcast corpus, scaled. It hands each trace to fn with the model
// and stream its sessions draw from.
func replayTraces(cfg Config, n, frames int, path delay.EdgePath, burstyShare float64, fn func(*delay.Trace, *netsim.Model, *rng.Source)) {
	src := rng.New(cfg.Seed)
	var tr delay.Trace
	for i := 0; i < n; i++ {
		dur := min(2*time.Minute+time.Duration(src.Exp(float64(2*time.Minute))), 8*time.Minute)
		bursty := src.Bool(burstyShare)
		ts := src.Split(fmt.Sprintf("t%d", i))
		model := netsim.NewModel(netsim.Params{}, ts)
		delay.GenTrace(&tr, delay.TraceConfig{
			Duration:      dur,
			FramesPerItem: frames,
			Broadcaster:   delay.LabLocation,
			Path:          path,
			Bursty:        bursty,
		}, model, ts)
		fn(&tr, model, ts)
	}
}

// beforeStart is an HLS viewer's join: at a random phase of its poll grid,
// before the broadcast starts, so it watches from the first chunk.
func beforeStart(src *rng.Source, poll time.Duration) time.Duration {
	return -time.Duration(src.Float64() * float64(poll))
}

// meanW2F is a trace's mean Wowza2Fastly delay (⑪−⑦) in seconds.
func meanW2F(tr *delay.Trace) float64 {
	var sum time.Duration
	for i, at := range tr.EdgeAt {
		sum += at - tr.ReadyAt[i]
	}
	return (sum / time.Duration(tr.Items())).Seconds()
}

func runFig11(cfg Config) (*Result, error) {
	reps := 10
	if cfg.Quick {
		reps = 3
	}
	r, h := delay.RunControlled(delay.ControlledConfig{Seed: cfg.Seed, Repetitions: reps})
	var b strings.Builder
	b.WriteString("Figure 11: HLS/RTMP end-to-end delay breakdown (mean over controlled runs)\n\n")
	row := func(name string, c delay.Components) {
		fmt.Fprintf(&b, "%-5s upload=%s chunking=%s wowza2fastly=%s polling=%s lastmile=%s buffering=%s TOTAL=%s\n",
			name, secs(c.Upload.Seconds()), secs(c.Chunking.Seconds()),
			secs(c.Wowza2Fastly.Seconds()), secs(c.Polling.Seconds()),
			secs(c.LastMile.Seconds()), secs(c.Buffering.Seconds()), secs(c.Total().Seconds()))
	}
	row("RTMP", r)
	row("HLS", h)
	b.WriteString("\nPaper: RTMP ≈1.4s total; HLS ≈11.7s with buffering 6.9s, chunking 3s, polling 1.2s, Wowza2Fastly 0.3s.\n")
	return &Result{
		Text: b.String(),
		Values: map[string]float64{
			"rtmp_total":       r.Total().Seconds(),
			"hls_total":        h.Total().Seconds(),
			"hls_buffering":    h.Buffering.Seconds(),
			"hls_chunking":     h.Chunking.Seconds(),
			"hls_polling":      h.Polling.Seconds(),
			"hls_wowza2fastly": h.Wowza2Fastly.Seconds(),
			"hls_over_rtmp":    float64(h.Total()) / float64(r.Total()),
		},
	}, nil
}

// pollingStats computes the per-broadcast mean and std-dev of polling delay
// for each interval — the underlying data of Figures 12 and 13.
func pollingStats(cfg Config, intervals []time.Duration) (means, stds map[time.Duration][]float64) {
	means = make(map[time.Duration][]float64)
	stds = make(map[time.Duration][]float64)
	var s delay.Session
	var ds []float64
	replayTraces(cfg, cfg.Broadcasts, 0, delay.LabPath(), 0, func(tr *delay.Trace, model *netsim.Model, src *rng.Source) {
		for _, iv := range intervals {
			s.Start(tr, model, true, beforeStart(src, iv), iv)
			ds = ds[:0]
			for i, done := 0, false; !done; i++ {
				ds = append(ds, (s.Next() - tr.EdgeAt[i]).Seconds())
				_, _, done = s.Step()
			}
			means[iv] = append(means[iv], stats.Mean(ds))
			stds[iv] = append(stds[iv], stats.StdDev(ds))
		}
	})
	return means, stds
}

var pollIntervals = []time.Duration{2 * time.Second, 3 * time.Second, 4 * time.Second}

func runFig12(cfg Config) (*Result, error) {
	means, _ := pollingStats(cfg, pollIntervals)
	fig := &stats.Figure{Title: "Figure 12: CDF of average polling delay per broadcast", XLabel: "seconds", YLabel: "CDF"}
	values := map[string]float64{}
	for _, iv := range pollIntervals {
		c := stats.NewCDF(means[iv])
		fig.Add(iv.String(), c.Points(50))
		values[fmt.Sprintf("mean_%ds", int(iv.Seconds()))] = stats.Mean(means[iv])
		values[fmt.Sprintf("spread_%ds", int(iv.Seconds()))] = stats.StdDev(means[iv])
	}
	return &Result{Text: fig.String(), Values: values}, nil
}

func runFig13(cfg Config) (*Result, error) {
	_, stds := pollingStats(cfg, pollIntervals)
	fig := &stats.Figure{Title: "Figure 13: CDF of polling delay std-dev per broadcast", XLabel: "seconds", YLabel: "CDF"}
	values := map[string]float64{}
	for _, iv := range pollIntervals {
		c := stats.NewCDF(stds[iv])
		fig.Add(iv.String(), c.Points(50))
		values[fmt.Sprintf("std_%ds", int(iv.Seconds()))] = stats.Mean(stds[iv])
	}
	return &Result{Text: fig.String(), Values: values}, nil
}

func runFig15(cfg Config) (*Result, error) {
	// Group every (Wowza, Fastly) pair by distance class, then measure
	// per-broadcast mean Wowza2Fastly delay with the crawler's 0.1 s
	// trigger polling. Non-co-located pairs route through the gateway.
	classes := map[geo.DistanceClass][][2]geo.Datacenter{}
	for _, w := range geo.WowzaSites() {
		for _, f := range geo.FastlySites() {
			cl := geo.Classify(w, f)
			classes[cl] = append(classes[cl], [2]geo.Datacenter{w, f})
		}
	}
	perClass := cfg.Broadcasts / 5
	if perClass < 5 {
		perClass = 5
	}
	src := rng.New(cfg.Seed + 11)
	var tr delay.Trace
	fig := &stats.Figure{Title: "Figure 15: Wowza-to-Fastly delay", XLabel: "seconds", YLabel: "CDF"}
	values := map[string]float64{}
	order := []geo.DistanceClass{
		geo.ClassCoLocated, geo.ClassUnder500, geo.ClassUnder5000,
		geo.ClassUnder10000, geo.ClassOver10000,
	}
	for _, cl := range order {
		pairs := classes[cl]
		if len(pairs) == 0 {
			continue
		}
		var means []float64
		for b := 0; b < perClass; b++ {
			pair := pairs[src.Intn(len(pairs))]
			bs := src.Split(fmt.Sprintf("f15-%d-%d", cl, b))
			path := delay.EdgePath{Origin: pair[0], Edge: pair[1]}
			if gw := geo.Gateway(pair[0]); cl != geo.ClassCoLocated && gw != nil && gw.ID != pair[1].ID {
				path.Gateway = gw
			}
			delay.GenTrace(&tr, delay.TraceConfig{
				Duration:    90 * time.Second,
				Broadcaster: pair[0].Location,
				Path:        path,
			}, netsim.NewModel(netsim.Params{}, bs), bs)
			means = append(means, meanW2F(&tr))
		}
		c := stats.NewCDF(means)
		fig.Add(cl.String(), c.Points(40))
		values["median_"+classKey(cl)] = c.Quantile(0.5)
	}
	values["colocation_gap"] = values["median_under500"] - values["median_colocated"]
	return &Result{Text: fig.String(), Values: values}, nil
}

func classKey(c geo.DistanceClass) string {
	switch c {
	case geo.ClassCoLocated:
		return "colocated"
	case geo.ClassUnder500:
		return "under500"
	case geo.ClassUnder5000:
		return "under5000"
	case geo.ClassUnder10000:
		return "under10000"
	default:
		return "over10000"
	}
}

// bufferSweep runs the Figures 16/17 simulation: stall-ratio and buffering
// delay CDFs for each pre-buffer value. Each broadcast's session feeds one
// player per P in one pass. RTMP is traced per frame, HLS per chunk.
func bufferSweep(cfg Config, hls bool, preBuffers []time.Duration) (*Result, error) {
	frames, path := 1, delay.LabPath()
	proto := "RTMP"
	if hls {
		// In real viewing (unlike the 0.1s crawler probe) the edge pull
		// is triggered by some other viewer's own ~2.8s poll,
		// compounding the polling beat.
		frames, path.TriggerPollInterval, proto = 0, delay.HLSPollInterval, "HLS"
	}
	players := make([]*player.Player, len(preBuffers))
	for i := range players {
		players[i] = new(player.Player)
	}
	stalls := make([][]float64, len(preBuffers))
	delays := make([][]float64, len(preBuffers))
	var s delay.Session
	// 10% bursty uploads (Fig. 16b tail).
	replayTraces(cfg, cfg.Broadcasts, frames, path, 0.10, func(tr *delay.Trace, model *netsim.Model, src *rng.Source) {
		for i, p := range players {
			p.Reset(preBuffers[i])
		}
		var join time.Duration
		if hls {
			join = beforeStart(src, delay.HLSPollInterval)
		}
		s.Start(tr, model, hls, join, 0)
		s.Play(players...)
		for i, p := range players {
			r := p.Result()
			stalls[i] = append(stalls[i], r.StallRatio)
			delays[i] = append(delays[i], r.MeanBufferingDelay.Seconds())
		}
	})

	stallFig := &stats.Figure{XLabel: "stall ratio", YLabel: "CDF",
		Title: fmt.Sprintf("Figure %s: %s stall ratio vs pre-buffer", figNum(hls, "a"), proto)}
	delayFig := &stats.Figure{XLabel: "buffering delay (s)", YLabel: "CDF",
		Title: fmt.Sprintf("Figure %s: %s buffering delay vs pre-buffer", figNum(hls, "b"), proto)}
	values := map[string]float64{}
	for i, p := range preBuffers {
		label := fmt.Sprintf("%gs", p.Seconds())
		stallFig.Add(label, stats.NewCDF(stalls[i]).Points(50))
		delayFig.Add(label, stats.NewCDF(delays[i]).Points(50))
		key := strings.ReplaceAll(label, ".", "_")
		values["stall_p"+key] = stats.Mean(stalls[i])
		values["delay_p"+key] = stats.Mean(delays[i])
	}
	return &Result{Text: stallFig.String() + "\n" + delayFig.String(), Values: values}, nil
}

func figNum(hls bool, sub string) string {
	if hls {
		return "17(" + sub + ")"
	}
	return "16(" + sub + ")"
}

func runFig16(cfg Config) (*Result, error) {
	return bufferSweep(cfg, false, []time.Duration{0, 500 * time.Millisecond, time.Second})
}

func runFig17(cfg Config) (*Result, error) {
	return bufferSweep(cfg, true, []time.Duration{0, 3 * time.Second, 6 * time.Second, 9 * time.Second})
}
