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

// traceBundle generates the per-broadcast CDN traces the client-side
// simulations replay (the paper's 16,013-broadcast corpus, scaled).
type traceBundle struct {
	traces []*delay.Trace
	models []*netsim.Model
	origin geo.Datacenter
}

func genTraces(cfg Config, n int, burstyShare float64) *traceBundle {
	src := rng.New(cfg.Seed)
	sf := delay.LabLocation
	origin := geo.Nearest(sf, geo.WowzaSites())
	tb := &traceBundle{origin: origin}
	for i := 0; i < n; i++ {
		model := netsim.NewModel(netsim.Params{}, src.Split(fmt.Sprintf("m%d", i)))
		dur := 2*time.Minute + time.Duration(src.Exp(float64(2*time.Minute)))
		if dur > 8*time.Minute {
			dur = 8 * time.Minute
		}
		tr := delay.GenTrace(delay.TraceConfig{
			Duration:    dur,
			Broadcaster: sf,
			Origin:      origin,
			Upload:      netsim.WiFi,
			Bursty:      src.Bool(burstyShare),
		}, model, src.Split(fmt.Sprintf("t%d", i)))
		tb.traces = append(tb.traces, tr)
		tb.models = append(tb.models, model)
	}
	return tb
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
	tb := genTraces(cfg, cfg.Broadcasts, 0)
	src := rng.New(cfg.Seed + 7)
	means = make(map[time.Duration][]float64)
	stds = make(map[time.Duration][]float64)
	for i, tr := range tb.traces {
		edge := geo.Nearest(tb.origin.Location, geo.FastlySites())
		edgeAt := delay.EdgeArrivals(tr, tb.origin, delay.EdgePath{Edge: edge}, tb.models[i])
		for _, interval := range intervals {
			phase := time.Duration(src.Float64() * float64(interval))
			seen := delay.PollObservations(edgeAt, interval, phase)
			ds := delay.PollingDelays(edgeAt, seen)
			var xs []float64
			for _, d := range ds {
				xs = append(xs, d.Seconds())
			}
			means[interval] = append(means[interval], stats.Mean(xs))
			stds[interval] = append(stds[interval], stats.StdDev(xs))
		}
	}
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
			model := netsim.NewModel(netsim.Params{}, src.Split(fmt.Sprintf("f15-%d-%d", cl, b)))
			tr := delay.GenTrace(delay.TraceConfig{
				Duration:    90 * time.Second,
				Broadcaster: pair[0].Location,
				Origin:      pair[0],
				Upload:      netsim.WiFi,
			}, model, src.Split(fmt.Sprintf("t15-%d-%d", cl, b)))
			path := delay.EdgePath{Edge: pair[1]}
			if cl != geo.ClassCoLocated {
				gw := geo.Gateway(pair[0])
				if gw != nil && gw.ID != pair[1].ID {
					path.Gateway = gw
					path.GatewayOverhead = delay.DefaultGatewayOverhead
				}
			}
			edgeAt := delay.EdgeArrivals(tr, pair[0], path, model)
			var sum float64
			for i := range edgeAt {
				sum += edgeAt[i].Sub(tr.Chunks[i].ReadyAt).Seconds()
			}
			means = append(means, sum/float64(len(edgeAt)))
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
// delay CDFs for each pre-buffer value.
func bufferSweep(cfg Config, hls bool, preBuffers []time.Duration) (*Result, error) {
	tb := genTraces(cfg, cfg.Broadcasts, 0.10) // 10% bursty uploads (Fig. 16b tail)
	src := rng.New(cfg.Seed + 13)
	stallFig := &stats.Figure{XLabel: "stall ratio", YLabel: "CDF"}
	delayFig := &stats.Figure{XLabel: "buffering delay (s)", YLabel: "CDF"}
	values := map[string]float64{}
	sf := delay.LabLocation
	proto := "RTMP"
	if hls {
		proto = "HLS"
	}
	stallFig.Title = fmt.Sprintf("Figure %s: %s stall ratio vs pre-buffer", figNum(hls, "a"), proto)
	delayFig.Title = fmt.Sprintf("Figure %s: %s buffering delay vs pre-buffer", figNum(hls, "b"), proto)

	// Precompute per-trace items once per protocol, then sweep P.
	items := make([][]player.Item, len(tb.traces))
	for i, tr := range tb.traces {
		v := delay.ViewerConfig{Location: sf, LastMile: netsim.WiFi,
			PollInterval: delay.HLSPollInterval,
			PollPhase:    time.Duration(src.Float64() * float64(delay.HLSPollInterval))}
		if hls {
			edge := geo.Nearest(sf, geo.FastlySites())
			// In real viewing (unlike the 0.1s crawler probe) the
			// edge pull is triggered by some other viewer's own
			// ~2.8s poll, compounding the polling beat.
			path := delay.EdgePath{
				Edge:                edge,
				TriggerPollInterval: delay.HLSPollInterval,
				TriggerPollPhase:    time.Duration(src.Float64() * float64(delay.HLSPollInterval)),
			}
			edgeAt := delay.EdgeArrivals(tr, tb.origin, path, tb.models[i])
			its, _, _ := delay.HLSItems(tr, edgeAt, v, tb.models[i])
			items[i] = its
		} else {
			its, _ := delay.RTMPItems(tr, tb.origin, v, tb.models[i])
			items[i] = its
		}
	}
	for _, p := range preBuffers {
		var stalls, delays []float64
		for i := range items {
			res := player.Simulate(items[i], player.Config{PreBuffer: p})
			stalls = append(stalls, res.StallRatio)
			delays = append(delays, res.MeanBufferingDelay.Seconds())
		}
		label := fmt.Sprintf("%gs", p.Seconds())
		stallFig.Add(label, stats.NewCDF(stalls).Points(50))
		delayFig.Add(label, stats.NewCDF(delays).Points(50))
		key := strings.ReplaceAll(label, ".", "_")
		values["stall_p"+key] = stats.Mean(stalls)
		values["delay_p"+key] = stats.Mean(delays)
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
