package experiments

import (
	"fmt"
	"strings"

	"repro/internal/viewersim"
)

func init() {
	register("simday", "Full-day workload replay through the viewer event engine", runSimday)
}

// runSimday replays one simulated day of the paper's workload through
// internal/viewersim's timer-wheel engine: every broadcast the
// workload model draws, every viewer session, every chunk delivery. It is the
// scale counterpart to fig11 — the same Fig. 11 decomposition, but measured
// over the whole day's population instead of a fixed trace count, and cheap
// enough that -simday-scale 1 reproduces the paper's full volume.
func runSimday(cfg Config) (*Result, error) {
	sum, err := viewersim.Run(viewersim.Config{
		Seed:  cfg.Seed,
		Scale: cfg.Scale,
	})
	if err != nil {
		return nil, err
	}

	values := map[string]float64{
		"broadcasts": float64(sum.Broadcasts),
		"views":      float64(sum.Views),
		"rtmp_views": float64(sum.RTMPViews),
		"hls_views":  float64(sum.HLSViews),
		"chunks":     float64(sum.Chunks),
		"deliveries": float64(sum.Deliveries),
		"events":     float64(sum.Events),

		"rtmp_total":    sum.RTMP.Total().Seconds(),
		"hls_total":     sum.HLS.Total().Seconds(),
		"hls_chunking":  sum.HLS.Chunking.Seconds(),
		"hls_polling":   sum.HLS.Polling.Seconds(),
		"hls_buffering": sum.HLS.Buffering.Seconds(),
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Simulated day at 1:%g scale (seed %d)\n\n", cfg.Scale, cfg.Seed)
	b.WriteString(sum.String())
	b.WriteString("\n\nPaper: ~200K broadcasts/day; Fig. 11 mean delays RTMP ≈0.3s, HLS ≈11.4s\n")
	fmt.Fprintf(&b, "Measured: HLS/RTMP delay ratio %.1fx over %d views\n",
		values["hls_total"]/values["rtmp_total"], sum.Views)
	return &Result{Text: b.String(), Values: values}, nil
}
