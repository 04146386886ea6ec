package main

import (
	_ "embed"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/viewersim"
)

// simday: each window is one viewersim.Run — a stretch of the paper's
// Periscope day replayed through the timer-wheel engine and the in-process
// origin/edge pull path — with seeds seed, seed+1, … An op is one simulated
// event.
//
// Why this workload: it is the million-viewer engine (viewersim, clock.Wheel,
// in-process cdn pulls) with no sockets at all, the target of the roadmap's
// scale-out item. A socket-path change must not move it, and an engine change
// must move nothing else.
//
// The replayed population is pinned — how many broadcasts, how long, how many
// viewers each — and only when they start, join, poll and jitter is drawn from
// the seed. With the day's own heavy-tailed audience and duration draws, a
// window of a few thousand broadcasts is dominated by its handful of largest
// ones, and events, allocations per event and set-up time all moved by 6–16 %
// from seed to seed: input variation the driver would have read as noise.
const (
	// simViewers per broadcast: the first 100 are pushed over RTMP (the
	// paper's cap), the other 300 poll HLS, so both paths and the hand-over
	// between them are exercised.
	simViewers  = 400
	simDuration = 3 * time.Minute
	// simDayFraction is the stretch of the day broadcast starts are spread
	// over (72 minutes), which sets how many are live at once.
	simDayFraction = 0.05
	// simBroadcastsPerSecond sizes a window (see fanFramesPerSecond): about
	// 16 500 events per broadcast.
	simBroadcastsPerSecond = 75
	// simWarmBroadcasts is the fixed warm-up run's size.
	simWarmBroadcasts = 160
	// simGoldenSeconds is the run length the checked-in summaries were taken
	// at; they apply to seed 1 at that length only.
	simGoldenSeconds = 12
	simGoldenSeed    = 1
)

// goldenSummaries holds viewersim's Summary.String() for seeds 1, 2, 3 at the
// default run length, blank-line separated. A run with the default seed must
// reproduce them byte for byte.
//
//go:embed simday_golden.txt
var goldenSummaries string

type simday struct {
	p    params
	last *viewersim.Summary
	wall time.Duration // Σ wall of the measured runs
	evs  int64
}

func newSimday(p params) workload { return &simday{p: p} }

func (w *simday) config(seed uint64, broadcasts int) viewersim.Config {
	return viewersim.Config{
		Seed:                seed,
		DayFraction:         simDayFraction,
		Broadcasts:          broadcasts,
		ViewersPerBroadcast: simViewers,
		BroadcastDuration:   simDuration,
		Engine:              "wheel",
	}
}

// setUp is the fixed-count warm-up: one smaller run that pages in the engine,
// grows the heap to its working size and fills the viewer pools.
func (w *simday) setUp() error {
	sum, err := viewersim.Run(w.config(w.p.seed, simWarmBroadcasts))
	if err != nil {
		return err
	}
	if bad := checkSummary(sum); bad != "" {
		return fmt.Errorf("warm-up summary: %s", bad)
	}
	return nil
}

// windowConfig is window i's run: seed+i, sized by the run length.
func (w *simday) windowConfig(i int) viewersim.Config {
	return w.config(w.p.seed+uint64(i), int(w.p.scaled(simBroadcastsPerSecond, 1)))
}

func (w *simday) window(i int) (attempted, failed int64) {
	sp := w.p.tr.start("viewersim.run", int64(i), noSpan)
	t0 := time.Now()
	sum, err := viewersim.Run(w.windowConfig(i))
	w.wall += time.Since(t0)
	w.p.tr.end(sp)
	if err != nil {
		return 1, 1
	}
	w.last = sum
	w.evs += sum.Events
	bad := checkSummary(sum)
	if bad == "" && w.p.seed == simGoldenSeed && w.p.seconds == simGoldenSeconds && i < windows {
		if want := goldenFor(i); sum.String() != want {
			bad = fmt.Sprintf("summary differs from golden %d:\n got: %s\nwant: %s", i, sum.String(), want)
		}
	}
	if bad != "" {
		fmt.Fprintln(os.Stderr, "simday:", bad)
		return sum.Events, sum.Events
	}
	return sum.Events, 0
}

func goldenFor(i int) string {
	parts := strings.Split(strings.TrimSpace(goldenSummaries), "\n\n")
	if i >= len(parts) {
		return ""
	}
	return parts[i]
}

// checkSummary applies the invariants any seed must satisfy and returns the
// first violated one, or "".
func checkSummary(s *viewersim.Summary) string {
	switch total := s.HLS.Total(); {
	case s.Events <= 0:
		return "no events fired"
	case s.Views != s.RTMPViews+s.HLSViews:
		return fmt.Sprintf("views %d != rtmp %d + hls %d", s.Views, s.RTMPViews, s.HLSViews)
	case s.Deliveries <= 0:
		return "no deliveries"
	case s.HLSViews > 0 && (total < 9*time.Second || total > 12*time.Second):
		return fmt.Sprintf("HLS total delay %v outside 9–12 s", total)
	}
	return ""
}

func (w *simday) tearDown() {}

// registry: each viewersim.Run keeps a private registry; simday reads the
// run's Summary instead.
func (w *simday) registry() *metrics.Registry { return nil }

// paced has nothing to do: simulated time has no arrival process to pace and
// no wall-clock latency to report.
func (w *simday) paced(float64, time.Duration) pacedResult { return pacedResult{} }

func (w *simday) layers(lc *layerCtx) {
	s := w.last
	if s == nil {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	lc.m["viewersim.ns_per_event"] = div(float64(w.wall.Nanoseconds()), float64(w.evs))
	lc.m["viewersim.events"] = float64(s.Events)
	lc.m["viewersim.views"] = float64(s.Views)
	lc.m["viewersim.polls"] = float64(s.Polls)
	lc.m["viewersim.deliveries"] = float64(s.Deliveries)
	lc.m["viewersim.chunks"] = float64(s.Chunks)
	lc.m["viewersim.delay_hls_ms"] = ms(s.HLS.Total())
	lc.m["viewersim.delay_rtmp_ms"] = ms(s.RTMP.Total())
	lc.m["viewersim.delay_chunking_ms"] = ms(s.HLS.Chunking)
	lc.m["viewersim.delay_polling_ms"] = ms(s.HLS.Polling)
	lc.m["viewersim.delay_buffering_ms"] = ms(s.HLS.Buffering)
	probeWheel(lc.m, s.Events)
}
