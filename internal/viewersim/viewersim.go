// Package viewersim is the million-viewer event engine: it replays a full
// day of the paper's Periscope workload (§3) through the reproduced CDN at
// configurable scale — down to Scale=1, the paper's own volume of ~200K
// broadcasts and several million views in one simulated day — on a single
// machine.
//
// Two engines share one simulation model:
//
//   - Engine "wheel" (the default) multiplexes every broadcast and viewer
//     onto the timer wheel (clock.Wheel): per-viewer state machines
//     (join → poll/download → buffer → leave for HLS, join → frame-drain →
//     leave for RTMP) advance by timer callbacks, so a million concurrent
//     viewers cost a million pooled timer nodes instead of a million
//     goroutines doing loopback TCP. The day's broadcasts are split into one
//     partition per core, each with its own wheel and CDN, and the
//     partitions' totals are summed.
//   - Engine "goroutine" is the reference implementation: one goroutine per
//     broadcast and per viewer, serialized by a conservative coordinator
//     over its own wheel at a 1 ns resolution, where every deadline is
//     exact. It exists to anchor the equivalence suite — both engines draw
//     every random variate from per-entity rng streams, so a (seed, config)
//     pair produces identical delay observations from either engine.
//
// Delay accounting is internal/delay's Fig. 10 pipeline, the one the
// trace-driven experiments run: each broadcast gets a chunk-level
// delay.Trace of origin arrival (⑥), chunk-ready (⑦) and edge-arrival (⑪)
// offsets in the §4.3 controlled geometry (delay.LabPath: San Francisco
// broadcaster and viewers, nearest Wowza origin, nearest Fastly edge, gateway
// relay when they are not co-located), and each view is a delay.Session
// feeding a player.Player, so the per-component histograms land on the same
// Fig. 11 shape the controlled experiment reproduces. The simulated majority exercises the real cdn.Origin ingest →
// invalidation → cdn.Edge raw-chunklist fast path in process, while an
// optional slice of real-socket hls.Client / rtmp.Viewer instances (real.go)
// runs concurrently against loopback servers and reports into the same
// metrics registry.
package viewersim

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/delay"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Config parameterizes one simulated day.
type Config struct {
	// Seed drives all randomness; a (Seed, Config) pair fully determines
	// the run's delay observations regardless of engine.
	Seed uint64
	// Scale divides the paper's workload volume (1 = full paper scale,
	// default 100 — the repo-wide convention).
	Scale float64
	// DayFraction simulates only the first fraction of the day (default
	// 1.0). The scale-smoke CI target and Quick experiments shrink runs
	// with it instead of distorting Scale further.
	DayFraction float64
	// Broadcasts overrides the Poisson broadcast count when > 0.
	Broadcasts int
	// ViewersPerBroadcast overrides the per-broadcast view draw when > 0
	// (benchmarks use it to pin fan-out exactly).
	ViewersPerBroadcast int
	// BroadcastDuration overrides the lognormal duration draw when > 0.
	BroadcastDuration time.Duration
	// ViewerCap bounds simulated views per broadcast (0 = uncapped); the
	// -race smoke run uses it to bound event volume.
	ViewerCap int
	// Engine selects the scheduler: "wheel" (default) or "goroutine".
	Engine string
	// ChunkDuration (default 3 s) is the paper's HLS chunk; RTMPCap is the
	// 100-viewer RTMP limit (§2.1). Viewers poll at delay.HLSPollInterval and
	// pre-buffer delay.RTMPPreBuffer or delay.HLSPreBuffer.
	ChunkDuration time.Duration
	RTMPCap       int
	// RealHLS / RealRTMP size the real-socket fidelity slice: that many
	// hls.Client pollers and rtmp.Viewer sessions watch a short loopback
	// broadcast concurrently with the simulated run, reporting into the
	// same registry. Zero disables the slice (and keeps the run's metrics
	// byte-deterministic).
	RealHLS  int
	RealRTMP int
	// RealDuration is the fidelity broadcast's length (default 2 s of
	// wall time).
	RealDuration time.Duration
	// Metrics receives the proto-labelled delay-component histograms (the
	// same six series RunControlled and the live platform fill) plus the
	// cdn instruments; nil uses a private registry.
	Metrics *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 100
	}
	if c.DayFraction <= 0 || c.DayFraction > 1 {
		c.DayFraction = 1
	}
	if c.Engine == "" {
		c.Engine = "wheel"
	}
	if c.ChunkDuration <= 0 {
		c.ChunkDuration = media.DefaultChunkDuration
	}
	if c.RTMPCap <= 0 {
		c.RTMPCap = 100
	}
	if c.RealDuration <= 0 {
		c.RealDuration = 2 * time.Second
	}
	return c
}

// Summary is one run's aggregate outcome. Every field is a deterministic
// function of (Seed, Config) — wall-clock rates are deliberately left to the
// caller so summaries can be compared byte-for-byte across runs and engines
// (Events is the one engine-specific count: timer fires for the wheel,
// coordinator sleeps for the goroutine reference).
type Summary struct {
	Broadcasts int
	Views      int64
	RTMPViews  int64
	HLSViews   int64
	Chunks     int64
	Polls      int64
	Deliveries int64
	Events     int64
	// RTMP / HLS are the mean Fig. 11 component decompositions over every
	// finished view, read back from the registry histograms.
	RTMP delay.Components
	HLS  delay.Components
	// Start and End bound the run in simulated time.
	Start time.Time
	End   time.Time
	// Real-socket fidelity slice results (zero when disabled).
	RealHLS    int
	RealRTMP   int
	RealFrames int64
	RealPolls  int64
}

func (s *Summary) String() string {
	return fmt.Sprintf(
		"broadcasts=%d views=%d (rtmp=%d hls=%d) chunks=%d polls=%d deliveries=%d events=%d\n"+
			"rtmp: upload=%v lastmile=%v buffering=%v total=%v\n"+
			"hls:  upload=%v chunking=%v wowza2fastly=%v polling=%v lastmile=%v buffering=%v total=%v",
		s.Broadcasts, s.Views, s.RTMPViews, s.HLSViews, s.Chunks, s.Polls, s.Deliveries, s.Events,
		s.RTMP.Upload, s.RTMP.LastMile, s.RTMP.Buffering, s.RTMP.Total(),
		s.HLS.Upload, s.HLS.Chunking, s.HLS.Wowza2Fastly, s.HLS.Polling, s.HLS.LastMile, s.HLS.Buffering, s.HLS.Total())
}

// Run executes one simulated day under the configured engine and, when
// RealHLS/RealRTMP are set, the concurrent real-socket fidelity slice. The
// wheel engine splits the day into Partitions(broadcasts) partitions, one
// per core; the Summary is the same at any count.
func Run(cfg Config) (*Summary, error) {
	return run(cfg, runtime.GOMAXPROCS(0))
}

// Partitions is how many wheel partitions Run uses for a day of the given
// number of broadcasts: one per core GOMAXPROCS allows, at most one per
// broadcast, at least one.
func Partitions(broadcasts int) int {
	return partitions(runtime.GOMAXPROCS(0), broadcasts)
}

func partitions(cores, broadcasts int) int {
	return max(1, min(cores, broadcasts))
}

// run is Run with the core count the wheel engine partitions for given
// explicitly, so tests can pin it.
func run(cfg Config, cores int) (*Summary, error) {
	cfg = cfg.withDefaults()
	w := buildWorld(cfg)
	s := newSim(cfg, w)

	var (
		real    *realResult
		realErr error
		realCh  chan struct{}
	)
	if cfg.RealHLS > 0 || cfg.RealRTMP > 0 {
		realCh = make(chan struct{})
		go func() {
			defer close(realCh)
			real, realErr = runReal(cfg, s.reg)
		}()
	}

	switch cfg.Engine {
	case "wheel":
		s.runWheel(partitions(cores, len(w.specs)))
	case "goroutine":
		s.runReference()
	default:
		return nil, fmt.Errorf("viewersim: unknown engine %q (want wheel or goroutine)", cfg.Engine)
	}

	if realCh != nil {
		<-realCh
		if realErr != nil {
			return nil, fmt.Errorf("viewersim: real-socket slice: %w", realErr)
		}
	}

	sum := s.summary()
	if real != nil {
		sum.RealHLS = real.hlsViewers
		sum.RealRTMP = real.rtmpViewers
		sum.RealFrames = real.frames
		sum.RealPolls = real.polls
	}
	return sum, nil
}

// bcastSpec is one broadcast's pre-drawn shape. Everything event-time about
// a broadcast derives from the spec plus its keyed rng stream, so both
// engines materialize identical broadcasts in any order.
type bcastSpec struct {
	idx   int
	start time.Duration // offset from day start
	dur   time.Duration
	views int
	rtmp  int // the first rtmp joiners (by join time) use RTMP (§2.1)
}

// simDay is the day simulated, an index into the 98-day Periscope window:
// mid-window, where the daily rate crosses the paper's average.
const simDay = 49

// world is the immutable run setting: the drawn broadcast specs plus the
// §4.3 controlled path every trace and viewer uses (delay.LabPath).
type world struct {
	cfg      Config
	start    time.Time // absolute day start (the clock epoch)
	window   time.Duration
	specs    []bcastSpec
	path     delay.EdgePath
	perChunk int
}

func buildWorld(cfg Config) *world {
	prof := workload.Periscope(cfg.Scale)
	w := &world{
		cfg:      cfg,
		start:    prof.Start.AddDate(0, 0, simDay),
		window:   time.Duration(cfg.DayFraction * 24 * float64(time.Hour)),
		path:     delay.LabPath(),
		perChunk: media.FramesPerChunk(cfg.ChunkDuration),
	}

	src := rng.New(cfg.Seed).Split("viewersim")
	n := cfg.Broadcasts
	if n <= 0 {
		n = src.Poisson(prof.DailyRate(simDay) * cfg.DayFraction)
	}
	w.specs = make([]bcastSpec, 0, n)
	for i := 0; i < n; i++ {
		sp := bcastSpec{idx: i}
		sp.start = time.Duration(src.Float64() * float64(w.window))
		if cfg.BroadcastDuration > 0 {
			sp.dur = cfg.BroadcastDuration
		} else {
			sp.dur = prof.DrawDuration(src)
		}
		if cfg.ViewersPerBroadcast > 0 {
			sp.views = cfg.ViewersPerBroadcast
		} else {
			// Followers are 0 here: the day engine models audience size
			// without the social-notification boost (no graph at this
			// layer), the workload package's Meerkat-style base draw.
			total, _ := prof.DrawViews(src, 0)
			sp.views = int(total)
		}
		if cfg.ViewerCap > 0 && sp.views > cfg.ViewerCap {
			sp.views = cfg.ViewerCap
		}
		sp.rtmp = sp.views
		if sp.rtmp > cfg.RTMPCap {
			sp.rtmp = cfg.RTMPCap
		}
		w.specs = append(w.specs, sp)
	}
	sort.Slice(w.specs, func(i, j int) bool {
		if w.specs[i].start != w.specs[j].start {
			return w.specs[i].start < w.specs[j].start
		}
		return w.specs[i].idx < w.specs[j].idx
	})
	return w
}

// mix64 is the SplitMix64 finalizer — a bijection on uint64, so the disjoint
// raw key spaces below stay disjoint after mixing while decorrelating the
// rng streams of adjacent indices.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bcastKey and viewerKey select each entity's private rng stream (draw
// independence). Raw inputs are disjoint by the low bit and mix64 is a
// bijection, so keys never collide across entities.
func bcastKey(idx int) uint64 { return mix64(uint64(idx) << 1) }

func viewerKey(bidx, vidx int) uint64 {
	return mix64((uint64(bidx)<<22|uint64(vidx)&(1<<21-1))<<1 | 1)
}
