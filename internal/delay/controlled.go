package delay

import (
	"time"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// DefaultGatewayOverhead is the extra coordination delay of the gateway
// relay, calibrated to the >0.25 s gap the paper measures between co-located
// and nearby datacenter pairs (Fig. 15, §5.3).
const DefaultGatewayOverhead = 250 * time.Millisecond

// ControlledConfig reproduces the §4.3 controlled experiment: one
// broadcaster, one RTMP viewer, one HLS viewer, stable WiFi, repeated runs.
type ControlledConfig struct {
	// Repetitions averages this many runs (the paper used 10).
	Repetitions int
	// BroadcastDuration per run (content time).
	BroadcastDuration time.Duration
	// ChunkDuration for HLS (default 3 s).
	ChunkDuration time.Duration
	// PollInterval of the HLS viewer (default 2.8 s, §5.2 upper bound).
	PollInterval time.Duration
	// RTMPPreBuffer / HLSPreBuffer are the client P values (defaults 1 s
	// and 9 s, the shipped Periscope configuration, §6).
	RTMPPreBuffer time.Duration
	HLSPreBuffer  time.Duration
	// Broadcaster / Viewer locations; defaults put both in San Francisco
	// with the San Jose origin and edge (the paper's lab setting keeps
	// the WAN short).
	Broadcaster geo.Location
	Viewer      geo.Location
	// Access profiles; default WiFi on both ends.
	UploadProfile netsim.AccessProfile
	ViewerProfile netsim.AccessProfile
	// Seed drives all randomness.
	Seed uint64
	// Metrics, when set, receives one observation per run into each of the
	// six per-component delay histograms, labelled proto=rtmp|hls — the same
	// series the live platform populates, so the controlled experiment and
	// the running system share one instrument catalog. Nil uses a private
	// registry.
	Metrics *metrics.Registry
}

func (c ControlledConfig) withDefaults() ControlledConfig {
	if c.Repetitions == 0 {
		c.Repetitions = 10
	}
	if c.BroadcastDuration == 0 {
		c.BroadcastDuration = 2 * time.Minute
	}
	if c.PollInterval == 0 {
		c.PollInterval = 2800 * time.Millisecond
	}
	if c.RTMPPreBuffer == 0 {
		c.RTMPPreBuffer = time.Second
	}
	if c.HLSPreBuffer == 0 {
		c.HLSPreBuffer = 9 * time.Second
	}
	zero := geo.Location{}
	if c.Broadcaster == zero {
		c.Broadcaster = geo.Location{City: "San Francisco", Continent: geo.NorthAmerica, Lat: 37.77, Lon: -122.42}
	}
	if c.Viewer == zero {
		c.Viewer = geo.Location{City: "San Francisco", Continent: geo.NorthAmerica, Lat: 37.77, Lon: -122.42}
	}
	if c.UploadProfile.Name == "" {
		c.UploadProfile = netsim.WiFi
	}
	if c.ViewerProfile.Name == "" {
		c.ViewerProfile = netsim.WiFi
	}
	return c
}

// RunControlled executes the controlled experiment and returns the averaged
// RTMP and HLS component breakdowns — the two bars of Figure 11. Per-run
// component delays are observed into the registry's delay histograms
// (proto=rtmp / proto=hls); the returned averages are read back from those
// instruments, so the harness has no accumulator state of its own.
func RunControlled(cfg ControlledConfig) (rtmpAvg, hlsAvg Components) {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed)
	origin := geo.Nearest(cfg.Broadcaster, geo.WowzaSites())
	edge := geo.Nearest(cfg.Viewer, geo.FastlySites())
	gw := geo.Gateway(origin)

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	rHists := NewComponentHists(reg, "rtmp")
	hHists := NewComponentHists(reg, "hls")
	for rep := 0; rep < cfg.Repetitions; rep++ {
		model := netsim.NewModel(netsim.Params{}, src.Split("rep"))
		tr := GenTrace(TraceConfig{
			Duration:      cfg.BroadcastDuration,
			ChunkDuration: cfg.ChunkDuration,
			Broadcaster:   cfg.Broadcaster,
			Origin:        origin,
			Upload:        cfg.UploadProfile,
		}, model, src)

		rtmpView := ViewerConfig{
			Location:  cfg.Viewer,
			LastMile:  cfg.ViewerProfile,
			PreBuffer: cfg.RTMPPreBuffer,
		}
		rHists.Observe(RTMPComponents(tr, origin, rtmpView, model))

		path := EdgePath{Edge: edge, GatewayOverhead: DefaultGatewayOverhead}
		if gw != nil && !geo.CoLocated(*gw, edge) {
			path.Gateway = gw
		}
		hlsView := ViewerConfig{
			Location:     cfg.Viewer,
			LastMile:     cfg.ViewerProfile,
			PollInterval: cfg.PollInterval,
			PollPhase:    time.Duration(src.Float64() * float64(cfg.PollInterval)),
			PreBuffer:    cfg.HLSPreBuffer,
		}
		hHists.Observe(HLSComponents(tr, origin, path, hlsView, model))
	}
	return rHists.Means(), hHists.Means()
}

// ComponentHists bundles the six per-component delay histograms for one
// protocol — the shared accounting surface of RunControlled and the
// viewersim engines. A shared registry may carry observations from earlier
// runs (the platform's live traffic, a prior RunControlled), so each
// histogram's count and sum are recorded at construction and Means reports
// the delta — the average over exactly this experiment's observations.
type ComponentHists struct {
	hists [6]*metrics.Histogram
	base  [6]histBase
}

type histBase struct {
	count int64
	sum   time.Duration
}

// NewComponentHists registers (or re-attaches to) the six delay-component
// histograms labelled proto=<proto> and snapshots their current totals as
// the Means baseline.
func NewComponentHists(reg *metrics.Registry, proto string) *ComponentHists {
	l := metrics.L("proto", proto)
	names := [6]string{
		metrics.DelayUpload,
		metrics.DelayChunking,
		metrics.DelayOriginEdge,
		metrics.DelayPolling,
		metrics.DelayLastMile,
		metrics.DelayBuffering,
	}
	ch := &ComponentHists{}
	for i, name := range names {
		h := reg.Histogram(name, metrics.DelayBuckets, l)
		ch.hists[i] = h
		ch.base[i] = histBase{count: h.Count(), sum: h.Sum()}
	}
	return ch
}

// Observe records one value into each component histogram.
func (ch *ComponentHists) Observe(c Components) {
	vals := [6]time.Duration{c.Upload, c.Chunking, c.Wowza2Fastly, c.Polling, c.LastMile, c.Buffering}
	for i, h := range ch.hists {
		h.Observe(vals[i])
	}
}

// Means returns the per-component averages over the observations made since
// construction.
func (ch *ComponentHists) Means() Components {
	var vals [6]time.Duration
	for i, h := range ch.hists {
		n := h.Count() - ch.base[i].count
		if n > 0 {
			vals[i] = (h.Sum() - ch.base[i].sum) / time.Duration(n)
		}
	}
	return Components{
		Upload:       vals[0],
		Chunking:     vals[1],
		Wowza2Fastly: vals[2],
		Polling:      vals[3],
		LastMile:     vals[4],
		Buffering:    vals[5],
	}
}
