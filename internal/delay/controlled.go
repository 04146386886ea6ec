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

// LabLocation is the §4.3 lab placement of broadcaster and viewers: San
// Francisco, served by the San Jose origin and edge, which keeps the WAN
// short. viewersim's simulated day uses the same geometry.
var LabLocation = geo.Location{City: "San Francisco", Continent: geo.NorthAmerica, Lat: 37.77, Lon: -122.42}

// The client parameters Periscope ships, used by the controlled experiment,
// the Fig. 16/17 sweep and viewersim's simulated day.
const (
	// HLSPollInterval is the HLS client's chunklist poll interval, the upper
	// end of the 2–2.8 s §5.2 measured.
	HLSPollInterval = 2800 * time.Millisecond
	// RTMPPreBuffer and HLSPreBuffer are the players' pre-buffer P (§6).
	RTMPPreBuffer = time.Second
	HLSPreBuffer  = 9 * time.Second
	// TriggerPollInterval is the paper's crawler cadence (§4.3): the first
	// HLS viewer polls every 0.1 s, so its poll triggers the edge's pull
	// right after the chunklist expires and ⑪−⑦ is measured in isolation.
	TriggerPollInterval = 100 * time.Millisecond
)

// ControlledConfig reproduces the §4.3 controlled experiment: one
// broadcaster, one RTMP viewer, one HLS viewer, stable WiFi, repeated runs.
type ControlledConfig struct {
	// Repetitions averages this many runs (the paper used 10).
	Repetitions int
	// BroadcastDuration per run (content time).
	BroadcastDuration time.Duration
	// Seed drives all randomness.
	Seed uint64
}

func (c ControlledConfig) withDefaults() ControlledConfig {
	if c.Repetitions == 0 {
		c.Repetitions = 10
	}
	if c.BroadcastDuration == 0 {
		c.BroadcastDuration = 2 * time.Minute
	}
	return c
}

// RunControlled executes the controlled experiment and returns the averaged
// RTMP and HLS component breakdowns — the two bars of Figure 11. Per-run
// component delays are observed into a private registry's delay histograms
// (proto=rtmp / proto=hls); the returned averages are read back from those
// instruments, so the harness has no accumulator state of its own.
func RunControlled(cfg ControlledConfig) (rtmpAvg, hlsAvg Components) {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed)
	origin := geo.Nearest(LabLocation, geo.WowzaSites())
	edge := geo.Nearest(LabLocation, geo.FastlySites())
	gw := geo.Gateway(origin)

	reg := metrics.NewRegistry()
	rHists := NewComponentHists(reg, "rtmp")
	hHists := NewComponentHists(reg, "hls")
	for rep := 0; rep < cfg.Repetitions; rep++ {
		model := netsim.NewModel(netsim.Params{}, src.Split("rep"))
		tr := GenTrace(TraceConfig{
			Duration:    cfg.BroadcastDuration,
			Broadcaster: LabLocation,
			Origin:      origin,
			Upload:      netsim.WiFi,
		}, model, src)

		rtmpView := ViewerConfig{
			Location:  LabLocation,
			LastMile:  netsim.WiFi,
			PreBuffer: RTMPPreBuffer,
		}
		rHists.Observe(RTMPComponents(tr, origin, rtmpView, model))

		path := EdgePath{Edge: edge, GatewayOverhead: DefaultGatewayOverhead}
		if gw != nil && !geo.CoLocated(*gw, edge) {
			path.Gateway = gw
		}
		hlsView := ViewerConfig{
			Location:     LabLocation,
			LastMile:     netsim.WiFi,
			PollInterval: HLSPollInterval,
			PollPhase:    time.Duration(src.Float64() * float64(HLSPollInterval)),
			PreBuffer:    HLSPreBuffer,
		}
		hHists.Observe(HLSComponents(tr, origin, path, hlsView, model))
	}
	return rHists.Means(), hHists.Means()
}

// ComponentHists bundles the six per-component delay histograms for one
// protocol — the shared accounting surface of RunControlled and the
// viewersim engines. A shared registry may carry observations from earlier
// runs (the platform's live traffic), so each histogram's count and sum are
// recorded at construction and Means reports the delta — the average over
// exactly this experiment's observations.
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
