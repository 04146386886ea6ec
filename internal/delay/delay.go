// Package delay implements the paper's end-to-end delay methodology
// (§4.2–§4.3, Fig. 10): trace-driven simulation of every numbered timestamp
// on the RTMP (①–④) and HLS (⑤–⑰) paths. Broadcast traces (frame arrivals
// at the origin, chunk readiness) are generated with the netsim WAN model;
// client-side behaviour — edge pulls triggered by viewer polls, periodic
// viewer polling, last-mile download, and player buffering — is then
// replayed over the traces exactly as the paper's own simulations did.
package delay

import (
	"time"

	"repro/internal/geo"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/rng"
)

// Components is the Figure 11 decomposition of end-to-end delay.
type Components struct {
	Upload       time.Duration // ②−① / ⑥−⑤
	Chunking     time.Duration // ⑦−⑥ (HLS only)
	Wowza2Fastly time.Duration // ⑪−⑦ (HLS only)
	Polling      time.Duration // ⑭−⑪ (HLS only)
	LastMile     time.Duration // ③−② / ⑮−⑭
	Buffering    time.Duration // ④−③ / ⑯−⑮
}

// Total sums the components.
func (c Components) Total() time.Duration {
	return c.Upload + c.Chunking + c.Wowza2Fastly + c.Polling + c.LastMile + c.Buffering
}

// TraceConfig parameterizes one simulated broadcast's CDN-side trace.
type TraceConfig struct {
	// Duration of the broadcast (content time).
	Duration time.Duration
	// ChunkDuration for HLS assembly (default 3 s).
	ChunkDuration time.Duration
	// Broadcaster is the uploader's location; Origin the ingest site.
	Broadcaster geo.Location
	Origin      geo.Datacenter
	// Upload is the broadcaster's last-mile profile (§4.3 used WiFi).
	Upload netsim.AccessProfile
	// Bursty enables the accumulate-and-flush upload pathology behind
	// Fig. 16(b)'s long tail.
	Bursty bool
}

// The §4.3 trace constants, shared with viewersim's chunk-level traces.
const (
	// DeviceDelay is the capture→send latency of the phone's encoding
	// pipeline, part of the paper's upload component.
	DeviceDelay = 150 * time.Millisecond
	// FrameBytes approximates per-frame payload for serialization delay
	// (≈500 kbit/s at 25 fps).
	FrameBytes = 2500
	// burstHold is a bursty uploader's mean flush interval.
	burstHold = 3 * time.Second
)

// Trace is the CDN-side record of one broadcast: what the paper's passive
// crawlers captured for 16,013 broadcasts.
type Trace struct {
	// Captured[i] is frame i's device capture time (① / ⑤).
	Captured []time.Time
	// OriginAt[i] is frame i's arrival at the origin (② / ⑥).
	OriginAt []time.Time
	// Chunks lists chunk-level events.
	Chunks []ChunkTrace
	// ChunkDuration used for assembly.
	ChunkDuration time.Duration
}

// ChunkTrace is one chunk's origin-side record.
type ChunkTrace struct {
	Seq           int
	FirstCaptured time.Time // ⑤ of the chunk's first frame
	FirstOriginAt time.Time // ⑥
	ReadyAt       time.Time // ⑦: all member frames arrived, chunk assembled
	Bytes         int
}

// GenTrace simulates the broadcaster→origin leg and chunk assembly.
func GenTrace(cfg TraceConfig, model *netsim.Model, src *rng.Source) *Trace {
	if cfg.ChunkDuration == 0 {
		cfg.ChunkDuration = media.DefaultChunkDuration
	}
	nFrames := int(cfg.Duration / media.FrameDuration)
	if nFrames < 1 {
		nFrames = 1
	}
	tr := &Trace{ChunkDuration: cfg.ChunkDuration}
	start := time.Time{}.Add(time.Hour) // arbitrary epoch; only deltas matter
	// Bursty uploaders accumulate frames and flush at irregular
	// (exponential) intervals — the §6 pathology behind Fig. 16(b)'s
	// long buffering tail.
	var nextFlush time.Time
	if cfg.Bursty {
		nextFlush = start.Add(time.Duration(src.Exp(float64(burstHold))))
	}
	var prevArrival time.Time
	for i := 0; i < nFrames; i++ {
		captured := start.Add(time.Duration(i) * media.FrameDuration)
		released := captured
		if cfg.Bursty {
			for nextFlush.Before(captured) {
				nextFlush = nextFlush.Add(time.Duration(src.Exp(float64(burstHold))))
			}
			released = nextFlush
		}
		arrival := released.
			Add(DeviceDelay).
			Add(model.LastMile(cfg.Upload, FrameBytes)).
			Add(model.OneWay(cfg.Broadcaster, cfg.Origin.Location))
		// TCP delivers in order: a delayed frame delays its successors.
		if arrival.Before(prevArrival) {
			arrival = prevArrival
		}
		prevArrival = arrival
		tr.Captured = append(tr.Captured, captured)
		tr.OriginAt = append(tr.OriginAt, arrival)
	}
	perChunk := media.FramesPerChunk(cfg.ChunkDuration)
	for c := 0; c*perChunk < nFrames; c++ {
		lo := c * perChunk
		hi := lo + perChunk
		if hi > nFrames {
			hi = nFrames
		}
		tr.Chunks = append(tr.Chunks, ChunkTrace{
			Seq:           c,
			FirstCaptured: tr.Captured[lo],
			FirstOriginAt: tr.OriginAt[lo],
			ReadyAt:       tr.OriginAt[hi-1],
			Bytes:         (hi - lo) * FrameBytes,
		})
	}
	return tr
}

// EdgePath describes the origin→edge leg for one viewer's edge (§5.3).
type EdgePath struct {
	Edge geo.Datacenter
	// Gateway, when non-nil, relays the pull through the origin's
	// co-located edge, adding GatewayOverhead coordination time — the
	// paper's explanation for the Figure 15 co-location gap.
	Gateway         *geo.Datacenter
	GatewayOverhead time.Duration
	// TriggerPollInterval is the polling cadence of the *first* HLS
	// viewer, whose poll triggers the origin pull (⑨); zero means the
	// crawler's TriggerPollInterval.
	TriggerPollInterval time.Duration
	// TriggerPollPhase offsets the trigger poller's schedule.
	TriggerPollPhase time.Duration
}

// EdgeArrivals computes ⑪ (chunk available at the edge) for every chunk.
func EdgeArrivals(tr *Trace, origin geo.Datacenter, path EdgePath, model *netsim.Model) []time.Time {
	if path.TriggerPollInterval <= 0 {
		path.TriggerPollInterval = TriggerPollInterval
	}
	out := make([]time.Time, 0, len(tr.Chunks))
	var prev time.Time
	for _, ch := range tr.Chunks {
		// ⑧: origin notifies the edge to expire its chunklist.
		invalidAt := ch.ReadyAt.Add(model.OneWay(origin.Location, path.Edge.Location))
		// ⑨: first viewer poll after expiry triggers the pull.
		pollAt := nextPoll(invalidAt, path.TriggerPollInterval, path.TriggerPollPhase)
		// ⑩/⑪: the edge fetches the fresh chunk.
		var arrival time.Time
		if path.Gateway != nil {
			// Origin hands the chunk to its co-located gateway,
			// which coordinates distribution to the remote edge.
			arrival = pollAt.
				Add(model.RTT(path.Edge.Location, path.Gateway.Location)).
				Add(path.GatewayOverhead).
				Add(model.Transfer(path.Gateway.Location, path.Edge.Location, ch.Bytes))
		} else {
			arrival = pollAt.
				Add(model.RTT(path.Edge.Location, origin.Location)).
				Add(model.Transfer(origin.Location, path.Edge.Location, ch.Bytes))
		}
		if arrival.Before(prev) {
			arrival = prev
		}
		prev = arrival
		out = append(out, arrival)
	}
	return out
}

func nextPoll(after time.Time, interval, phase time.Duration) time.Time {
	base := time.Time{}.Add(phase)
	since := after.Sub(base)
	n := since / interval
	if base.Add(n * interval).Before(after) {
		n++
	}
	return base.Add(n * interval)
}

// PollObservations simulates one HLS viewer polling the edge at the given
// interval and phase: for each chunk it returns the poll time that first
// observes it (⑭). This is the Figures 12/13 machinery.
func PollObservations(edgeAt []time.Time, interval, phase time.Duration) []time.Time {
	out := make([]time.Time, 0, len(edgeAt))
	for _, at := range edgeAt {
		out = append(out, nextPoll(at, interval, phase))
	}
	return out
}

// PollingDelays returns ⑭−⑪ per chunk.
func PollingDelays(edgeAt, seenAt []time.Time) []time.Duration {
	out := make([]time.Duration, len(edgeAt))
	for i := range edgeAt {
		out[i] = seenAt[i].Sub(edgeAt[i])
	}
	return out
}

// ViewerConfig describes the watching client.
type ViewerConfig struct {
	Location geo.Location
	// LastMile is the viewer's access profile.
	LastMile netsim.AccessProfile
	// PollInterval is the HLS client's chunklist cadence; zero means
	// HLSPollInterval. Ignored for RTMP.
	PollInterval time.Duration
	PollPhase    time.Duration
	// PreBuffer is the player's P (§6): Periscope ships ≈1 s for RTMP
	// and 9 s for HLS.
	PreBuffer time.Duration
}

// RTMPItems turns a trace into per-frame player items for an RTMP viewer,
// returning the items plus per-frame ② and ③ for component accounting.
func RTMPItems(tr *Trace, origin geo.Datacenter, v ViewerConfig, model *netsim.Model) ([]player.Item, []time.Time) {
	items := make([]player.Item, 0, len(tr.OriginAt))
	recvAt := make([]time.Time, 0, len(tr.OriginAt))
	var prev time.Time
	for i, at := range tr.OriginAt {
		arrive := at.
			Add(model.OneWay(origin.Location, v.Location)).
			Add(model.LastMile(v.LastMile, FrameBytes))
		if arrive.Before(prev) {
			arrive = prev
		}
		prev = arrive
		items = append(items, player.Item{
			Seq:      uint64(i),
			Duration: media.FrameDuration,
			ArriveAt: arrive,
		})
		recvAt = append(recvAt, arrive)
	}
	return items, recvAt
}

// HLSItems turns edge arrivals into per-chunk player items for an HLS
// viewer, returning items plus ⑭ (list seen) and ⑮ (chunk downloaded).
func HLSItems(tr *Trace, edgeAt []time.Time, v ViewerConfig, model *netsim.Model) ([]player.Item, []time.Time, []time.Time) {
	if v.PollInterval <= 0 {
		v.PollInterval = HLSPollInterval
	}
	seenAt := PollObservations(edgeAt, v.PollInterval, v.PollPhase)
	items := make([]player.Item, 0, len(edgeAt))
	fetchedAt := make([]time.Time, 0, len(edgeAt))
	var prev time.Time
	for i, seen := range seenAt {
		fetched := seen.Add(model.LastMile(v.LastMile, tr.Chunks[i].Bytes))
		if fetched.Before(prev) {
			fetched = prev
		}
		prev = fetched
		dur := tr.ChunkDuration
		items = append(items, player.Item{Seq: uint64(i), Duration: dur, ArriveAt: fetched})
		fetchedAt = append(fetchedAt, fetched)
	}
	return items, seenAt, fetchedAt
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// RTMPComponents measures the Figure 11 RTMP row for one trace and viewer.
func RTMPComponents(tr *Trace, origin geo.Datacenter, v ViewerConfig, model *netsim.Model) Components {
	items, recvAt := RTMPItems(tr, origin, v, model)
	var up, lm []time.Duration
	for i := range tr.OriginAt {
		up = append(up, tr.OriginAt[i].Sub(tr.Captured[i]))
		lm = append(lm, recvAt[i].Sub(tr.OriginAt[i]))
	}
	res := player.Simulate(items, player.Config{PreBuffer: v.PreBuffer})
	return Components{
		Upload:    meanDur(up),
		LastMile:  meanDur(lm),
		Buffering: res.MeanBufferingDelay,
	}
}

// HLSComponents measures the Figure 11 HLS row for one trace, edge path and
// viewer. Chunk-level delays reference the chunk's first frame, as in the
// paper.
func HLSComponents(tr *Trace, origin geo.Datacenter, path EdgePath, v ViewerConfig, model *netsim.Model) Components {
	edgeAt := EdgeArrivals(tr, origin, path, model)
	items, seenAt, fetchedAt := HLSItems(tr, edgeAt, v, model)
	var up, chunking, w2f, polling, lm []time.Duration
	for i, ch := range tr.Chunks {
		up = append(up, ch.FirstOriginAt.Sub(ch.FirstCaptured))
		chunking = append(chunking, ch.ReadyAt.Sub(ch.FirstOriginAt))
		w2f = append(w2f, edgeAt[i].Sub(ch.ReadyAt))
		polling = append(polling, seenAt[i].Sub(edgeAt[i]))
		lm = append(lm, fetchedAt[i].Sub(seenAt[i]))
	}
	res := player.Simulate(items, player.Config{PreBuffer: v.PreBuffer})
	return Components{
		Upload:       meanDur(up),
		Chunking:     meanDur(chunking),
		Wowza2Fastly: meanDur(w2f),
		Polling:      meanDur(polling),
		LastMile:     meanDur(lm),
		Buffering:    res.MeanBufferingDelay,
	}
}
