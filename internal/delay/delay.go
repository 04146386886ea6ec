// Package delay implements the paper's end-to-end delay methodology
// (§4.2–§4.3, Fig. 10): trace-driven simulation of every numbered timestamp
// on the RTMP (①–④) and HLS (⑤–⑰) paths. A broadcast's trace (item arrivals
// at the origin, item readiness, edge arrivals) is generated with the netsim
// WAN model; a Session then replays one viewer over it — RTMP push or HLS
// polling, last-mile download — feeding a player.Player, exactly as the
// paper's own simulations did. The trace-driven experiments and every view
// of the simulated day (viewersim) run this one pipeline.
package delay

import (
	"sort"
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

// The §4.3 trace constants.
const (
	// deviceDelay is the capture→send latency of the phone's encoding
	// pipeline, part of the paper's upload component.
	deviceDelay = 150 * time.Millisecond
	// frameBytes approximates per-frame payload for serialization delay
	// (≈500 kbit/s at 25 fps).
	frameBytes = 2500
	// burstHold is a bursty uploader's mean flush interval.
	burstHold = 3 * time.Second
)

// EdgePath is a trace's CDN path (§5.3): the origin that ingests the
// broadcast and the edge that serves its HLS viewers.
type EdgePath struct {
	Origin geo.Datacenter
	Edge   geo.Datacenter
	// Gateway, when non-nil, relays the pull through the origin's
	// co-located edge, adding DefaultGatewayOverhead coordination time —
	// the paper's explanation for the Figure 15 co-location gap.
	Gateway *geo.Datacenter
	// TriggerPollInterval is the polling cadence of the *first* HLS
	// viewer, whose poll triggers the origin pull (⑨); zero means the
	// crawler's TriggerPollInterval.
	TriggerPollInterval time.Duration
}

// TraceConfig parameterizes one broadcast's trace.
type TraceConfig struct {
	// Duration of the broadcast (content time).
	Duration time.Duration
	// FramesPerItem is the trace's granularity: 1 traces every frame (the
	// RTMP push path), a chunk's worth traces chunks; zero means one
	// media.DefaultChunkDuration chunk.
	FramesPerItem int
	// Broadcaster is the uploader's location; it uploads over WiFi, as in
	// §4.3.
	Broadcaster geo.Location
	Path        EdgePath
	// Bursty enables the accumulate-and-flush upload pathology behind
	// Fig. 16(b)'s long tail.
	Bursty bool
}

// Trace is the CDN-side record of one broadcast — what the paper's passive
// crawlers captured for 16,013 broadcasts — at item granularity. For item i,
// at offsets from the broadcast's start:
//
//	OriginAt[i] — ⑥, the item's first frame reaches the origin
//	ReadyAt[i]  — ⑦, its last frame arrives and the item seals
//	EdgeAt[i]   — ⑪, the item is available at the edge
//
// Capture times, frame counts, byte sizes and content durations are
// arithmetic over the frame count and the granularity, not stored.
type Trace struct {
	OriginAt []time.Duration
	ReadyAt  []time.Duration
	EdgeAt   []time.Duration
	nFrames  int
	perItem  int
	origin   geo.Location
}

// Items is the number of items.
func (t *Trace) Items() int { return len(t.OriginAt) }

// ItemDuration is a full item's content duration.
func (t *Trace) ItemDuration() time.Duration {
	return time.Duration(t.perItem) * media.FrameDuration
}

// Captured is ① / ⑤ of item i's first frame.
func (t *Trace) Captured(i int) time.Duration {
	return time.Duration(i*t.perItem) * media.FrameDuration
}

// content is item i's content duration; the last item may be partial.
func (t *Trace) content(i int) time.Duration {
	return time.Duration(t.frames(i)) * media.FrameDuration
}

// bytes is item i's size.
func (t *Trace) bytes(i int) int { return t.frames(i) * frameBytes }

func (t *Trace) frames(i int) int {
	return min(t.perItem, t.nFrames-i*t.perItem)
}

// GenTrace fills tr with one broadcast's trace, reusing its slices. It
// draws the trigger poller's grid phase from src, then, per item and in this
// order from model: the first frame's uplink (last mile and one-way), the
// last frame's when distinct, the invalidation's one-way, the trigger RTT and
// the pull's transfer. A Bursty trace also draws its flushes, from a stream
// split off src. A trace is thus a pure function of its streams — the
// foundation of the simulated day's cross-engine determinism.
func GenTrace(tr *Trace, cfg TraceConfig, model *netsim.Model, src *rng.Source) {
	path := cfg.Path
	if path.TriggerPollInterval <= 0 {
		path.TriggerPollInterval = TriggerPollInterval
	}
	// A per-broadcast phase disperses trigger-poll alignment across
	// broadcasts, whose offsets all start at 0.
	phase := time.Duration(src.Float64() * float64(path.TriggerPollInterval))
	tr.perItem = cfg.FramesPerItem
	if tr.perItem < 1 {
		tr.perItem = media.FramesPerChunk(media.DefaultChunkDuration)
	}
	tr.nFrames = max(1, int(cfg.Duration/media.FrameDuration))
	tr.origin = path.Origin.Location
	tr.OriginAt = tr.OriginAt[:0]
	tr.ReadyAt = tr.ReadyAt[:0]
	tr.EdgeAt = tr.EdgeAt[:0]

	// Bursty uploaders accumulate frames and flush at irregular
	// (exponential) intervals — the §6 pathology behind Fig. 16(b)'s
	// long buffering tail. A frame leaves at the first flush after its
	// capture.
	var burst *rng.Source
	var flush time.Duration
	if cfg.Bursty {
		burst = src.Split("burst")
		flush = time.Duration(burst.Exp(float64(burstHold)))
	}
	uplink := func(captured time.Duration) time.Duration {
		if burst != nil {
			for flush < captured {
				flush += time.Duration(burst.Exp(float64(burstHold)))
			}
			captured = flush
		}
		return captured + deviceDelay +
			model.LastMile(netsim.WiFi, frameBytes) +
			model.OneWay(cfg.Broadcaster, tr.origin)
	}

	var prevReady, prevEdge time.Duration
	for i := 0; i*tr.perItem < tr.nFrames; i++ {
		frames := tr.frames(i)
		// ⑥, TCP-ordered: a delayed frame delays its successors.
		o := max(uplink(tr.Captured(i)), prevReady)
		// ⑦: the last frame's arrival seals the item.
		r := o
		if frames > 1 {
			r = max(uplink(tr.Captured(i)+time.Duration(frames-1)*media.FrameDuration), o)
		}
		prevReady = r
		// ⑧: the origin invalidates the edge's chunklist; ⑨: the first
		// trigger poll after that makes the edge pull; ⑩/⑪: the edge
		// fetches the item, through the origin's co-located gateway when
		// the path has one.
		pollAt := nextPoll(r+model.OneWay(tr.origin, path.Edge.Location), path.TriggerPollInterval, phase)
		var e time.Duration
		if gw := path.Gateway; gw != nil {
			e = pollAt +
				model.RTT(path.Edge.Location, gw.Location) +
				DefaultGatewayOverhead +
				model.Transfer(gw.Location, path.Edge.Location, frames*frameBytes)
		} else {
			e = pollAt +
				model.RTT(path.Edge.Location, tr.origin) +
				model.Transfer(tr.origin, path.Edge.Location, frames*frameBytes)
		}
		e = max(e, prevEdge)
		prevEdge = e

		tr.OriginAt = append(tr.OriginAt, o)
		tr.ReadyAt = append(tr.ReadyAt, r)
		tr.EdgeAt = append(tr.EdgeAt, e)
	}
}

// nextPoll returns the first grid point phase + k·interval (k ≥ 0)
// at or after `after`.
func nextPoll(after, interval, phase time.Duration) time.Duration {
	if after <= phase {
		return phase
	}
	k := (after - phase + interval - 1) / interval
	return phase + k*interval
}

// Session is one viewer's replay of a trace: the step every delay
// measurement in the repo runs. The viewer sits at LabLocation on WiFi.
//
//   - RTMP: the origin pushes each item as its last frame arrives; the
//     viewer receives it one one-way and one last-mile draw later. At chunk
//     granularity an item is a window of frames, with upload sampled at its
//     first frame and last mile at its last.
//   - HLS: the viewer polls the edge's chunklist on a grid anchored at its
//     join (⑫–⑭) and fetches each chunk one last-mile draw after the poll
//     that first observes it (⑮). The player gets the full item duration.
//
// Each Step yields the next item's arrival and content duration for a
// player.Player and adds its trace components to the session's sums. All
// times are offsets from the broadcast's start. Arrivals never decrease (TCP
// order).
type Session struct {
	tr    *Trace
	model *netsim.Model
	hls   bool
	join  time.Duration
	poll  time.Duration
	cur   int           // the next item
	next  time.Duration // its event offset: arrival (RTMP) or observing poll (HLS)
	prev  time.Duration // the last arrival
	sums  [5]time.Duration
	n     int
}

// Start begins a session that joins tr at offset join; a join before 0
// watches from the first item. An RTMP viewer picks the stream up at the
// first item whose first frame reaches the origin at or after the join; an
// HLS viewer skips the items already at the edge by then and polls every
// poll (zero means HLSPollInterval). model draws the session's own
// randomness. Start reports false when the session joined too late to see
// any item.
func (s *Session) Start(tr *Trace, model *netsim.Model, hls bool, join, poll time.Duration) bool {
	if poll <= 0 {
		poll = HLSPollInterval
	}
	*s = Session{tr: tr, model: model, hls: hls, join: join, poll: poll}
	at := tr.OriginAt
	if hls {
		at = tr.EdgeAt
	}
	s.cur = sort.Search(len(at), func(i int) bool { return at[i] >= join })
	if s.cur == len(at) {
		return false
	}
	s.next = s.eventAt(s.cur)
	return true
}

// Next is the offset at which the next Step happens: the next item's
// arrival for RTMP, the poll that observes it for HLS.
func (s *Session) Next() time.Duration { return s.next }

// Step delivers the next item at Next and returns its arrival and content
// duration; done reports that it was the trace's last.
//
//livesim:hotpath TestSessionAllocatesNothing
func (s *Session) Step() (arrival, dur time.Duration, done bool) {
	tr, i := s.tr, s.cur
	s.sums[0] += tr.OriginAt[i] - tr.Captured(i)
	if s.hls {
		seen := s.next
		arrival = max(seen+s.model.LastMile(netsim.WiFi, tr.bytes(i)), s.prev)
		s.prev = arrival
		s.sums[1] += tr.ReadyAt[i] - tr.OriginAt[i]
		s.sums[2] += tr.EdgeAt[i] - tr.ReadyAt[i]
		s.sums[3] += seen - tr.EdgeAt[i]
		s.sums[4] += arrival - seen
		dur = tr.ItemDuration()
	} else {
		arrival = s.next
		s.sums[4] += arrival - tr.ReadyAt[i]
		dur = tr.content(i)
	}
	s.n++
	s.cur++
	if s.cur == tr.Items() {
		return arrival, dur, true
	}
	s.next = s.eventAt(s.cur)
	return arrival, dur, false
}

// eventAt computes item i's event offset. An RTMP arrival is drawn here, so
// it is ordered after every arrival before it.
func (s *Session) eventAt(i int) time.Duration {
	if s.hls {
		return nextPoll(s.tr.EdgeAt[i], s.poll, s.join)
	}
	arr := s.tr.ReadyAt[i] +
		s.model.OneWay(s.tr.origin, LabLocation) +
		s.model.LastMile(netsim.WiFi, frameBytes)
	arr = max(arr, s.prev)
	s.prev = arr
	return arr
}

// Play runs the rest of a started session, feeding every item to each
// player, and returns its components with the first player's buffering.
func (s *Session) Play(players ...*player.Player) Components {
	for done := false; !done; {
		var arrival, dur time.Duration
		arrival, dur, done = s.Step()
		for _, p := range players {
			p.Add(arrival, dur)
		}
	}
	return s.Components(players[0].Result().MeanBufferingDelay)
}

// Components reduces the session so far to its mean Fig. 11 decomposition,
// with the player's mean buffering delay as its last component.
func (s *Session) Components(buffering time.Duration) Components {
	if s.n == 0 {
		return Components{}
	}
	n := time.Duration(s.n)
	return Components{
		Upload:       s.sums[0] / n,
		Chunking:     s.sums[1] / n,
		Wowza2Fastly: s.sums[2] / n,
		Polling:      s.sums[3] / n,
		LastMile:     s.sums[4] / n,
		Buffering:    buffering,
	}
}
