package viewersim

import (
	"time"

	"repro/internal/delay"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// btrace is one broadcast's CDN-side trace at chunk granularity — the
// scale-friendly form of delay.Trace. Where GenTrace draws the WAN model per
// frame, genTrace draws it for each chunk's first and last frame and keeps
// the same TCP-ordering clamps, so the three retained offset arrays have the
// exact semantics of the paper's numbered timestamps:
//
//	originAt[c] — ⑥, the chunk's first frame reaches the origin
//	readyAt[c]  — ⑦, the last member frame arrives and the chunk seals
//	edgeAt[c]   — ⑪, the chunk is available at the edge
//
// Capture times, member counts, byte sizes, and content durations are pure
// arithmetic over (nFrames, perChunk) and are derived, not stored. All
// offsets are relative to the broadcast's start.
type btrace struct {
	dur      time.Duration
	nFrames  int
	perChunk int
	originAt []time.Duration
	readyAt  []time.Duration
	edgeAt   []time.Duration
}

func (t *btrace) chunks() int { return len(t.originAt) }

func (t *btrace) framesOf(c int) int {
	lo := c * t.perChunk
	hi := lo + t.perChunk
	if hi > t.nFrames {
		hi = t.nFrames
	}
	return hi - lo
}

// capturedOf is ① / ⑤ of the chunk's first frame.
func (t *btrace) capturedOf(c int) time.Duration {
	return time.Duration(c*t.perChunk) * media.FrameDuration
}

// lastCapOf is the capture time of the chunk's last member frame.
func (t *btrace) lastCapOf(c int) time.Duration {
	return time.Duration(c*t.perChunk+t.framesOf(c)-1) * media.FrameDuration
}

func (t *btrace) bytesOf(c int) int { return t.framesOf(c) * delay.FrameBytes }

// contentOf is the chunk's content duration (the last chunk may be partial).
func (t *btrace) contentOf(c int) time.Duration {
	return time.Duration(t.framesOf(c)) * media.FrameDuration
}

// genTrace fills tr for one broadcast, reusing its slices. Draw order per
// chunk is fixed (uplink last-mile + one-way for the first frame, again for
// the last frame when distinct, invalidation one-way, trigger RTT, transfer)
// so a broadcast's trace is a pure function of its keyed rng stream — the
// foundation of cross-engine determinism. model must draw from src.
func genTrace(w *world, sp bcastSpec, src *rng.Source, model *netsim.Model, tr *btrace) {
	// The trigger poller's grid phase. RunControlled anchors every
	// broadcast on one absolute epoch; per-broadcast offsets start at 0
	// here, so an explicit phase draw restores the cross-broadcast
	// dispersion of poll alignment.
	phase := time.Duration(src.Float64() * float64(delay.TriggerPollInterval))

	nFrames := int(sp.dur / media.FrameDuration)
	if nFrames < 1 {
		nFrames = 1
	}
	nChunks := (nFrames + w.perChunk - 1) / w.perChunk
	tr.dur = sp.dur
	tr.nFrames = nFrames
	tr.perChunk = w.perChunk
	tr.originAt = tr.originAt[:0]
	tr.readyAt = tr.readyAt[:0]
	tr.edgeAt = tr.edgeAt[:0]

	var prevReady, prevEdge time.Duration
	for c := 0; c < nChunks; c++ {
		frames := w.perChunk
		if lo := c * w.perChunk; lo+frames > nFrames {
			frames = nFrames - lo
		}
		// ⑥: first frame's device→origin leg, ordered after every prior
		// frame (TCP in-order delivery, as in GenTrace).
		o := tr.capturedOf(c) + delay.DeviceDelay +
			model.LastMile(netsim.WiFi, delay.FrameBytes) +
			model.OneWay(w.bcaster, w.origin.Location)
		if o < prevReady {
			o = prevReady
		}
		// ⑦: last frame's arrival seals the chunk.
		r := o
		if frames > 1 {
			r = tr.lastCapOf(c) + delay.DeviceDelay +
				model.LastMile(netsim.WiFi, delay.FrameBytes) +
				model.OneWay(w.bcaster, w.origin.Location)
			if r < o {
				r = o
			}
		}
		prevReady = r
		// ⑧–⑪ exactly as delay.EdgeArrivals: invalidate, first trigger
		// poll on the grid, then the pull (via the gateway relay when the
		// origin's co-located edge is not the serving edge).
		invalidAt := r + model.OneWay(w.origin.Location, w.edge.Location)
		pollAt := nextAfter(invalidAt, delay.TriggerPollInterval, phase)
		var arr time.Duration
		if w.gateway != nil {
			arr = pollAt +
				model.RTT(w.edge.Location, w.gateway.Location) +
				delay.DefaultGatewayOverhead +
				model.Transfer(w.gateway.Location, w.edge.Location, frames*delay.FrameBytes)
		} else {
			arr = pollAt +
				model.RTT(w.edge.Location, w.origin.Location) +
				model.Transfer(w.origin.Location, w.edge.Location, frames*delay.FrameBytes)
		}
		if arr < prevEdge {
			arr = prevEdge
		}
		prevEdge = arr

		tr.originAt = append(tr.originAt, o)
		tr.readyAt = append(tr.readyAt, r)
		tr.edgeAt = append(tr.edgeAt, arr)
	}
}
