package viewersim

import (
	"sort"
	"time"

	"repro/internal/delay"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// viewer is one watching session's state machine, shared verbatim by both
// engines: the wheel drives advance from timer callbacks, the goroutine
// reference from a loop around coordinator sleeps. All times are offsets
// from the broadcast's start.
//
// RTMP sessions are simulated at chunk-duration windows rather than per
// frame (a 1:1 day has ~10^10 frames — two orders of magnitude more events
// than chunks, for no extra accounting fidelity): each event drains the
// window of frames ending at readyAt[c] plus one drawn transit, with the
// upload component sampled at the window's first frame and last-mile at its
// last, the same first-frame convention delay.HLSComponents applies to
// chunks. HLS sessions poll a chunklist grid anchored at their join time and
// fetch each chunk one last-mile draw after the poll that first observes it,
// mirroring delay.HLSItems.
type viewer struct {
	s *sim
	b *bcastRun
	// src is the session's keyed stream, re-seeded in place on every reuse;
	// model draws from it and is built once per pooled viewer.
	src    rng.Source
	model  *netsim.Model
	isRTMP bool
	join   time.Duration
	// cur is the next chunk (window) to deliver; nextAt its event offset.
	cur     int
	nextAt  time.Duration
	prevArr time.Duration
	// Component sums over delivered windows, delay.Components order
	// (upload, chunking, wowza2fastly, polling, lastmile); buffering comes
	// from the player accumulator.
	sums [5]time.Duration
	n    int
	play playAcc
	// fireFn is the wheel callback, built once per pooled viewer.
	fireFn func(time.Time)
}

// reset binds a pooled viewer to one (broadcast, join index) session and
// re-seeds its private rng stream in place; everything the session draws
// afterwards is independent of scheduling order. Only a viewer's first reset
// allocates (its netsim model).
func (v *viewer) reset(s *sim, b *bcastRun, idx int) {
	v.s = s
	v.b = b
	v.src.Reset(s.cfg.Seed, viewerKey(b.sp.idx, idx))
	if v.model == nil {
		v.model = netsim.NewModel(netsim.Params{}, &v.src)
	}
	v.isRTMP = idx < b.sp.rtmp
	v.join = b.joins[idx]
	v.cur = 0
	v.nextAt = 0
	v.prevArr = 0
	v.sums = [5]time.Duration{}
	v.n = 0
	if v.isRTMP {
		v.play.reset(delay.RTMPPreBuffer)
	} else {
		v.play.reset(delay.HLSPreBuffer)
	}
}

// init positions the viewer at its first visible chunk and computes the
// first event offset; false means the session joined too late to ever see
// content (an empty view).
func (v *viewer) init() bool {
	tr := &v.b.tr
	if v.isRTMP {
		// Live RTMP picks up the stream at the first window whose
		// content starts at or after the join.
		c := sort.Search(tr.chunks(), func(i int) bool { return tr.originAt[i] >= v.join })
		if c == tr.chunks() {
			return false
		}
		v.cur = c
		v.nextAt = v.rtmpArrival(c)
		return true
	}
	// Live HLS skips chunks that were already at the edge before the join
	// and polls on a grid anchored at the join (the client's first
	// chunklist fetch); the join's randomness supplies the poll phase.
	c := sort.Search(tr.chunks(), func(i int) bool { return tr.edgeAt[i] >= v.join })
	if c == tr.chunks() {
		return false
	}
	v.cur = c
	v.nextAt = v.pollFor(c)
	return true
}

// pollFor is the first poll-grid instant that observes chunk c (⑭).
func (v *viewer) pollFor(c int) time.Duration {
	return nextAfter(v.b.tr.edgeAt[c], delay.HLSPollInterval, v.join)
}

// rtmpArrival draws window c's transit and returns its fully-drained offset,
// ordered after everything already received.
func (v *viewer) rtmpArrival(c int) time.Duration {
	w := v.s.w
	arr := v.b.tr.readyAt[c] +
		v.model.OneWay(w.origin.Location, w.viewer) +
		v.model.LastMile(netsim.WiFi, delay.FrameBytes)
	if arr < v.prevArr {
		arr = v.prevArr
	}
	v.prevArr = arr
	return arr
}

// advance delivers chunk v.cur at offset v.nextAt, accumulates its delay
// components, and computes the next event; done reports the session's end.
//
//livesim:hotpath TestWheelAudienceAllocatesNothing
func (v *viewer) advance() (next time.Duration, done bool) {
	tr := &v.b.tr
	c := v.cur
	if v.isRTMP {
		arr := v.nextAt
		v.sums[0] += tr.originAt[c] - tr.capturedOf(c)
		v.sums[4] += arr - tr.readyAt[c]
		v.play.add(arr, tr.contentOf(c))
	} else {
		seen := v.nextAt
		lm := v.model.LastMile(netsim.WiFi, tr.bytesOf(c))
		fetched := seen + lm
		if fetched < v.prevArr {
			fetched = v.prevArr
		}
		v.prevArr = fetched
		v.sums[0] += tr.originAt[c] - tr.capturedOf(c)
		v.sums[1] += tr.readyAt[c] - tr.originAt[c]
		v.sums[2] += tr.edgeAt[c] - tr.readyAt[c]
		v.sums[3] += seen - tr.edgeAt[c]
		v.sums[4] += fetched - seen
		// HLS player items carry the nominal chunk duration, as in
		// delay.HLSItems.
		v.play.add(fetched, v.s.cfg.ChunkDuration)
	}
	v.n++
	v.cur++
	if v.cur == tr.chunks() {
		return 0, true
	}
	if v.isRTMP {
		v.nextAt = v.rtmpArrival(v.cur)
	} else {
		v.nextAt = v.pollFor(v.cur)
	}
	return v.nextAt, false
}

// components reduces the session to its mean Fig. 11 decomposition.
func (v *viewer) components() delay.Components {
	if v.n == 0 {
		return delay.Components{}
	}
	n := time.Duration(v.n)
	return delay.Components{
		Upload:       v.sums[0] / n,
		Chunking:     v.sums[1] / n,
		Wowza2Fastly: v.sums[2] / n,
		Polling:      v.sums[3] / n,
		LastMile:     v.sums[4] / n,
		Buffering:    v.play.mean(),
	}
}

// playAcc is a streaming re-implementation of player.Simulate for monotone
// arrivals (which the viewer's TCP-ordering clamps guarantee): O(1) work and
// zero allocations per item, with items pended only until the pre-buffer
// fills. TestPlayAccMatchesSimulate pins the equivalence.
type playAcc struct {
	pre      time.Duration
	started  bool
	start    time.Duration // playback start (pre-buffer satisfied)
	offset   time.Duration // content offset of the next item's slot
	buffered time.Duration // content accumulated while pending
	pendArr  []time.Duration
	pendDur  []time.Duration
	played   int
	total    time.Duration
}

func (p *playAcc) reset(pre time.Duration) {
	p.pre = pre
	p.started = false
	p.start = 0
	p.offset = 0
	p.buffered = 0
	p.pendArr = p.pendArr[:0]
	p.pendDur = p.pendDur[:0]
	p.played = 0
	p.total = 0
}

//livesim:hotpath TestWheelAudienceAllocatesNothing
func (p *playAcc) add(arr, dur time.Duration) {
	if p.started {
		p.playItem(arr, dur)
		return
	}
	p.pendArr = append(p.pendArr, arr)
	p.pendDur = append(p.pendDur, dur)
	p.buffered += dur
	if p.pre <= 0 || p.buffered >= p.pre {
		p.startAt(arr)
	}
}

// startAt begins playback (start = the arrival that satisfied the
// pre-buffer, or the first arrival when P≤0) and drains the pended prefix.
func (p *playAcc) startAt(at time.Duration) {
	p.started = true
	p.start = at
	for i := range p.pendArr {
		p.playItem(p.pendArr[i], p.pendDur[i])
	}
	p.pendArr = p.pendArr[:0]
	p.pendDur = p.pendDur[:0]
}

// playItem applies player.Simulate's fixed schedule: the slot advances for
// every item, latecomers past their slot's end are discarded, and played
// items record max(0, scheduled−arrival) buffering.
func (p *playAcc) playItem(arr, dur time.Duration) {
	sched := p.start + p.offset
	p.offset += dur
	if arr > sched+dur {
		return
	}
	d := sched - arr
	if d < 0 {
		d = 0
	}
	p.total += d
	p.played++
}

// mean finalizes the session (a broadcast shorter than the pre-buffer starts
// at its last arrival, as player.startTime does) and returns the mean
// buffering delay over played items.
func (p *playAcc) mean() time.Duration {
	if !p.started {
		if len(p.pendArr) == 0 {
			return 0
		}
		p.startAt(p.pendArr[len(p.pendArr)-1])
	}
	if p.played == 0 {
		return 0
	}
	return p.total / time.Duration(p.played)
}
