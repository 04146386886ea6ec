// Package player reproduces Periscope's client-side buffering strategy as
// decompiled from its Android app (§6): pre-buffer P seconds of content
// before playback starts, then play items strictly by sequence number on a
// fixed schedule; items that arrive after their scheduled slot are
// discarded. Smoothness is measured as the stalling ratio (missing content
// duration over broadcast duration) and latency as the mean buffering delay
// (scheduled play time minus arrival time).
//
// This is the player behind Figures 11, 16 and 17, the P=9s→6s optimization
// claim and every session of the simulated day.
package player

import "time"

// Result summarizes one session's playback.
type Result struct {
	// StallRatio is discarded (unplayable-in-time) content duration over
	// total content duration.
	StallRatio float64
	// MeanBufferingDelay averages scheduled-play minus arrival over the
	// items that played.
	MeanBufferingDelay time.Duration
	// MaxBufferingDelay is the worst played-item delay.
	MaxBufferingDelay time.Duration
	// Played and Dropped count items.
	Played  int
	Dropped int
	// Start is when playback began (pre-buffer satisfied).
	Start time.Duration
}

// Player runs the §6 strategy over a stream of items fed one at a time, in
// sequence order, with non-decreasing arrivals — the order TCP delivers
// them in. Times are offsets on any one timeline. Work per item is O(1) and
// a Player holds no buffer: every item that arrives before playback starts
// is there when its slot comes, so it plays, and its buffering delay —
// start + slot offset − arrival — is summed as (slot offset − arrival) until
// the start is known. A Player is reusable: Reset starts a new session.
type Player struct {
	pre     time.Duration
	started bool
	// start is the playback start once started, the latest arrival before.
	start  time.Duration
	offset time.Duration // content offset of the next item's slot
	// delay and max are the summed and the worst buffering delay of the
	// played items; before the start they leave out the start itself.
	delay   time.Duration
	max     time.Duration
	lost    time.Duration // discarded content
	played  int
	dropped int
}

// Reset starts a new session with pre-buffer P = pre.
func (p *Player) Reset(pre time.Duration) {
	*p = Player{pre: pre}
}

// Add feeds the next item: its arrival and its content duration. Playback
// starts at the arrival that brings the content received to P (the first
// arrival when P is zero).
//
//livesim:hotpath TestPlayerAddAllocatesNothing
func (p *Player) Add(arrival, dur time.Duration) {
	if !p.started {
		d := p.offset - arrival
		if p.played == 0 || d > p.max {
			p.max = d
		}
		p.delay += d
		p.played++
		p.offset += dur
		p.start = arrival
		if p.offset >= p.pre {
			p.begin()
		}
		return
	}
	slot := p.start + p.offset
	p.offset += dur
	// The fixed schedule's discard rule works at slot granularity: an item
	// that arrives before its slot ends is still shown (the player is
	// mid-slot and picks it up); only an item that misses its whole slot
	// is discarded, and its content is exactly the stall time. This
	// matches the paper's traces, where P=0 RTMP streams stall on bursts,
	// not on every millisecond of jitter (Fig. 16a's 0–0.1 range).
	if arrival > slot+dur {
		p.dropped++
		p.lost += dur
		return
	}
	d := max(slot-arrival, 0) // arrived mid-slot: played at once
	p.delay += d
	p.max = max(p.max, d)
	p.played++
}

// begin starts playback at p.start, completing the delays of the items
// received so far.
func (p *Player) begin() {
	p.started = true
	p.delay += time.Duration(p.played) * p.start
	p.max += p.start
}

// Result ends the session and summarizes it. A session whose content never
// reached P starts at its last arrival; an empty one returns a zero Result.
func (p *Player) Result() Result {
	if !p.started && p.played > 0 {
		p.begin()
	}
	r := Result{
		MaxBufferingDelay: p.max,
		Played:            p.played,
		Dropped:           p.dropped,
		Start:             p.start,
	}
	if p.played > 0 {
		r.MeanBufferingDelay = p.delay / time.Duration(p.played)
	}
	if p.offset > 0 {
		r.StallRatio = float64(p.lost) / float64(p.offset)
	}
	return r
}
