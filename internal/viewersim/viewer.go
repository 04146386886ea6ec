package viewersim

import (
	"time"

	"repro/internal/delay"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/rng"
)

// viewer is one watching session, shared verbatim by both engines: a
// delay.Session over its broadcast's trace feeding a player.Player, plus the
// pooling and scheduling glue. The wheel steps it from timer callbacks, the
// goroutine reference from a loop around coordinator sleeps, each at the
// session's Next offset from the broadcast's start.
//
// RTMP sessions are simulated at chunk-duration windows rather than per
// frame: a 1:1 day has ~10^10 frames, two orders of magnitude more events
// than chunks, for no extra accounting fidelity.
type viewer struct {
	b *bcastRun
	// src is the session's keyed stream and model draws from it; reset
	// re-seeds one and rebuilds the other in place.
	src    rng.Source
	model  netsim.Model
	isRTMP bool
	join   time.Duration
	sess   delay.Session
	play   player.Player
	// fireFn is the wheel callback, built once per pooled viewer.
	fireFn func(time.Time)
}

// reset binds a pooled viewer to one (broadcast, join index) session and
// re-seeds its private rng stream in place; everything the session draws
// afterwards is independent of scheduling order. It allocates nothing: the
// model is a value inside the viewer.
func (v *viewer) reset(s *sim, b *bcastRun, idx int) {
	v.b = b
	v.src.Reset(s.cfg.Seed, viewerKey(b.sp.idx, idx))
	v.model = *netsim.NewModel(netsim.Params{}, &v.src)
	v.isRTMP = idx < b.sp.rtmp
	if v.isRTMP {
		v.play.Reset(delay.RTMPPreBuffer)
	} else {
		v.play.Reset(delay.HLSPreBuffer)
	}
	v.join = b.joins[idx]
}

// init starts the session at the join; false means it joined too late to
// ever see content (an empty view).
func (v *viewer) init() bool {
	return v.sess.Start(&v.b.tr, &v.model, !v.isRTMP, v.join, delay.HLSPollInterval)
}
