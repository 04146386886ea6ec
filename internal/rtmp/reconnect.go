package rtmp

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// redialTimeout bounds each dial plus handshake round-trip of a resilient
// publisher or viewer: a redial must never hang on kernel SYN-retransmit
// backoff, so a lost packet costs one backoff step, not the whole session.
const redialTimeout = 3 * time.Second

// ReconnectConfig tunes SubscribeResilient.
type ReconnectConfig struct {
	// Options configure each underlying Subscribe.
	Options ViewerOptions
	// Backoff schedules redial delays and, through its Sleep, waits them
	// out; the zero value uses the resilience defaults (10 ms base doubling
	// to 1 s, jittered) and a nil Sleep means Options.Clock's.
	Backoff resilience.Policy
	// MaxReconnects bounds redial attempts across the whole session
	// (each failed dial counts). Zero means 8; negative means unlimited.
	MaxReconnects int
}

// ResilientViewer is a viewer session that survives connection drops: when
// the transport fails mid-stream it redials with backoff and resumes from
// the last received frame sequence number, deduplicating any frame it has
// already delivered — the auto-rejoin behaviour production clients exhibit
// under the bursty last-mile loss of §5.2. Frames pushed by the server
// while the viewer is disconnected are not replayed (RTMP fan-out keeps no
// per-viewer history), so a resumed stream may have a gap, never a repeat
// or reordering.
type ResilientViewer struct {
	frames chan ReceivedFrame
	cancel context.CancelFunc

	reconnects atomic.Int64

	mu  sync.Mutex
	err error
}

// SubscribeResilient opens a viewer session with auto-reconnect. The first
// subscribe is synchronous so handshake rejections surface immediately;
// after that, drops are handled in the background until the broadcast ends,
// ctx is done, or the reconnect budget is exhausted.
func SubscribeResilient(ctx context.Context, addr, broadcastID, token string, cfg ReconnectConfig) (*ResilientViewer, error) {
	if cfg.MaxReconnects == 0 {
		cfg.MaxReconnects = 8
	}
	if cfg.Options.Clock == nil {
		cfg.Options.Clock = clock.Real{}
	}
	if cfg.Backoff.Sleep == nil {
		cfg.Backoff.Sleep = cfg.Options.Clock.Sleep
	}
	v, err := subscribe(ctx, addr, broadcastID, token, cfg.Options, nil, redialTimeout)
	if err != nil {
		return nil, err
	}
	queue := cfg.Options.Queue
	if queue == 0 {
		queue = 1024
	}
	ctx, cancel := context.WithCancel(ctx)
	rv := &ResilientViewer{
		frames: make(chan ReceivedFrame, queue),
		cancel: cancel,
	}
	go rv.run(ctx, v, addr, broadcastID, token, cfg)
	return rv, nil
}

func (rv *ResilientViewer) run(ctx context.Context, v *Viewer, addr, broadcastID, token string, cfg ReconnectConfig) {
	defer close(rv.frames)
	var haveAny bool
	var lastSeq uint64
	redials := 0
	for {
		clean := rv.forward(ctx, v, &haveAny, &lastSeq)
		err := v.Err()
		v.Close()
		if ctx.Err() != nil {
			rv.setErr(ctx.Err())
			return
		}
		if clean && err == nil {
			return // MsgEnd: broadcast over
		}

		// The transport dropped mid-stream: redial with backoff and
		// resume past frame lastSeq.
		for {
			if cfg.MaxReconnects >= 0 && redials >= cfg.MaxReconnects {
				rv.setErr(err)
				return
			}
			if serr := cfg.Backoff.Sleep(ctx, cfg.Backoff.Delay(redials)); serr != nil {
				rv.setErr(serr)
				return
			}
			redials++
			nv, serr := subscribe(ctx, addr, broadcastID, token, cfg.Options, nil, redialTimeout)
			if serr == nil {
				v = nv
				rv.reconnects.Add(1)
				break
			}
			var rej *ErrRejected
			if errors.As(serr, &rej) {
				if rej.Status == wire.StatusUnavailable {
					// A recovered origin that is still waiting for its
					// publisher: the broadcast is coming back, keep
					// redialing with backoff.
					err = serr
					continue
				}
				if rej.Status == wire.StatusNotFound {
					// The broadcast ended while we were disconnected —
					// that is a normal end of stream, not a failure.
					return
				}
				// Any other handshake rejection is a deliberate server
				// answer, not a transport fault: redialing cannot fix
				// it, so stop instead of spinning on the backoff loop.
				rv.setErr(serr)
				return
			}
			if errors.Is(serr, ErrFull) {
				// The RTMP slot was taken while we were away; a real
				// client would fall back to HLS. Terminal here.
				rv.setErr(serr)
				return
			}
			err = serr
		}
	}
}

// forward drains one underlying viewer into the output channel, deduping
// by frame sequence. It reports whether the viewer's stream closed.
func (rv *ResilientViewer) forward(ctx context.Context, v *Viewer, haveAny *bool, lastSeq *uint64) bool {
	for {
		select {
		case <-ctx.Done():
			return false
		case rf, ok := <-v.Frames():
			if !ok {
				return true
			}
			if *haveAny && rf.Frame.Seq <= *lastSeq {
				continue // already delivered before the drop
			}
			*lastSeq, *haveAny = rf.Frame.Seq, true
			select {
			case rv.frames <- rf:
			case <-ctx.Done():
				return false
			}
		}
	}
}

func (rv *ResilientViewer) setErr(err error) {
	rv.mu.Lock()
	rv.err = err
	rv.mu.Unlock()
}

// Frames returns the deduplicated frame channel; it closes when the
// broadcast ends, ctx is done, or reconnecting gave up.
func (rv *ResilientViewer) Frames() <-chan ReceivedFrame { return rv.frames }

// Err reports the terminal error, or nil after a clean end of broadcast.
// Valid once Frames is closed.
func (rv *ResilientViewer) Err() error {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	return rv.err
}

// Reconnects returns how many times the session re-established transport.
func (rv *ResilientViewer) Reconnects() int64 { return rv.reconnects.Load() }

// Close tears the session down and stops reconnecting.
func (rv *ResilientViewer) Close() error {
	rv.cancel()
	return nil
}
