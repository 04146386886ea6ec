package rtmp

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// PublishResilientConfig tunes PublishResilient.
type PublishResilientConfig struct {
	// Resolve re-reads the server address before each redial. A restarted
	// origin may come back on a different port; the control plane knows the
	// current one. Nil redials the original address.
	Resolve func() string
	// Backoff schedules redial delays and, through its Sleep, waits them
	// out; the zero value uses the resilience defaults.
	Backoff resilience.Policy
	// MaxReconnects bounds the redial attempts of one outage (each failed
	// dial counts); every outage starts with a fresh budget, so a long
	// session survives any number of separate crashes. Zero means 16;
	// negative means unlimited.
	MaxReconnects int
	// BufferFrames is how many recent frames are retained for resume-by-
	// sequence replay after a reconnect. It should exceed the origin's
	// frames-per-chunk so every frame past the server's journal replay
	// floor — the last sealed chunk — is still on hand. Zero means 512.
	BufferFrames int
}

// ResilientPublisher is a broadcaster session that survives server crashes:
// when the transport dies mid-broadcast it redials with backoff, reads the
// server's resume floor from the handshake ack, and re-uploads every
// buffered frame at or past that floor before continuing — so a recovered
// origin re-seals identical chunks and the broadcast carries on under the
// same ID with no sequence gap. Methods are not safe for concurrent use,
// matching Publisher.
type ResilientPublisher struct {
	cfg         PublishResilientConfig
	addr        string
	broadcastID string
	token       string

	pub *Publisher
	// buf is a ring of recent frames (deep copies — the caller may reuse
	// payload buffers between Sends); next.Seq ordering is the caller's.
	buf   []media.Frame
	start int
	n     int

	reconnects atomic.Int64
}

// PublishResilient opens a broadcaster session with auto-reconnect. The
// first dial is synchronous so immediate rejections (bad token, duplicate)
// surface to the caller.
func PublishResilient(ctx context.Context, addr, broadcastID, token string, cfg PublishResilientConfig) (*ResilientPublisher, error) {
	if cfg.MaxReconnects == 0 {
		cfg.MaxReconnects = 16
	}
	if cfg.BufferFrames == 0 {
		cfg.BufferFrames = 512
	}
	if cfg.Backoff.Sleep == nil {
		cfg.Backoff.Sleep = clock.Real{}.Sleep
	}
	rp := &ResilientPublisher{
		cfg:         cfg,
		addr:        addr,
		broadcastID: broadcastID,
		token:       token,
		buf:         make([]media.Frame, cfg.BufferFrames),
	}
	pub, err := rp.dial(ctx)
	if err != nil {
		return nil, err
	}
	rp.pub = pub
	return rp, nil
}

// dial opens one broadcaster session at the current address.
func (rp *ResilientPublisher) dial(ctx context.Context) (*Publisher, error) {
	addr := rp.addr
	if rp.cfg.Resolve != nil {
		if a := rp.cfg.Resolve(); a != "" {
			addr = a
		}
	}
	conn, ack, err := dialAndHandshakeTLS(ctx, addr, wire.Handshake{
		Role: wire.RoleBroadcaster, BroadcastID: rp.broadcastID, Token: rp.token,
	}, nil, nil, redialTimeout)
	if err != nil {
		return nil, err
	}
	return &Publisher{conn: conn, resumeSeq: ack.ResumeSeq}, nil
}

// buffer retains a deep copy of f in the resume ring, evicting the oldest
// frame when full. A caller's signature is kept: a redialed session has no
// signer, so the replay carries the frame exactly as it first went out.
func (rp *ResilientPublisher) buffer(f *media.Frame) {
	cp := *f
	cp.Payload = append([]byte(nil), f.Payload...)
	cp.Sig = append([]byte(nil), f.Sig...)
	if rp.n < len(rp.buf) {
		rp.buf[(rp.start+rp.n)%len(rp.buf)] = cp
		rp.n++
		return
	}
	rp.buf[rp.start] = cp
	rp.start = (rp.start + 1) % len(rp.buf)
}

// Send uploads one frame, redialing and resuming on transport failure. The
// frame is buffered first, so a crash between buffer and write still replays
// it after reconnecting.
func (rp *ResilientPublisher) Send(ctx context.Context, f *media.Frame) error {
	rp.buffer(f)
	if rp.pub != nil {
		if err := rp.pub.Send(f); err == nil {
			return nil
		}
		rp.pub.Close()
		rp.pub = nil
	}
	return rp.redialAndResend(ctx)
}

// terminalRejection reports a handshake answer that redialing cannot fix.
// StatusUnavailable (origin recovering) and StatusDuplicate (a stale
// registration the server has not yet reaped) both clear up on their own.
func terminalRejection(err error) bool {
	var rej *ErrRejected
	if !errors.As(err, &rej) {
		return false
	}
	return rej.Status != wire.StatusUnavailable && rej.Status != wire.StatusDuplicate
}

// redialAndResend re-establishes the session and re-uploads every buffered
// frame the server's resume floor asks for.
func (rp *ResilientPublisher) redialAndResend(ctx context.Context) error {
	redials := 0
	for {
		if rp.cfg.MaxReconnects >= 0 && redials >= rp.cfg.MaxReconnects {
			return errors.New("rtmp: publisher reconnect budget exhausted")
		}
		if err := rp.cfg.Backoff.Sleep(ctx, rp.cfg.Backoff.Delay(redials)); err != nil {
			return err
		}
		redials++
		pub, err := rp.dial(ctx)
		if err != nil {
			if terminalRejection(err) || errors.Is(err, ErrFull) {
				return err
			}
			continue
		}
		if err := rp.resend(pub); err != nil {
			// The session died again mid-replay; keep redialing on the
			// same budget.
			pub.Close()
			continue
		}
		rp.pub = pub
		rp.reconnects.Add(1)
		return nil
	}
}

// resend uploads every buffered frame at or past the server's resume floor,
// oldest first.
func (rp *ResilientPublisher) resend(pub *Publisher) error {
	floor := pub.ResumeSeq()
	for i := 0; i < rp.n; i++ {
		f := &rp.buf[(rp.start+i)%len(rp.buf)]
		if f.Seq < floor {
			continue
		}
		if err := pub.Send(f); err != nil {
			return err
		}
	}
	return nil
}

// End announces a clean end of broadcast, redialing first if the transport
// is down, and closes the session.
func (rp *ResilientPublisher) End(ctx context.Context) error {
	if rp.pub == nil {
		if err := rp.redialAndResend(ctx); err != nil {
			return err
		}
	}
	err := rp.pub.End()
	rp.pub = nil
	return err
}

// Close aborts the session without an end marker.
func (rp *ResilientPublisher) Close() error {
	if rp.pub == nil {
		return nil
	}
	err := rp.pub.Close()
	rp.pub = nil
	return err
}

// Reconnects returns how many times the session re-established transport.
func (rp *ResilientPublisher) Reconnects() int64 { return rp.reconnects.Load() }
