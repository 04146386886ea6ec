package rtmp

import (
	"context"
	"crypto/ed25519"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/wire"
)

// ErrFull is returned when the server refuses a viewer because the RTMP cap
// is reached — the signal that sends later arrivals to HLS (§4.1).
var ErrFull = errors.New("rtmp: broadcast full, use HLS")

// ErrRejected is returned for any other refused handshake.
type ErrRejected struct{ Status, Message string }

// Error implements error.
func (e *ErrRejected) Error() string {
	return fmt.Sprintf("rtmp: handshake rejected: %s (%s)", e.Status, e.Message)
}

// dialAndHandshakeTLS opens the session over TLS when tlsCfg is non-nil —
// the RTMPS variant Periscope reserves for private broadcasts (§7.2). A
// non-nil wrap intercepts the raw connection (fault injection harnesses).
// A positive timeout bounds the dial plus the handshake round-trip: without
// it a lost SYN or a stalled peer blocks the caller on kernel retransmit
// backoff, which is fatal inside an auto-reconnect loop.
func dialAndHandshakeTLS(ctx context.Context, addr string, hs wire.Handshake, tlsCfg *tls.Config, wrap func(net.Conn) net.Conn, timeout time.Duration) (net.Conn, wire.Ack, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var conn net.Conn
	var err error
	if tlsCfg != nil {
		td := &tls.Dialer{Config: tlsCfg}
		conn, err = td.DialContext(ctx, "tcp", addr)
	} else {
		var d net.Dialer
		conn, err = d.DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return nil, wire.Ack{}, fmt.Errorf("rtmp: dial %s: %w", addr, err)
	}
	if wrap != nil {
		conn = wrap(conn)
	}
	// The handshake round trip ends with ctx, by deadline or by cancel: a
	// deadline in the past, armed when ctx is done, fails the blocked write or
	// read at once. A peer that accepts and never acks must not hold the
	// caller.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	m := wire.Message{Type: wire.MsgHandshake, Body: wire.MarshalHandshake(hs)}
	var reply wire.Message
	err = wire.WriteMessage(conn, m)
	if err == nil {
		if reply, err = wire.ReadMessage(conn); err != nil {
			err = fmt.Errorf("rtmp: reading handshake ack: %w", err)
		}
	}
	if !stop() {
		// ctx ended first: the past deadline is armed or about to be, so
		// the connection is unusable whatever the exchange returned.
		err = fmt.Errorf("rtmp: handshake with %s: %w", addr, ctx.Err())
	}
	if err != nil {
		conn.Close()
		return nil, wire.Ack{}, err
	}
	if reply.Type != wire.MsgHandshakeAck {
		conn.Close()
		return nil, wire.Ack{}, fmt.Errorf("rtmp: unexpected reply type %d", reply.Type)
	}
	ack, err := wire.UnmarshalAck(reply.Body)
	if err != nil {
		conn.Close()
		return nil, wire.Ack{}, err
	}
	switch ack.Status {
	case wire.StatusOK:
		return conn, ack, nil
	case wire.StatusFull:
		conn.Close()
		return nil, ack, ErrFull
	default:
		conn.Close()
		return nil, ack, &ErrRejected{Status: ack.Status, Message: ack.Message}
	}
}

// Publisher is a broadcaster-side RTMP session. Its methods are not safe for
// concurrent use: frames must be uploaded from one goroutine, as interleaved
// writes would corrupt the message stream anyway.
type Publisher struct {
	conn   net.Conn
	signer ed25519.PrivateKey
	// resumeSeq is the server's replay floor from the handshake ack: the
	// next frame sequence it expects. Nonzero only when reconnecting to a
	// recovered origin.
	resumeSeq uint64
	// scratch is the reused frame-marshal buffer; Send frames into it so a
	// steady 25 fps upload allocates nothing per frame on the unsigned path.
	scratch []byte
}

// Publish opens a broadcaster session. A non-nil signer enables the §7.2
// defense: every frame is signed before upload.
func Publish(ctx context.Context, addr, broadcastID, token string, signer ed25519.PrivateKey) (*Publisher, error) {
	return PublishTLS(ctx, addr, broadcastID, token, signer, nil)
}

// PublishTLS opens a broadcaster session over RTMPS (TLS) when tlsCfg is
// non-nil — Periscope's private-broadcast transport and Facebook Live's
// default (§7.2).
func PublishTLS(ctx context.Context, addr, broadcastID, token string, signer ed25519.PrivateKey, tlsCfg *tls.Config) (*Publisher, error) {
	conn, ack, err := dialAndHandshakeTLS(ctx, addr, wire.Handshake{
		Role: wire.RoleBroadcaster, BroadcastID: broadcastID, Token: token,
	}, tlsCfg, nil, 0)
	if err != nil {
		return nil, err
	}
	return &Publisher{conn: conn, signer: signer, resumeSeq: ack.ResumeSeq}, nil
}

// ResumeSeq returns the next frame sequence the server asked for at
// handshake time — zero for a fresh broadcast, the journal replay floor when
// the server recovered this broadcast from a crash.
func (p *Publisher) ResumeSeq() uint64 { return p.resumeSeq }

// Send uploads one frame, signed when the publisher has a signing key.
func (p *Publisher) Send(f *media.Frame) error {
	p.scratch = media.MarshalFrame(p.scratch[:0], f)
	frameBytes := p.scratch
	if p.signer == nil {
		return wire.WriteMessage(p.conn, wire.Message{Type: wire.MsgFrame, Body: frameBytes})
	}
	sig := ed25519.Sign(p.signer, frameBytes)
	body, err := wire.MarshalSignedFrame(frameBytes, sig)
	if err != nil {
		return err
	}
	return wire.WriteMessage(p.conn, wire.Message{Type: wire.MsgSignedFrame, Body: body})
}

// End announces a clean end of broadcast and closes the connection.
func (p *Publisher) End() error {
	err := wire.WriteMessage(p.conn, wire.Message{Type: wire.MsgEnd})
	if cerr := p.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close aborts the session without an end marker.
func (p *Publisher) Close() error { return p.conn.Close() }

// ReceivedFrame is one frame as seen by a viewer, with its local arrival
// time (timestamp ③ of Fig. 10) and signature status. Frame.Payload (and
// Frame.Sig) is a capped view of the buffer the frame was read in, which it
// shares with the frames read beside it: a receiver may keep it, and append
// to it, but must not write its bytes.
type ReceivedFrame struct {
	Frame      media.Frame
	ReceivedAt time.Time
	// Signed reports whether the frame arrived with a signature.
	Signed bool
	// Verified reports whether the signature checked out against the
	// viewer's copy of the broadcaster key; always false for unsigned
	// frames or when the viewer has no key.
	Verified bool
}

// Viewer is a viewer-side RTMP session receiving pushed frames.
type Viewer struct {
	conn      net.Conn
	frames    chan ReceivedFrame
	errc      chan error
	done      chan struct{}
	closeOnce sync.Once
	pubKey    ed25519.PublicKey
	clk       clock.Clock
}

// ViewerOptions tune a Subscribe call.
type ViewerOptions struct {
	// BufferMs is the requested stream buffer; the paper's crawler uses 0
	// so every frame arrives as soon as available (§4.3).
	BufferMs uint32
	// PubKey, when set, verifies the §7.2 signature on each frame.
	PubKey ed25519.PublicKey
	// Queue is the local frame queue size (default 1024).
	Queue int
	// WrapConn, when set, intercepts the raw connection right after dial
	// (before the handshake) — the seam fault-injection harnesses use to
	// model resets and loss on the viewer's last-mile link (§5.2).
	WrapConn func(net.Conn) net.Conn
	// Clock stamps frame receipt (timestamp ② of the delay
	// decomposition); nil means the real clock.
	Clock clock.Clock
}

// Subscribe opens a viewer session. The returned Viewer's Frames channel is
// closed when the broadcast ends or the connection drops; Err reports the
// terminal error, if any.
func Subscribe(ctx context.Context, addr, broadcastID, token string, opts ViewerOptions) (*Viewer, error) {
	return subscribe(ctx, addr, broadcastID, token, opts, nil, 0)
}

// SubscribeTLS opens a viewer session over RTMPS when tlsCfg is non-nil.
func SubscribeTLS(ctx context.Context, addr, broadcastID, token string, opts ViewerOptions, tlsCfg *tls.Config) (*Viewer, error) {
	return subscribe(ctx, addr, broadcastID, token, opts, tlsCfg, 0)
}

// subscribe opens a viewer session; dialTimeout, when positive, bounds the
// dial plus handshake round-trip beyond ctx.
func subscribe(ctx context.Context, addr, broadcastID, token string, opts ViewerOptions, tlsCfg *tls.Config, dialTimeout time.Duration) (*Viewer, error) {
	conn, _, err := dialAndHandshakeTLS(ctx, addr, wire.Handshake{
		Role: wire.RoleViewer, BroadcastID: broadcastID, Token: token, BufferMs: opts.BufferMs,
	}, tlsCfg, opts.WrapConn, dialTimeout)
	if err != nil {
		return nil, err
	}
	v := newViewer(conn, opts)
	go v.receiveLoop()
	return v, nil
}

// newViewer builds the session over a handshaken connection.
func newViewer(conn net.Conn, opts ViewerOptions) *Viewer {
	if opts.Queue == 0 {
		opts.Queue = 1024
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	return &Viewer{
		conn:   conn,
		frames: make(chan ReceivedFrame, opts.Queue),
		errc:   make(chan error, 1),
		done:   make(chan struct{}),
		pubKey: opts.PubKey,
		clk:    clk,
	}
}

// receiveLoop reads pushed frames the way the origin reads its broadcaster:
// through a pooled bufio.Reader and a wire.Reader, so every frame already
// buffered when a read returns shares that read's one allocation, and each
// frame is a view of it (media.ViewFrame) rather than a copy.
func (v *Viewer) receiveLoop() {
	defer close(v.frames)
	// The handshake ack was read exactly, so buffering from here on loses
	// nothing of the stream.
	br := getReader(v.conn)
	defer putReader(br)
	rd := wire.NewReader(br)
	for {
		msg, err := rd.Next()
		if err != nil {
			v.errc <- err
			return
		}
		switch msg.Type() {
		case wire.MsgEnd:
			return
		case wire.MsgFrame, wire.MsgSignedFrame:
			rf := ReceivedFrame{ReceivedAt: v.clk.Now()}
			frameBytes := msg.Body()
			if msg.Type() == wire.MsgSignedFrame {
				fb, sig, err := wire.UnmarshalSignedFrame(frameBytes)
				if err != nil {
					continue
				}
				rf.Signed = true
				if v.pubKey != nil {
					rf.Verified = ed25519.Verify(v.pubKey, fb, sig)
				}
				frameBytes = fb
			}
			f, _, err := media.ViewFrame(frameBytes)
			if err != nil {
				continue
			}
			rf.Frame = f
			// Close must be able to unblock a receive loop stalled on a
			// full frames queue — the conn close alone only interrupts the
			// read, not this send.
			select {
			case v.frames <- rf:
			case <-v.done:
				return
			}
		}
	}
}

// Frames returns the pushed-frame channel.
func (v *Viewer) Frames() <-chan ReceivedFrame { return v.frames }

// Err returns the terminal receive error, or nil after a clean MsgEnd.
func (v *Viewer) Err() error {
	select {
	case err := <-v.errc:
		return err
	default:
		return nil
	}
}

// Close tears down the session: it interrupts the blocking read and releases
// a receive loop blocked on an undrained Frames channel.
func (v *Viewer) Close() error {
	v.closeOnce.Do(func() { close(v.done) })
	return v.conn.Close()
}
