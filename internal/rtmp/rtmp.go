// Package rtmp implements the RTMP-like half of the delivery path (§4.1): a
// persistent-TCP protocol where the broadcaster publishes 40 ms frames and
// the server pushes each frame to every subscribed viewer the moment it
// arrives. This is the low-latency path Periscope gives the first ~100
// viewers; the per-frame push is also what makes it expensive to scale
// (Fig. 14).
//
// Faithful to §7, the transport is unencrypted and the broadcast token
// travels in plaintext. The optional signature defense (§7.2) verifies an
// Ed25519 signature on every frame when the control plane has registered a
// broadcaster public key.
package rtmp

import (
	"bufio"
	"context"
	"crypto/ed25519"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/media"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// Auth validates a handshake. Implementations come from the control plane.
type Auth interface {
	// Authorize reports whether token may open broadcastID in role.
	Authorize(broadcastID, token, role string) bool
	// PublicKey returns the broadcaster's registered Ed25519 key for
	// signed streams, or nil when the broadcast is unsigned.
	PublicKey(broadcastID string) ed25519.PublicKey
}

// AuthFunc adapts a function to Auth with no signing keys.
type AuthFunc func(broadcastID, token, role string) bool

// Authorize implements Auth.
func (f AuthFunc) Authorize(broadcastID, token, role string) bool {
	return f(broadcastID, token, role)
}

// PublicKey implements Auth; AuthFunc streams are unsigned.
func (AuthFunc) PublicKey(string) ed25519.PublicKey { return nil }

// AllowAll authorizes every handshake (used by tests and the attack demo).
var AllowAll = AuthFunc(func(string, string, string) bool { return true })

// FrameTap observes every frame accepted from a broadcaster, with the server
// arrival time (timestamps ② and ⑥ of Fig. 10). The CDN origin uses it to
// feed the HLS chunker. The frame is read-only: its Payload and Sig alias the
// relay buffer every viewer of the broadcast is being sent, which is never
// written again, so a tap may keep the frame but must not modify those bytes.
type FrameTap func(broadcastID string, f media.Frame, arrivedAt time.Time)

// ServerConfig configures a Server.
type ServerConfig struct {
	// Auth validates handshakes; nil means AllowAll.
	Auth Auth
	// Usage returns the delivery meter of a broadcast's tenant, nil for an
	// untenanted one; it is called once per publisher session. Nil meters
	// nothing.
	Usage func(broadcastID string) *metrics.Usage
	// ViewerCap is the per-broadcast RTMP viewer limit; beyond it
	// handshakes are refused with StatusFull so clients fall back to HLS
	// (§4.1: ≈100). Zero means unlimited.
	ViewerCap int
	// Tap observes accepted frames; may be nil.
	Tap FrameTap
	// OnEnd is called when a broadcast finishes; may be nil.
	OnEnd func(broadcastID string)
	// ResumeSeq, when set, supplies the next frame sequence the server
	// expects from a broadcaster opening the given broadcast — a recovered
	// origin returns its journal replay floor here so a reconnecting
	// publisher resumes instead of restarting from zero. The value rides
	// the OK ack's trailing ResumeSeq field; zero means "from the top".
	ResumeSeq func(broadcastID string) uint64
	// Pending, when set, reports a broadcast this server expects back
	// shortly (recovered from the journal, publisher not yet returned).
	// Viewers dialing such a broadcast are refused with StatusUnavailable —
	// a retryable answer — instead of the terminal StatusNotFound.
	Pending func(broadcastID string) bool
	// ViewerQueue is how far behind the live head, in frames, a viewer may
	// fall: a viewer this far behind is disconnected by the next frame (it
	// would re-join via HLS in production). Its memory is paid per
	// broadcast, not per viewer — one relay ring of ViewerQueue slots that
	// every viewer of the broadcast reads from, allocated once the broadcast
	// has a viewer. Zero means 256.
	ViewerQueue int
	// Clock stamps frame arrivals (timestamp ① of the delay
	// decomposition); nil means the real clock. Socket deadlines always
	// use the OS wall clock regardless — the kernel knows nothing about
	// a virtual time base.
	Clock clock.Clock
	// Metrics is the registry the server's instruments register in; nil
	// means a private registry (standalone servers and tests still get
	// working counters).
	Metrics *metrics.Registry
	// MetricsLabels are attached to every instrument — the origin wires
	// its site here so a shared registry distinguishes per-site series.
	MetricsLabels []metrics.Label
}

// Stats is a point-in-time snapshot of the server's cumulative counters and
// live gauges, read atomically from the metrics registry.
type Stats struct {
	FramesIn         int64
	FramesOut        int64
	BytesIn          int64
	BytesOut         int64
	ViewersRejected  int64
	TamperedFrames   int64
	SlowEvictions    int64
	ActiveBroadcasts int64
	ActiveViewers    int64
}

// serverMetrics are the registered instruments backing Stats. Counters and
// gauges are allocation-free on the per-frame path (DESIGN.md §5a budget).
type serverMetrics struct {
	framesIn         *metrics.Counter
	framesOut        *metrics.Counter
	bytesIn          *metrics.Counter
	bytesOut         *metrics.Counter
	viewersRejected  *metrics.Counter
	tamperedFrames   *metrics.Counter
	slowEvictions    *metrics.Counter
	activeBroadcasts *metrics.Gauge
	activeViewers    *metrics.Gauge
	pushLatency      *metrics.Histogram
}

// pushLatencyBuckets resolve the per-frame fan-out cost, which sits far
// below the delay-component scale: microseconds when viewer queues have
// room, creeping toward milliseconds under eviction pressure.
var pushLatencyBuckets = []time.Duration{
	10 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	5 * time.Millisecond,
	25 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
}

func newServerMetrics(reg *metrics.Registry, labels []metrics.Label) *serverMetrics {
	return &serverMetrics{
		framesIn:         reg.Counter("rtmp_frames_in_total", labels...),
		framesOut:        reg.Counter("rtmp_frames_out_total", labels...),
		bytesIn:          reg.Counter("rtmp_bytes_in_total", labels...),
		bytesOut:         reg.Counter("rtmp_bytes_out_total", labels...),
		viewersRejected:  reg.Counter("rtmp_viewers_rejected_total", labels...),
		tamperedFrames:   reg.Counter("rtmp_tampered_frames_total", labels...),
		slowEvictions:    reg.Counter("rtmp_slow_evictions_total", labels...),
		activeBroadcasts: reg.Gauge("rtmp_active_broadcasts", labels...),
		activeViewers:    reg.Gauge("rtmp_active_viewers", labels...),
		pushLatency:      reg.Histogram("rtmp_push_latency_seconds", pushLatencyBuckets, labels...),
	}
}

// Server is the Wowza-analog RTMP endpoint.
type Server struct {
	cfg ServerConfig
	m   *serverMetrics

	mu         sync.Mutex
	broadcasts map[string]*broadcast
	lns        []net.Listener
	conns      map[net.Conn]struct{}
	closed     bool
	aborted    bool
	wg         sync.WaitGroup
}

type broadcast struct {
	id     string
	pubKey ed25519.PublicKey

	// usage is the tenant's delivery meter, resolved once at publisher
	// handshake so the fan-out hot path only adds to it — zero allocations
	// per frame (DESIGN.md §5a budget, TestArrivalAllocBudget). Nil for an
	// untenanted broadcast.
	usage *metrics.Usage

	// mu guards the viewer set and the relay ring: join, leave, eviction
	// and end, the relay's write of each frame and every viewer's take of
	// a batch. One lock, so a join places its cursor at the head of the
	// ring state the relay sees next. It is a leaf: no other lock is taken,
	// no channel sent on and no socket touched while it is held. A plain
	// mutex, not an RWMutex: takes parked behind a waiting relay would all
	// be released after its one frame and each take just that frame, so a
	// behind viewer's push batches would shrink to one frame each.
	mu sync.Mutex
	// viewers is replaced wholesale, never changed in place, so the relay
	// wakes the set it saw after letting go of mu.
	viewers []*viewerConn
	ended   bool
	ring    relayRing
}

// relayRing is a broadcast's one outgoing frame queue, shared by all of its
// viewers and guarded by the broadcast's mu: frame number seq sits in
// slots[seq%len(slots)] until every viewer has taken it. A viewer is a
// cursor into the ring, and one the ring is about to overwrite unread — a
// viewer ViewerQueue frames behind — is evicted, exactly when a per-viewer
// queue of that length would have been full.
type relayRing struct {
	// slots is nil until the first viewer's join allocates it, and again
	// once a frame finds no viewer left, so a broadcast without RTMP
	// viewers pins nothing.
	slots []wire.Encoded
	// tail is the lowest sequence whose slot may still be set: every slot
	// before it has been passed by all viewers and cleared.
	tail uint64
	// head is the sequence the next frame is written at.
	head uint64
}

// errLapped ends the session of a viewer the ring evicted.
var errLapped = errors.New("rtmp: viewer fell a whole relay ring behind")

// remove takes the given viewers out of the viewer set and closes their done
// channels. Idempotent and safe against concurrent fan-out: a relay that
// loaded the old set keeps waking it, whose channels stay valid.
func (b *broadcast) remove(vs ...*viewerConn) {
	b.mu.Lock()
	cur := b.viewers
	next := make([]*viewerConn, 0, len(cur))
	for _, w := range cur {
		keep := true
		for _, v := range vs {
			if w == v {
				keep = false
				break
			}
		}
		if keep {
			next = append(next, w)
		}
	}
	if len(next) != len(cur) {
		b.viewers = next
	}
	b.mu.Unlock()
	for _, v := range vs {
		v.close()
	}
}

type viewerConn struct {
	// cursor is the sequence of the next frame the viewer takes from its
	// broadcast's ring, and lapped is set when the ring evicts it; both
	// under the broadcast's mu.
	cursor uint64
	lapped bool
	// wake holds one token when a frame was written since the viewer last
	// looked.
	wake chan struct{}
	done chan struct{}
	// gone flips exactly once — on eviction, leave, or broadcast end; the
	// winner of the flip closes done.
	gone atomic.Bool
}

// pushBytes bounds one viewer write by size: a push takes ring messages until
// its batch reaches this many bytes, so a viewer behind by B bytes catches up
// in about B/pushBytes vectored writes whatever its frames weigh.
const pushBytes = 64 << 10

// pushMsgs is the most ring messages one push takes however small they are;
// it sizes a batch's iovec array, which keeps one MsgEnd more.
const pushMsgs = 128

// pushBatch is one push's iovec array and the net.Buffers header its
// vectored write consumes. A push holds one from pushBatches only for the
// length of its write, so a viewer between writes pins none, and a batch
// allocates nothing once the pool is warm.
type pushBatch struct {
	iov  [pushMsgs + 1][]byte
	bufs net.Buffers
}

var pushBatches = sync.Pool{New: func() any { return new(pushBatch) }}

// viewerWriteTimeout bounds each push to a viewer connection; a viewer whose
// socket stays unwritable this long is dropped (a dead or wedged client must
// never pin a server goroutine).
const viewerWriteTimeout = 30 * time.Second

// handshakeTimeout bounds a new connection's handshake, from the server's
// first read to its ack: a peer that connects and sends nothing, or half a
// handshake, must not hold a goroutine and a socket until it hangs up.
const handshakeTimeout = 10 * time.Second

// close closes done exactly once, reporting whether this call won the flip.
func (v *viewerConn) close() bool {
	if v.gone.CompareAndSwap(false, true) {
		close(v.done)
		return true
	}
	return false
}

// encodedEnd is the shared pre-framed MsgEnd the end-of-broadcast flush
// writes.
var encodedEnd = func() wire.Encoded {
	e, err := wire.EncodeMessage(wire.Message{Type: wire.MsgEnd})
	if err != nil {
		panic(err)
	}
	return e
}()

// readSize is the buffer of the pooled readers. One read takes every
// complete message it finds there into one relay buffer, so a publisher the
// server has fallen behind costs one allocation per ~120 of rtmp_fanout's
// 538-byte messages rather than per 7, as a 4 KiB buffer did; a paced
// publisher's read still carries one frame.
const readSize = 64 << 10

// readers pools the bufio.Readers that the two stream-reading loops — the
// origin's broadcaster loop and the viewer client's receive loop — read
// through with a wire.Reader. wire.Reader copies each batch out of the
// buffer, so nothing a loop hands on aliases a pooled reader, and a finished
// session's buffer serves the next session instead of becoming garbage.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, readSize) }}

// getReader returns a pooled reader over conn.
func getReader(conn net.Conn) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(conn)
	return br
}

// putReader returns br to the pool once its loop has stopped reading.
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}

// NewServer builds a Server from cfg.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Auth == nil {
		cfg.Auth = AllowAll
	}
	if cfg.ViewerQueue == 0 {
		cfg.ViewerQueue = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Server{
		cfg:        cfg,
		m:          newServerMetrics(cfg.Metrics, cfg.MetricsLabels),
		broadcasts: make(map[string]*broadcast),
		conns:      make(map[net.Conn]struct{}),
	}
}

// Stats snapshots the server's instruments. Callers needing live series
// (rates, histograms) should read the metrics registry instead.
func (s *Server) Stats() Stats {
	return Stats{
		FramesIn:         s.m.framesIn.Value(),
		FramesOut:        s.m.framesOut.Value(),
		BytesIn:          s.m.bytesIn.Value(),
		BytesOut:         s.m.bytesOut.Value(),
		ViewersRejected:  s.m.viewersRejected.Value(),
		TamperedFrames:   s.m.tamperedFrames.Value(),
		SlowEvictions:    s.m.slowEvictions.Value(),
		ActiveBroadcasts: s.m.activeBroadcasts.Value(),
		ActiveViewers:    s.m.activeViewers.Value(),
	}
}

// Serve accepts connections on ln until ln is closed or ctx is done.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				// Close (not Serve) waits for handler goroutines:
				// several accept loops share the WaitGroup, and a
				// per-loop Wait would race the others' Adds.
				return nil
			}
			return fmt.Errorf("rtmp: accept: %w", err)
		}
		if !s.track(conn) {
			conn.Close()
			continue
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers one handler goroutine (and its connection) with the
// server. The mutex + closed check keep Add from racing Close's Wait: once
// Close has set closed under the lock, no new handler can be added, so Wait
// only observes a monotonically draining counter. Tracking the connection
// itself lets Abort sever every live session the way a process crash would.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) isAborted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aborted
}

// Listen starts serving on addr in a background goroutine and returns the
// bound listener.
func (s *Server) Listen(ctx context.Context, addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rtmp: listen: %w", err)
	}
	// Serve fails only on an accept error, which ends this listener alone.
	go s.Serve(ctx, ln)
	return ln, nil
}

// ListenTLS starts an RTMPS listener: the same protocol under TLS, which is
// how Periscope serves private broadcasts and Facebook Live serves
// everything (§7.2). The transport encryption defeats the §7 on-path
// tampering attack at the cost of per-byte crypto.
func (s *Server) ListenTLS(ctx context.Context, addr string, tlsCfg *tls.Config) (net.Listener, error) {
	ln, err := tls.Listen("tcp", addr, tlsCfg)
	if err != nil {
		return nil, fmt.Errorf("rtmp: listen tls: %w", err)
	}
	// Serve fails only on an accept error, which ends this listener alone.
	go s.Serve(ctx, ln)
	return ln, nil
}

// Close stops accepting and disconnects every session.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	lns := append([]net.Listener(nil), s.lns...)
	bs := make([]*broadcast, 0, len(s.broadcasts))
	for _, b := range s.broadcasts {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	var err error
	for _, ln := range lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	for _, b := range bs {
		s.endBroadcast(b)
	}
	s.wg.Wait()
	return err
}

// Abort simulates a process crash: listeners and every live connection are
// torn down immediately, and no MsgEnd is sent to anyone — peers observe a
// dead transport, exactly what killing the origin process would produce.
// Close is the graceful sibling; Abort exists so fault injection can crash
// an origin without leaking a clean end-of-broadcast to its viewers.
func (s *Server) Abort() error {
	s.mu.Lock()
	s.closed = true
	s.aborted = true
	lns := append([]net.Listener(nil), s.lns...)
	bs := make([]*broadcast, 0, len(s.broadcasts))
	for _, b := range s.broadcasts {
		bs = append(bs, b)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	for _, ln := range lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	// Aborted is already set, so the viewer loops endBroadcast releases
	// return without their clean MsgEnd: a crash must not look like an end.
	for _, b := range bs {
		s.endBroadcast(b)
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	// The deadline covers the handshake and its ack, which clears it.
	//lint:allow walltime socket deadlines are interpreted by the kernel, which only speaks wall time
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	hs, err := wire.ReadHandshake(conn)
	if err != nil {
		return
	}
	if !s.cfg.Auth.Authorize(hs.BroadcastID, hs.Token, hs.Role) {
		// An auth backed by the control plane rejects everything about an
		// ended broadcast. A viewer rejoining after the end must hear
		// "not found" (a normal end of stream), not "bad token" — the
		// distinction keeps auto-reconnect loops from redialing forever.
		if s.broadcastGone(hs.BroadcastID) {
			s.ack(conn, wire.StatusNotFound, "no such broadcast")
			return
		}
		s.ack(conn, wire.StatusBadToken, "token rejected")
		return
	}
	switch hs.Role {
	case wire.RoleBroadcaster:
		s.handleBroadcaster(conn, hs)
	case wire.RoleViewer:
		s.handleViewer(conn, hs)
	default:
		s.ack(conn, wire.StatusBadToken, "unknown role "+hs.Role)
	}
}

// broadcastGone reports whether a broadcast is unknown to this server or
// already ended.
func (s *Server) broadcastGone(broadcastID string) bool {
	s.mu.Lock()
	b := s.broadcasts[broadcastID]
	s.mu.Unlock()
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ended
}

func (s *Server) ack(conn net.Conn, status, message string) {
	s.ackResume(conn, status, message, 0)
}

func (s *Server) ackResume(conn net.Conn, status, message string, resumeSeq uint64) {
	m := wire.Message{Type: wire.MsgHandshakeAck, Body: wire.MarshalAck(wire.Ack{Status: status, Message: message, ResumeSeq: resumeSeq})}
	// A failed ack needs no handling of its own: a refused peer is hung up
	// on next, and an accepted one's next read or write fails the same way.
	_ = wire.WriteMessage(conn, m)
	// The handshake is over: an accepted session's reads wait for frames or
	// a hang-up as long as they take, and each push sets its own deadline.
	conn.SetDeadline(time.Time{})
}

// newBroadcast builds a broadcast's server-side state, resolving its
// delivery meter once so the per-frame path only adds to it.
func (s *Server) newBroadcast(id string) *broadcast {
	b := &broadcast{id: id, pubKey: s.cfg.Auth.PublicKey(id)}
	if s.cfg.Usage != nil {
		b.usage = s.cfg.Usage(id)
	}
	return b
}

func (s *Server) handleBroadcaster(conn net.Conn, hs wire.Handshake) {
	b := s.newBroadcast(hs.BroadcastID)
	s.mu.Lock()
	if _, dup := s.broadcasts[hs.BroadcastID]; dup {
		s.mu.Unlock()
		s.ack(conn, wire.StatusDuplicate, "broadcast already live")
		return
	}
	s.broadcasts[hs.BroadcastID] = b
	s.mu.Unlock()
	s.m.activeBroadcasts.Add(1)
	defer func() {
		s.mu.Lock()
		delete(s.broadcasts, hs.BroadcastID)
		s.mu.Unlock()
		s.m.activeBroadcasts.Add(-1)
		s.endBroadcast(b)
		if s.cfg.OnEnd != nil {
			s.cfg.OnEnd(hs.BroadcastID)
		}
	}()
	var resume uint64
	if s.cfg.ResumeSeq != nil {
		resume = s.cfg.ResumeSeq(hs.BroadcastID)
	}
	s.ackResume(conn, wire.StatusOK, "publishing", resume)

	// The handshake was read exactly, so nothing of the stream is lost by
	// buffering from here on; small frames then share a read syscall and
	// one relay buffer.
	br := getReader(conn)
	defer putReader(br)
	rd := wire.NewReader(br)
	for {
		enc, err := rd.Next()
		if err != nil {
			return
		}
		// Any other message type is ignored.
		switch enc.Type() {
		case wire.MsgEnd:
			return
		case wire.MsgFrame, wire.MsgSignedFrame:
			s.acceptFrame(b, enc)
		}
	}
}

// acceptFrame validates, records, taps, and fans out one frame message. The
// message arrives pre-framed and is relayed to every viewer as-is, and the tap
// is handed a frame that views the same buffer: the arrival's one allocation
// is the relay buffer its reader made, and this function adds none, with or
// without a tap. It reports false when the frame failed signature
// verification.
//
//livesim:hotpath TestArrivalAllocBudget
func (s *Server) acceptFrame(b *broadcast, enc wire.Encoded) bool {
	body := enc.Body()
	frameBytes := body
	var sig []byte
	if enc.Type() == wire.MsgSignedFrame {
		fb, sg, err := wire.UnmarshalSignedFrame(body)
		if err != nil {
			s.m.tamperedFrames.Add(1)
			return false
		}
		if b.pubKey != nil && !ed25519.Verify(b.pubKey, fb, sg) {
			s.m.tamperedFrames.Add(1)
			return false
		}
		frameBytes, sig = fb, sg
	} else if b.pubKey != nil {
		// A signed broadcast must not accept unsigned frames: that is
		// exactly the downgrade a §7 attacker would try.
		s.m.tamperedFrames.Add(1)
		return false
	}
	// The frame views enc, which is immutable from here on: the buffer the
	// ring holds for the viewers is the buffer a tap's chunk holds.
	f, _, err := media.ViewFrame(frameBytes)
	if err != nil {
		return false
	}
	s.m.framesIn.Inc()
	s.m.bytesIn.Add(int64(len(body)))
	if s.cfg.Tap != nil {
		// Carry the signature into the HLS path: chunks assembled from the
		// tap retain per-frame signatures so HLS viewers can verify too
		// (§7.2's viewer-side defense).
		if sig != nil {
			f.Sig = sig
		}
		s.cfg.Tap(b.id, f, s.cfg.Clock.Now())
	}
	// Fan out: the frame is written into the ring once, then every viewer
	// is woken, with no lock held, by a send that never blocks.
	pushStart := s.cfg.Clock.Now()
	vs, queued, evicted := b.relay(enc)
	for _, v := range vs {
		select {
		case v.wake <- struct{}{}:
		default:
		}
	}
	s.m.pushLatency.Observe(s.cfg.Clock.Now().Sub(pushStart))
	if delivered := int64(queued); delivered > 0 {
		b.usage.MeterFrames(delivered, delivered*int64(len(body)))
	}
	if evicted != nil {
		// Viewers too slow: disconnect them (production clients would
		// rejoin via HLS).
		s.m.slowEvictions.Add(int64(len(evicted)))
		b.remove(evicted...)
	}
	return true
}

// relay writes enc into b's ring for the viewers joined now and returns them
// with how many the frame was queued for. Before the write it evicts every
// viewer the write would lap — returned in evicted, still in the set — and
// clears every slot all remaining viewers have passed, so the ring pins no
// relay buffer a per-viewer queue would not. With no viewer joined it writes
// nothing and drops the ring.
//
//livesim:hotpath TestAcceptFrameAllocBudget
func (b *broadcast) relay(enc wire.Encoded) (vs []*viewerConn, queued int, evicted []*viewerConn) {
	r := &b.ring
	b.mu.Lock()
	vs = b.viewers
	if len(vs) == 0 {
		// With no viewer left the ring goes — unless the broadcast ended,
		// whose viewers are flushing it, out of the set but not done with
		// it.
		if !b.ended {
			r.slots, r.tail = nil, r.head
		}
		b.mu.Unlock()
		return nil, 0, nil
	}
	q, low := uint64(len(r.slots)), r.head
	for _, v := range vs {
		if r.head-v.cursor >= q {
			v.lapped = true
			evicted = append(evicted, v)
		} else {
			low = min(low, v.cursor)
			queued++
		}
	}
	for ; r.tail < low; r.tail++ {
		r.slots[r.tail%q] = nil
	}
	r.slots[r.head%q] = enc
	r.head++
	b.mu.Unlock()
	return vs, queued, evicted
}

// take moves the messages past v's cursor in b's ring into iov — as many as
// fit, until they reach pushBytes — and advances the cursor past them. It
// reports whether v has more waiting, or errLapped once the ring evicted v.
//
//livesim:hotpath TestPushBatchAllocFree
func (b *broadcast) take(v *viewerConn, iov [][]byte) (n int, more bool, err error) {
	r := &b.ring
	b.mu.Lock()
	if v.lapped {
		b.mu.Unlock()
		return 0, false, errLapped
	}
	for size := 0; v.cursor < r.head && n < len(iov) && size < pushBytes; v.cursor++ {
		iov[n] = r.slots[v.cursor%uint64(len(r.slots))]
		size += len(iov[n])
		n++
	}
	more = v.cursor < r.head
	b.mu.Unlock()
	return n, more, nil
}

// endBroadcast marks b ended and releases its viewers. Each viewer loop then
// writes what is left of the ring for it with MsgEnd in the last batch — or,
// when the server is aborting, returns without writing anything.
func (s *Server) endBroadcast(b *broadcast) {
	b.mu.Lock()
	if b.ended {
		b.mu.Unlock()
		return
	}
	b.ended = true
	viewers := b.viewers
	b.viewers = nil
	b.mu.Unlock()
	for _, v := range viewers {
		v.close()
	}
}

func (s *Server) handleViewer(conn net.Conn, hs wire.Handshake) {
	s.mu.Lock()
	b := s.broadcasts[hs.BroadcastID]
	s.mu.Unlock()
	if b == nil {
		if s.cfg.Pending != nil && s.cfg.Pending(hs.BroadcastID) {
			// The origin recovered this broadcast from its journal and is
			// waiting for the publisher to return: a retryable refusal, not
			// a terminal "gone".
			s.ack(conn, wire.StatusUnavailable, "broadcast recovering; retry")
			return
		}
		s.ack(conn, wire.StatusNotFound, "no such broadcast")
		return
	}
	v, refused := b.join(s.cfg.ViewerCap, s.cfg.ViewerQueue)
	switch refused {
	case wire.StatusNotFound:
		s.ack(conn, wire.StatusNotFound, "broadcast ended")
		return
	case wire.StatusFull:
		s.m.viewersRejected.Inc()
		s.ack(conn, wire.StatusFull, "RTMP viewer cap reached; use HLS")
		return
	}
	s.m.activeViewers.Add(1)
	defer func() {
		b.remove(v)
		s.m.activeViewers.Add(-1)
	}()
	s.ack(conn, wire.StatusOK, "subscribed")

	// Reader goroutine: detect client hangup. Viewers send nothing
	// meaningful, so whatever arrives is read into a small scratch and
	// dropped, never parsed: a declared message length must not cost the
	// server memory. (io.Copy to io.Discard would do the same, but holds a
	// pooled 8 KB buffer per idle viewer for the whole session.)
	hangup := make(chan struct{})
	go func() {
		defer close(hangup)
		var scratch [64]byte
		for {
			if _, err := conn.Read(scratch[:]); err != nil {
				return
			}
		}
	}()
	for {
		select {
		case <-hangup:
			return
		case <-v.wake:
			// Take the token first, then the ring: a frame written
			// after the last take leaves a token of its own.
			for {
				// A lapped viewer's push fails: it leaves without
				// the flush and without MsgEnd, so its client sees
				// a broken transport and redials, never a broadcast
				// that ended while it is still live.
				_, more, err := s.push(conn, b, v, false)
				if err != nil {
					return
				}
				if !more {
					break
				}
			}
		case <-v.done:
			if s.isAborted() {
				// Crashing: the socket is being severed; no flush, and
				// critically no clean MsgEnd.
				return
			}
			// Flush what is left of the ring; MsgEnd rides the last batch.
			for {
				_, more, err := s.push(conn, b, v, true)
				if !more || err != nil {
					return
				}
			}
		}
	}
}

// join admits a new viewer to b with its cursor at the ring's head, or
// returns the status it is refused with: StatusNotFound once b has ended,
// StatusFull at a positive viewerCap. The first viewer allocates the ring,
// with queue slots.
func (b *broadcast) join(viewerCap, queue int) (*viewerConn, string) {
	v := &viewerConn{wake: make(chan struct{}, 1), done: make(chan struct{})}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ended {
		return nil, wire.StatusNotFound
	}
	cur := b.viewers
	if viewerCap > 0 && len(cur) >= viewerCap {
		return nil, wire.StatusFull
	}
	if b.ring.slots == nil {
		b.ring.slots = make([]wire.Encoded, queue)
	}
	next := make([]*viewerConn, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = v
	b.viewers = next
	v.cursor = b.ring.head
	return v, ""
}

// push writes one batch to a viewer: the messages past its cursor in the
// ring, up to pushBytes of them, in one net.Buffers.WriteTo — a single
// writev on TCP, one Write per message on TLS and on wrapped connections.
// Nothing waits for the ring to fill, so a viewer that keeps up gets each
// frame in a batch of its own. With end set, MsgEnd is appended to the batch
// that catches the viewer up. It returns how many ring messages it took and
// whether more are waiting, so with end set a push that reports none left
// wrote MsgEnd; with nothing to take and no MsgEnd due it writes nothing.
//
//livesim:hotpath TestPushBatchAllocFree
func (s *Server) push(conn net.Conn, b *broadcast, v *viewerConn, end bool) (n int, more bool, err error) {
	pb := pushBatches.Get().(*pushBatch)
	defer pushBatches.Put(pb)
	if n, more, err = b.take(v, pb.iov[:pushMsgs]); err != nil {
		return 0, false, err
	}
	ended := end && !more
	if n == 0 && !ended {
		return 0, false, nil
	}
	var frames, bytes int64
	for _, e := range pb.iov[:n] {
		if t := wire.Encoded(e).Type(); t == wire.MsgFrame || t == wire.MsgSignedFrame {
			frames++
			bytes += int64(len(wire.Encoded(e).Body()))
		}
	}
	msgs := n
	if ended {
		pb.iov[msgs] = encodedEnd
		msgs++
	}
	//lint:allow walltime socket deadlines are interpreted by the kernel, which only speaks wall time
	conn.SetWriteDeadline(time.Now().Add(viewerWriteTimeout))
	// WriteTo consumes bufs, clearing each iov entry it writes; a failed
	// write leaves the rest, cleared here, so a pooled batch pins no relay
	// buffer once its write returns.
	pb.bufs = pb.iov[:msgs]
	_, err = pb.bufs.WriteTo(conn)
	clear(pb.iov[:msgs])
	if err != nil {
		return n, more, err
	}
	s.m.framesOut.Add(frames)
	s.m.bytesOut.Add(bytes)
	return n, more, nil
}
