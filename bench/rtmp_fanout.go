package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/rtmp"
	"repro/internal/wire"
)

// rtmp_fanout: nproc broadcasters each push 512-byte frames through one
// origin's RTMP server to 64 draining viewers. An op is one frame delivered
// to one viewer and verified there.
//
// Why this workload: it is the smallest-message, per-frame push path behind
// the paper's Fig. 14 server-cost curve. wire and rtmp do nearly all the
// work; the origin's chunker sees every 75th frame seal a chunk (under 1 % of
// ops) and the edge, hls, control and journal layers do nothing, so a change
// to any of those must leave this workload where it was.
const (
	fanViewers = 64   // per broadcast; inside the paper's 100-viewer RTMP cap
	fanRing    = 256  // distinct generated payloads per broadcast
	fanAhead   = 4096 // publisher runs at most this far ahead of its slowest viewer
	fanQueue   = 8192 // server-side per-viewer queue: twice fanAhead, so no eviction
	fanCheck   = 512  // frames between flow-control checks
	fanMsgLen  = wireHeaderSize + frameHeaderSize + framePayload

	// fanFramesPerSecond is the per-publisher frame budget a window is sized
	// from: what the 2-core reference box sustains, so that --seconds of
	// budget takes about --seconds of wall time there.
	fanFramesPerSecond = 11000
	// fanWarmFrames is the fixed warm-up each publisher sends through the
	// measured path during set-up.
	fanWarmFrames = 20480
	// fanLatencyEvery is the share of frames a viewer timestamps in the paced
	// segment (one clock read per 8 frames per viewer).
	fanLatencyEvery = 8
)

type fanout struct {
	p      params
	reg    *metrics.Registry
	origin *cdn.Origin
	cancel context.CancelFunc
	pubs   []*fanPub
	// perWindow is the frames each publisher sends in one window.
	perWindow int64
}

type fanPub struct {
	w        *fanout
	id       string
	conn     net.Conn
	payloads [][]byte
	scratch  []byte
	sent     int64
	late     []int64 // open-loop segment: how far behind its due time each write started
	viewers  []*fanViewer
	vwg      sync.WaitGroup

	// Flow control: the publisher parks on progress with waiting set and
	// need = the delivery count that would unblock it; a viewer pokes only
	// when it crosses need, so a parked publisher wakes at most once per
	// viewer rather than once per socket read.
	progress chan struct{}
	waiting  atomic.Bool
	need     atomic.Int64
}

type fanViewer struct {
	pub    *fanPub
	conn   net.Conn
	sample uint64 // which residue mod 64 this viewer byte-compares
	next   uint64 // next expected frame seq

	n, okN int64        // frames seen / frames verified, owned by the reader
	got    atomic.Int64 // published copy of n (MaxInt64 once the session died)
	ok     atomic.Int64 // published copy of okN

	timing atomic.Bool // paced segment: timestamp sampled frames
	lat    []int64
}

func newFanout(p params) workload { return &fanout{p: p} }

func (w *fanout) registry() *metrics.Registry { return w.reg }

func (w *fanout) setUp() error {
	w.reg = metrics.NewRegistry()
	w.perWindow = w.p.scaled(fanFramesPerSecond, fanCheck)
	w.origin = cdn.NewOrigin(cdn.OriginConfig{
		Site:    geo.Datacenter{ID: "bench-origin"},
		Metrics: w.reg,
		RTMP:    rtmp.ServerConfig{ViewerQueue: fanQueue},
	})
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	ln, err := w.origin.RTMP().Listen(ctx, "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()

	ids := newGen(w.p.seed, "fanout-ids")
	for b := 0; b < w.p.drivers; b++ {
		pb := &fanPub{
			w:        w,
			id:       ids.hexID("bc-"),
			scratch:  make([]byte, 0, fanMsgLen),
			progress: make(chan struct{}, 1),
		}
		w.pubs = append(w.pubs, pb)
		pg := newGen(w.p.seed, "fanout-payload", uint64(b))
		for i := 0; i < fanRing; i++ {
			pl := make([]byte, framePayload)
			pg.fill(pl)
			pb.payloads = append(pb.payloads, pl)
		}
		if pb.conn, err = w.handshake(addr, wire.RoleBroadcaster, pb.id); err != nil {
			return err
		}
		for v := 0; v < fanViewers; v++ {
			conn, err := w.handshake(addr, wire.RoleViewer, pb.id)
			if err != nil {
				return err
			}
			fv := &fanViewer{pub: pb, conn: conn, sample: uint64(v) % 64}
			pb.viewers = append(pb.viewers, fv)
			pb.vwg.Add(1)
			go fv.run()
		}
	}
	// Warm-up through the measured path: fills the viewer queues' steady
	// state, the server's buffer pools and the first chunks.
	w.each(func(pb *fanPub) { pb.send(fanWarmFrames, 0, time.Time{}) })
	if f := w.failedSince(0, fanWarmFrames); f > 0 {
		return fmt.Errorf("warm-up: %d of %d deliveries failed", f, int64(fanWarmFrames)*int64(len(w.pubs))*fanViewers)
	}
	return nil
}

// handshake opens one RTMP session in the given role. The exchange is the
// one rtmp.Publish/Subscribe perform; the benchmark keeps the raw connection
// so publishers can write pre-framed messages and viewers can drain without
// the client library's per-frame decode.
func (w *fanout) handshake(addr, role, id string) (net.Conn, error) {
	sp := w.p.tr.start("rtmp.handshake", 0, noSpan)
	defer w.p.tr.end(sp)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	hs := wire.Handshake{Role: role, BroadcastID: id}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHandshake, Body: wire.MarshalHandshake(hs)}); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := wire.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake ack: %w", err)
	}
	ack, err := wire.UnmarshalAck(reply.Body)
	if err != nil || ack.Status != wire.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("%s handshake refused: %q %v", role, ack.Status, err)
	}
	return conn, nil
}

// each runs fn once per publisher, concurrently, and waits.
func (w *fanout) each(fn func(*fanPub)) {
	var wg sync.WaitGroup
	for _, pb := range w.pubs {
		wg.Add(1)
		go func(pb *fanPub) {
			defer wg.Done()
			fn(pb)
		}(pb)
	}
	wg.Wait()
}

// snapshotOK sums the verified deliveries so far.
func (w *fanout) snapshotOK() int64 {
	var n int64
	for _, pb := range w.pubs {
		for _, v := range pb.viewers {
			n += v.ok.Load()
		}
	}
	return n
}

// failedSince is the deliveries missing or failed since okBefore, given that
// every publisher sent frames more frames.
func (w *fanout) failedSince(okBefore, frames int64) int64 {
	return frames*int64(len(w.pubs))*fanViewers - (w.snapshotOK() - okBefore)
}

func (w *fanout) window(int) (attempted, failed int64) {
	before := w.snapshotOK()
	w.each(func(pb *fanPub) { pb.send(w.perWindow, 0, time.Time{}) })
	return w.perWindow * int64(len(w.pubs)) * fanViewers, w.failedSince(before, w.perWindow)
}

// send publishes n frames and returns once every live viewer has them. With
// rate > 0 it is the open-loop publisher: frame i is due at t0 + i/rate, is
// stamped with that due time, and pb.late collects how far behind the due time
// each write started.
func (pb *fanPub) send(n int64, rate float64, t0 time.Time) {
	tr := pb.w.p.tr
	for i := int64(0); i < n; i++ {
		if pb.sent%fanCheck == 0 && !pb.throttle(fanAhead-fanCheck) {
			return
		}
		seq := uint64(pb.sent)
		captured := captureTime(seq).UnixNano()
		if rate > 0 {
			due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			pacedWait(due)
			pb.late = append(pb.late, int64(max(time.Since(due), 0)))
			captured = due.UnixNano()
		}
		pb.scratch = appendFrameMsg(pb.scratch[:0], seq, captured, isKeyframe(seq), pb.payloads[seq%fanRing])
		var sp int32 = noSpan
		if tr.active() {
			sp = tr.start("rtmp.write", int64(seq), noSpan)
		}
		_, err := pb.conn.Write(pb.scratch)
		tr.end(sp)
		if err != nil {
			return
		}
		pb.sent++
	}
	pb.throttle(0)
}

// throttle blocks until the slowest viewer is within limit frames of what has
// been sent. It reports false when the run's hard wall cap expired instead.
func (pb *fanPub) throttle(limit int64) bool {
	need := pb.sent - limit
	for pb.minGot() < need {
		pb.need.Store(need)
		pb.waiting.Store(true)
		if pb.minGot() >= need {
			pb.waiting.Store(false)
			break
		}
		select {
		case <-pb.progress:
		case <-time.After(250 * time.Millisecond):
			// Only reached when delivery stalls; the cap turns a wedged
			// run into counted failures instead of a hang.
			if pb.w.p.expired() {
				pb.waiting.Store(false)
				return false
			}
		}
		pb.waiting.Store(false)
	}
	return true
}

func (pb *fanPub) minGot() int64 {
	m := int64(math.MaxInt64)
	for _, v := range pb.viewers {
		m = min(m, v.got.Load())
	}
	return m
}

// run drains one viewer connection: large reads, in-place parsing, and the
// per-frame verification (type, length, sequence order on every frame; the
// payload compared byte for byte on one frame in 64).
func (v *fanViewer) run() {
	defer v.pub.vwg.Done()
	buf := make([]byte, 64<<10)
	have := 0
	for {
		off := 0
		for have-off >= wireHeaderSize {
			n := int(binary.BigEndian.Uint32(buf[off+1:]))
			if n > len(buf)-wireHeaderSize {
				v.die() // a message the protocol never sends here
				return
			}
			if have-off < wireHeaderSize+n {
				break
			}
			if buf[off] == wireMsgEnd {
				v.publish()
				return
			}
			v.check(buf[off], buf[off+wireHeaderSize:off+wireHeaderSize+n])
			off += wireHeaderSize + n
		}
		have = copy(buf, buf[off:have])
		v.publish()
		nr, err := v.conn.Read(buf[have:])
		if err != nil {
			v.die()
			return
		}
		have += nr
	}
}

// check verifies one delivered message and counts it.
func (v *fanViewer) check(typ byte, body []byte) {
	v.n++
	if typ != wireMsgFrame || len(body) != frameHeaderSize+framePayload {
		v.next++
		return
	}
	seq := binary.BigEndian.Uint64(body[0:8])
	good := seq == v.next && binary.BigEndian.Uint32(body[17:21]) == framePayload
	if good && seq%64 == v.sample {
		good = bytes.Equal(body[frameHeaderSize:], v.pub.payloads[seq%fanRing])
	}
	if good {
		v.okN++
	}
	v.next = seq + 1 // resynchronise after a gap so one loss is one failure
	if v.timing.Load() && seq%fanLatencyEvery == v.sample%fanLatencyEvery {
		sent := int64(binary.BigEndian.Uint64(body[8:16]))
		v.lat = append(v.lat, time.Now().UnixNano()-sent)
	}
}

// publish makes the reader's counts visible and wakes a parked publisher
// this viewer was holding back.
func (v *fanViewer) publish() {
	v.ok.Store(v.okN)
	v.got.Store(v.n)
	pb := v.pub
	if pb.waiting.Load() && v.n >= pb.need.Load() {
		select {
		case pb.progress <- struct{}{}:
		default:
		}
	}
}

// die marks a session that ended without MsgEnd — an evicted or reset
// viewer. It stops holding the publisher back; the frames it never got are
// counted as failed by the window accounting.
func (v *fanViewer) die() {
	v.ok.Store(v.okN)
	v.got.Store(math.MaxInt64)
	select {
	case v.pub.progress <- struct{}{}:
	default:
	}
}

func (w *fanout) tearDown() {
	for _, pb := range w.pubs {
		if pb.conn != nil {
			// A clean end: the server answers every viewer with MsgEnd,
			// which is what lets their readers return.
			_ = wire.WriteMessage(pb.conn, wire.Message{Type: wire.MsgEnd})
			pb.conn.Close()
		}
	}
	done := make(chan struct{})
	go func() {
		for _, pb := range w.pubs {
			pb.vwg.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		// A viewer that never saw MsgEnd: cut its socket.
		for _, pb := range w.pubs {
			for _, v := range pb.viewers {
				v.conn.Close()
			}
		}
		<-done
	}
	for _, pb := range w.pubs {
		for _, v := range pb.viewers {
			v.conn.Close()
		}
	}
	if w.cancel != nil {
		w.cancel()
	}
	if w.origin != nil {
		w.origin.Close()
	}
}

func (w *fanout) paced(rate float64, d time.Duration) pacedResult {
	perPub := rate / float64(len(w.pubs)*fanViewers) // frames/s per publisher
	n := int64(perPub * d.Seconds())
	for _, pb := range w.pubs {
		for _, v := range pb.viewers {
			v.timing.Store(true)
		}
	}
	t0 := time.Now().Add(10 * time.Millisecond)
	w.each(func(pb *fanPub) { pb.send(n, perPub, t0) })
	var pr pacedResult
	for _, pb := range w.pubs {
		pr.lateNs = append(pr.lateNs, pb.late...)
		for _, v := range pb.viewers {
			v.timing.Store(false)
			// send returned after every viewer published got ≥ sent, which
			// orders the reader's appends before this read.
			pr.latencyNs = append(pr.latencyNs, v.lat...)
		}
	}
	return pr
}

func (w *fanout) layers(lc *layerCtx) {
	in, out := lc.reg.counter("rtmp_frames_in_total"), lc.reg.counter("rtmp_frames_out_total")
	lc.m["rtmp.frames_in"] = in
	lc.m["rtmp.frames_out"] = out
	lc.m["rtmp.fanout_ratio"] = div(out, in*fanViewers)
	lc.m["rtmp.slow_evictions"] = lc.reg.counter("rtmp_slow_evictions_total")
	lc.m["rtmp.send_blocked_us_per_frame"] = lc.spans["rtmp.write"].meanNs() / 1e3
	push := summarize(lc.paced.latencyNs, 99)
	lc.m["rtmp.push_delay_p50_us"] = push.P50 / 1e3
	lc.m["rtmp.push_delay_p99_us"] = push.Tail / 1e3
	lc.m["rtmp.handshake_p50_us"] = summarize(lc.setup["rtmp.handshake"].durations(), 99).P50 / 1e3
	lc.m["cdn.origin.chunks_sealed"] = lc.reg.counter("cdn_origin_chunks_total")

	pb := w.pubs[0]
	probeWire(lc.m, pb.payloads)
	probeMedia(lc.m, pb.payloads)
	probeIngest(lc.m, pb.payloads)
	lc.m["loadgen.cpu_ms_per_kop"] = probeFanoutGenerator(pb.payloads)
	logTiming("rtmp.push_delay", push)
	logShares("rtmp_fanout", lc.cpuNs, "wire+rtmp+sockets", map[string]float64{
		"loadgen(user)": lc.m["loadgen.cpu_ms_per_kop"] * 1e3 * float64(lc.ops),
		"cdn.origin":    lc.m["cdn.origin.ingest_ns_per_frame"] * in,
	})
}
