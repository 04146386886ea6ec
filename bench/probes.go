package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/cdn"
	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/media"
	"repro/internal/wire"
)

// Layer probes drive a module's public functions directly, on the workload's
// own generated inputs, for the layers whose per-call cost cannot be seen
// from outside a running server (wire, media, the chunker, the timer wheel).
// They run after the measured windows, in the traced run only.

const probeIters = 200_000

// mallocs reads the allocation counter; probes take its difference.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// frameBodies builds the media wire form of one frame per payload.
func frameBodies(payloads [][]byte) [][]byte {
	out := make([][]byte, len(payloads))
	for i, pl := range payloads {
		out[i] = appendFrame(nil, uint64(i), captureTime(uint64(i)).UnixNano(), isKeyframe(uint64(i)), pl)
	}
	return out
}

// probeWire times the framing the RTMP path uses: WriteMessage (the publisher
// and handshake side) and ReadEncoded (the server's per-arrival read, which
// keeps its one buffer per message by design).
func probeWire(m map[string]float64, payloads [][]byte) {
	bodies := frameBodies(payloads)
	var stream bytes.Buffer
	for _, b := range bodies {
		_ = wire.WriteMessage(&stream, wire.Message{Type: wire.MsgFrame, Body: b})
	}
	a0 := mallocs()
	t0 := time.Now()
	for i := 0; i < probeIters; i++ {
		_ = wire.WriteMessage(io.Discard, wire.Message{Type: wire.MsgFrame, Body: bodies[i%len(bodies)]})
	}
	enc := time.Since(t0)
	rd := bytes.NewReader(stream.Bytes())
	t0 = time.Now()
	for i := 0; i < probeIters; i++ {
		if rd.Len() == 0 {
			rd.Reset(stream.Bytes())
		}
		if _, err := wire.ReadEncoded(rd); err != nil {
			break
		}
	}
	dec := time.Since(t0)
	m["wire.encode_ns_per_msg"] = float64(enc.Nanoseconds()) / probeIters
	m["wire.decode_ns_per_msg"] = float64(dec.Nanoseconds()) / probeIters
	m["wire.allocs_per_msg"] = float64(mallocs()-a0) / probeIters
}

// probeMedia times MarshalFrame into a reused buffer, the per-frame encode a
// publishing client pays.
func probeMedia(m map[string]float64, payloads [][]byte) {
	frames := make([]media.Frame, len(payloads))
	for i, pl := range payloads {
		frames[i] = media.Frame{Seq: uint64(i), CapturedAt: captureTime(uint64(i)), Keyframe: isKeyframe(uint64(i)), Payload: pl}
	}
	var buf []byte
	t0 := time.Now()
	for i := 0; i < probeIters; i++ {
		buf = media.MarshalFrame(buf[:0], &frames[i%len(frames)])
	}
	m["media.marshal_ns_per_frame"] = float64(time.Since(t0).Nanoseconds()) / probeIters
}

// probeIngest times Origin.Ingest — chunker append, seal every 75th frame,
// list update — on a scratch origin with no journal and no edges.
func probeIngest(m map[string]float64, payloads [][]byte) {
	o := cdn.NewOrigin(cdn.OriginConfig{Site: geo.Datacenter{ID: "probe"}})
	defer o.Close()
	const n = framesPerChunk * 400
	t0 := time.Now()
	for i := uint64(0); i < n; i++ {
		at := captureTime(i)
		o.Ingest("probe", media.Frame{Seq: i, CapturedAt: at, Keyframe: isKeyframe(i), Payload: payloads[i%uint64(len(payloads))]}, at)
	}
	m["cdn.origin.ingest_ns_per_frame"] = float64(time.Since(t0).Nanoseconds()) / n
}

// probeFanoutGenerator measures the fan-out generator's own user-space work
// per 1000 ops — framing each published frame once and verifying it once per
// viewer — against an in-memory sink, so its socket syscalls are not in the
// number. Subtract it from cpu_ms_per_kop to bound the server's share.
func probeFanoutGenerator(payloads [][]byte) float64 {
	const frames = 20_000
	pb := &fanPub{payloads: payloads}
	v := &fanViewer{pub: pb}
	var msg []byte
	c0 := cpuNow()
	for i := uint64(0); i < frames; i++ {
		msg = appendFrameMsg(msg[:0], i, captureTime(i).UnixNano(), isKeyframe(i), payloads[i%uint64(len(payloads))])
		for k := 0; k < fanViewers; k++ {
			v.next = i
			v.check(msg[0], msg[wireHeaderSize:])
		}
	}
	return float64(cpuNow()-c0) / float64(time.Millisecond) / (frames * fanViewers) * 1000
}

// probeWheel fires n self-rescheduling timers through a clock.Wheel — the
// scheduler under viewersim — and reports the cost per timer.
func probeWheel(m map[string]float64, n int64) {
	const owners = 1 << 14
	wh := clock.NewWheel(clock.WheelConfig{Epoch: frameEpoch})
	defer wh.Close()
	rounds := max(n/owners, 1)
	left := make([]int64, owners)
	cbs := make([]func(time.Time), owners)
	for i := range cbs {
		i := i
		left[i] = rounds - 1
		cbs[i] = func(time.Time) {
			// left[i] is touched only by owner i's callbacks, which the
			// wheel serialises.
			if left[i] > 0 {
				left[i]--
				wh.Schedule(uint64(i), time.Millisecond+time.Duration(i%997)*37*time.Microsecond, cbs[i])
			}
		}
	}
	a0 := mallocs()
	t0 := time.Now()
	for i := range cbs {
		wh.Schedule(uint64(i), time.Millisecond+time.Duration(i%997)*37*time.Microsecond, cbs[i])
	}
	wh.Run()
	wall := time.Since(t0)
	fired := float64(wh.Fired())
	m["clock.wheel_ns_per_timer"] = div(float64(wall.Nanoseconds()), fired)
	m["clock.wheel_allocs_per_timer"] = div(float64(mallocs()-a0), fired)
}

// logTiming writes one latency distribution to standard error in full — the
// percentile actually carried by the sample and the sample count, which the
// fixed metric names cannot express.
func logTiming(name string, t timing) {
	fmt.Fprintf(os.Stderr, "timing %-24s p50=%.1fus p%g=%.1fus samples=%d\n",
		name, t.P50/1e3, t.TailP, t.Tail/1e3, t.N)
}

// logShares writes where the traced windows' process CPU went, as far as the
// outside-in instruments can tell: each named part as a share of cpuNs, and
// what is left under rest. Span-derived parts are wall time inside the span,
// which on saturated cores is close to, but not the same as, CPU time.
func logShares(workload string, cpuNs float64, rest string, parts map[string]float64) {
	names := make([]string, 0, len(parts))
	for n := range parts {
		names = append(names, n)
	}
	sort.Strings(names)
	left := 1.0
	fmt.Fprintf(os.Stderr, "shares %s:", workload)
	for _, n := range names {
		share := div(parts[n], cpuNs)
		left -= share
		fmt.Fprintf(os.Stderr, " %s=%.1f%%", n, share*100)
	}
	fmt.Fprintf(os.Stderr, " %s=%.1f%%\n", rest, left*100)
}

// cannedResponses renders the three responses of a poll round the way
// net/http's server frames them, for the generator probe to parse.
func cannedResponses(bc *pollBroadcast, image []byte) map[pollKind][]byte {
	v := fmt.Sprint(bc.version)
	list := "#EXTM3U\n#X-BROADCAST:" + bc.id + "\n#X-VERSION:" + v + "\n"
	var chunk bytes.Buffer
	chunk.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nDate: Thu, 01 Jan 2015 00:00:00 GMT\r\nTransfer-Encoding: chunked\r\n\r\n")
	fmt.Fprintf(&chunk, "%x\r\n", len(image))
	chunk.Write(image)
	chunk.WriteString("\r\n0\r\n\r\n")
	return map[pollKind][]byte{
		pollFresh: []byte("HTTP/1.1 200 OK\r\nContent-Type: application/vnd.apple.mpegurl\r\nX-Chunklist-Version: " + v +
			"\r\nDate: Thu, 01 Jan 2015 00:00:00 GMT\r\nContent-Length: " + fmt.Sprint(len(list)) + "\r\n\r\n" + list),
		pollChunk: chunk.Bytes(),
		pollSame:  []byte("HTTP/1.1 304 Not Modified\r\nX-Chunklist-Version: " + v + "\r\nDate: Thu, 01 Jan 2015 00:00:00 GMT\r\n\r\n"),
	}
}

// probePollGenerator measures the HLS generator's own user-space work per
// 1000 ops — building each request, parsing and verifying each response —
// against canned in-memory responses, so its socket syscalls are not in the
// number.
func probePollGenerator(w *hlsPoll) float64 {
	bc := &w.bc[0]
	canned := cannedResponses(bc, w.lastImage)
	plan := pollPlan(w.p.seed, 0, 0, 1)
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, 64<<10)
	var req, body []byte
	c0 := cpuNow()
	n := 0
	for _, op := range plan {
		if op.bcast != 0 {
			continue
		}
		base := bc.reqFresh
		switch op.kind {
		case pollChunk:
			base = bc.reqChunk
		case pollSame:
			base = bc.reqSame
		}
		req = append(append(req[:0], base...), "\r\n"...)
		rd.Reset(canned[op.kind])
		br.Reset(&rd)
		resp, err := readResponse(br, &body)
		if err != nil || !w.verify(op, bc, resp) {
			return 0 // the probe's own fixture is wrong; report nothing rather than a wrong cost
		}
		n++
	}
	return float64(cpuNow()-c0) / float64(time.Millisecond) / float64(n) * 1000
}

// probeChurnGenerator measures the churn generator's own work per 1000
// lifecycles: generating the chunk's frames and comparing them twice (pushed
// and downloaded). The clients it drives are the program's own libraries and
// count as the system under test.
func probeChurnGenerator(seed uint64) float64 {
	const n = 2000
	c0 := cpuNow()
	for i := uint64(0); i < n; i++ {
		img := genChunk(newGen(seed, "churn-life", i), 0, 0, framesPerChunk, framePayload)
		for k, pl := range img.payloads {
			f := media.Frame{Seq: uint64(k), CapturedAt: captureTime(uint64(k)), Keyframe: isKeyframe(uint64(k)), Payload: pl}
			if !sameFrame(&f, uint64(k), pl) || !sameFrame(&f, uint64(k), pl) {
				return 0
			}
		}
	}
	return float64(cpuNow()-c0) / float64(time.Millisecond) / n * 1000
}
