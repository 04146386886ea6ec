package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cdn"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/metrics"
)

// hls_poll: 16 live broadcasts × 256 virtual viewers poll one edge over
// loopback HTTP. Each round the driver seals one 75-frame chunk per broadcast
// at the origin (the only write), then every viewer polls twice: the first
// poll returns 200 with the new version and triggers the chunk GET, the
// second returns 304. An op is one verified HTTP response, so ops are exactly
// one third chunklist-200, one third chunk GET, one third 304.
//
// Why this workload: it is the warm, amortised read path that lets HLS scale
// where RTMP cannot (Fig. 14). hls and cdn.edge do the work — the edge pulls
// one list and one chunk from the origin per 768 ops, a hit ratio above
// 99 % — while rtmp, control and journal are idle. A fan-out optimisation
// must show no change here, and an edge or handler optimisation must show no
// change on rtmp_fanout.
const (
	pollBroadcasts = 16
	pollViewers    = 256 // per broadcast
	pollOpsPerView = 3   // 200, chunk, 304
	pollRoundOps   = pollBroadcasts * pollViewers * pollOpsPerView
	// pollLag is how many viewers later on the same connection a viewer's
	// second poll follows its chunk GET, so 304s interleave with 200s and
	// downloads instead of trailing them.
	pollLag = 16
	// pollBacklog chunks per broadcast are ingested before anything polls,
	// filling the playlist window (media.WindowSize).
	pollBacklog = media.WindowSize
	// pollWarmRounds run through the measured path during set-up.
	pollWarmRounds = 8
	// pollOpsPerSecond sizes a window (see fanFramesPerSecond).
	pollOpsPerSecond = 54_000
	pollPrefix       = "/hls"
)

type pollKind uint8

const (
	pollFresh pollKind = iota // chunklist poll that must see the new version
	pollChunk                 // chunk download
	pollSame                  // chunklist poll that must get 304
)

// pollOp is one step of the count-driven plan.
type pollOp struct {
	bcast  uint8
	viewer uint16
	kind   pollKind
}

// pollPlan is the fixed, seed-derived op sequence one connection executes in
// one round: its share of the viewers in a seeded order, each doing
// fresh-poll then chunk, with the same-version poll of the viewer pollLag
// places earlier woven in.
func pollPlan(seed uint64, round int64, conn, conns int) []pollOp {
	var mine []pollOp
	for v := conn; v < pollBroadcasts*pollViewers; v += conns {
		mine = append(mine, pollOp{bcast: uint8(v % pollBroadcasts), viewer: uint16(v / pollBroadcasts)})
	}
	order := newGen(seed, "poll-order", uint64(round), uint64(conn)).perm(len(mine))
	plan := make([]pollOp, 0, len(mine)*pollOpsPerView)
	at := func(i int, k pollKind) pollOp {
		op := mine[order[i]]
		op.kind = k
		return op
	}
	for i := range mine {
		plan = append(plan, at(i, pollFresh), at(i, pollChunk))
		if i >= pollLag {
			plan = append(plan, at(i-pollLag, pollSame))
		}
	}
	for i := max(len(mine)-pollLag, 0); i < len(mine); i++ {
		plan = append(plan, at(i, pollSame))
	}
	return plan
}

type pollBroadcast struct {
	id       string
	version  uint64                // chunklist version after the latest seal
	chunkSeq uint64                // latest sealed chunk
	frames   uint64                // frames ingested so far
	wantLen  int                   // latest chunk's exact GET body length,
	wantCRC  uint32                // checksum
	wantHead [chunkHeaderSize]byte // and first bytes
	// Requests for the current round, rebuilt at each seal.
	reqFresh, reqChunk, reqSame []byte
}

type hlsPoll struct {
	p      params
	reg    *metrics.Registry
	origin *cdn.Origin
	srv    *http.Server
	conns  []*rawConn
	bc     [pollBroadcasts]pollBroadcast
	round  int64
	rounds int64 // per window

	done planStats // everything the closed-loop rounds have executed
	// lastImage is the newest chunk of broadcast 0, kept for the generator
	// probe (the origin holds the same bytes through the frame payloads).
	lastImage []byte
}

// planStats is what executing a plan counted.
type planStats struct {
	ops, failed, bodyBytes, notModified int64
}

func (a *planStats) add(b planStats) {
	a.ops += b.ops
	a.failed += b.failed
	a.bodyBytes += b.bodyBytes
	a.notModified += b.notModified
}

func newHLSPoll(p params) workload { return &hlsPoll{p: p} }

func (w *hlsPoll) registry() *metrics.Registry { return w.reg }

func (w *hlsPoll) setUp() error {
	w.reg = metrics.NewRegistry()
	w.rounds = w.p.scaled(pollOpsPerSecond, pollRoundOps) / pollRoundOps
	w.origin = cdn.NewOrigin(cdn.OriginConfig{Site: geo.Datacenter{ID: "bench-origin"}, Metrics: w.reg})
	var upstream hls.Store = w.origin
	if w.p.tr != nil {
		upstream = &spanStore{tr: w.p.tr, next: w.origin, list: "cdn.origin.list", chunk: "cdn.origin.chunk"}
	}
	edge := cdn.NewEdge(cdn.EdgeConfig{
		Site:    geo.Datacenter{ID: "bench-edge"},
		Metrics: w.reg,
		Resolve: func(string) (cdn.Upstream, error) { return cdn.Upstream{Store: upstream}, nil },
	})
	w.origin.RegisterEdge(edge)
	var handler http.Handler = hls.Handler(pollPrefix, edge)
	if w.p.tr != nil {
		handler = &spanHandler{tr: w.p.tr, next: hls.Handler(pollPrefix,
			&spanStore{tr: w.p.tr, next: edge, list: "cdn.edge.list", chunk: "cdn.edge.chunk"})}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.srv = &http.Server{Handler: handler}
	go w.srv.Serve(ln) // returns when tearDown closes the server

	ids := newGen(w.p.seed, "poll-ids")
	for b := range w.bc {
		w.bc[b].id = ids.hexID("bc-")
	}
	for i := 0; i < pollBacklog; i++ {
		w.seal()
	}
	for i := 0; i < w.p.drivers; i++ {
		c, err := dialRaw(ln.Addr().String())
		if err != nil {
			return err
		}
		w.conns = append(w.conns, c)
	}
	for i := 0; i < pollWarmRounds; i++ {
		if _, failed := w.runRound(); failed > 0 {
			return fmt.Errorf("warm-up round %d: %d of %d ops failed", i, failed, pollRoundOps)
		}
	}
	return nil
}

// seal ingests one whole chunk per broadcast — the round's write step — and
// rebuilds the round's requests and expectations.
func (w *hlsPoll) seal() {
	tr := w.p.tr
	for b := range w.bc {
		bc := &w.bc[b]
		if bc.frames > 0 {
			bc.chunkSeq++
		}
		img := genChunk(newGen(w.p.seed, "poll-payload", uint64(b), bc.chunkSeq), bc.chunkSeq, bc.frames, framesPerChunk, framePayload)
		sp := tr.start("cdn.origin.ingest", w.round, noSpan)
		for i, pl := range img.payloads {
			seq := bc.frames + uint64(i)
			at := captureTime(seq)
			w.origin.Ingest(bc.id, media.Frame{Seq: seq, CapturedAt: at, Keyframe: isKeyframe(seq), Payload: pl}, at)
		}
		tr.end(sp)
		bc.frames += framesPerChunk
		bc.version++
		bc.wantLen, bc.wantCRC = len(img.bytes), checksum(img.bytes)
		copy(bc.wantHead[:], img.bytes)
		bc.reqFresh = pollRequest(bc.id, "chunklist.m3u8?have_version="+strconv.FormatUint(bc.version-1, 10))
		bc.reqSame = pollRequest(bc.id, "chunklist.m3u8?have_version="+strconv.FormatUint(bc.version, 10))
		bc.reqChunk = pollRequest(bc.id, "chunk/"+strconv.FormatUint(bc.chunkSeq, 10))
		if b == 0 {
			w.lastImage = img.bytes
		}
	}
}

// pollRequest pre-builds one GET, complete but for the final blank line: the
// sender appends either that or a span header plus it.
func pollRequest(id, rest string) []byte {
	return []byte("GET " + pollPrefix + "/" + id + "/" + rest + " HTTP/1.1\r\nHost: bench\r\n")
}

// runRound seals one chunk per broadcast and lets every connection run its
// plan. Connections are the closed loop: each sends its next request only
// after verifying the previous response.
func (w *hlsPoll) runRound() (attempted, failed int64) {
	w.seal()
	stats := make([]planStats, len(w.conns))
	var wg sync.WaitGroup
	for ci := range w.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			plan := pollPlan(w.p.seed, w.round, ci, len(w.conns))
			stats[ci] = w.runPlan(w.conns[ci], plan, nil)
		}(ci)
	}
	wg.Wait()
	var round planStats
	for _, s := range stats {
		round.add(s)
	}
	w.done.add(round)
	w.round++
	return round.ops, round.failed
}

// runPlan executes ops in order on one connection. A non-nil due makes it
// the open-loop variant: op i is not issued before due(i) and its latency is
// measured from then.
func (w *hlsPoll) runPlan(c *rawConn, plan []pollOp, due func(i int) (time.Time, *pacedResult)) planStats {
	tr := w.p.tr
	st := planStats{ops: int64(len(plan))}
	var req []byte
	for i, op := range plan {
		if i%1024 == 0 && w.p.expired() {
			st.failed += int64(len(plan) - i)
			return st
		}
		bc := &w.bc[op.bcast]
		base := bc.reqFresh
		switch op.kind {
		case pollChunk:
			base = bc.reqChunk
		case pollSame:
			base = bc.reqSame
		}
		var start time.Time
		var pr *pacedResult
		if due != nil {
			start, pr = due(i)
			pacedWait(start)
			pr.lateNs = append(pr.lateNs, int64(max(time.Since(start), 0)))
		}
		req = append(req[:0], base...)
		sp := noSpan
		if tr.active() {
			sp = tr.start("loadgen.http", w.round*pollRoundOps+int64(i), noSpan)
			req = append(req, "X-Span: "...)
			req = strconv.AppendInt(req, int64(sp), 10)
			req = append(req, "\r\n"...)
		}
		req = append(req, "\r\n"...)
		resp, err := c.do(req)
		tr.end(sp)
		if err != nil {
			// The connection's framing is lost; nothing more can be
			// verified on it.
			st.failed += int64(len(plan) - i)
			return st
		}
		if !w.verify(op, bc, resp) {
			st.failed++
		}
		st.bodyBytes += int64(len(resp.body))
		if resp.status == http.StatusNotModified {
			st.notModified++
		}
		if pr != nil {
			pr.latencyNs = append(pr.latencyNs, int64(time.Since(start)))
		}
	}
	return st
}

var m3uMagic = []byte("#EXTM3U\n")

// verify checks one response against what the round's seal made true.
func (w *hlsPoll) verify(op pollOp, bc *pollBroadcast, r rawResp) bool {
	switch op.kind {
	case pollFresh:
		// Exactly the new version: lower is a stale serve, higher cannot be.
		return r.status == 200 && r.version == bc.version && bytes.HasPrefix(r.body, m3uMagic)
	case pollSame:
		return r.status == 304 && r.version == bc.version && len(r.body) == 0
	default:
		if r.status != 200 || len(r.body) != bc.wantLen {
			return false
		}
		// Every download: length and the chunk header. One in 64: the whole
		// body's checksum.
		if !bytes.Equal(r.body[:chunkHeaderSize], bc.wantHead[:]) {
			return false
		}
		if (uint64(op.viewer)+bc.chunkSeq)%64 == 0 {
			return checksum(r.body) == bc.wantCRC
		}
		return true
	}
}

func (w *hlsPoll) window(int) (attempted, failed int64) {
	for r := int64(0); r < w.rounds; r++ {
		a, f := w.runRound()
		attempted += a
		failed += f
	}
	return attempted, failed
}

func (w *hlsPoll) tearDown() {
	for _, c := range w.conns {
		c.close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.origin != nil {
		w.origin.Close()
	}
}

// paced replays rounds open-loop: the round's ops are spread evenly over the
// time the rate allows, each connection taking its plan's ops at their due
// times.
func (w *hlsPoll) paced(rate float64, d time.Duration) pacedResult {
	rounds := max(int(rate*d.Seconds()/pollRoundOps), 1)
	var out pacedResult
	for r := 0; r < rounds; r++ {
		w.seal()
		t0 := time.Now().Add(time.Millisecond)
		results := make([]pacedResult, len(w.conns))
		var wg sync.WaitGroup
		for ci := range w.conns {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				plan := pollPlan(w.p.seed, w.round, ci, len(w.conns))
				gap := float64(len(w.conns)) / rate // seconds between this connection's ops
				w.runPlan(w.conns[ci], plan, func(i int) (time.Time, *pacedResult) {
					return t0.Add(time.Duration(float64(i) * gap * float64(time.Second))), &results[ci]
				})
			}(ci)
		}
		wg.Wait()
		w.round++
		for _, pr := range results {
			out.latencyNs = append(out.latencyNs, pr.latencyNs...)
			out.lateNs = append(out.lateNs, pr.lateNs...)
		}
	}
	return out
}

func (w *hlsPoll) layers(lc *layerCtx) {
	edgeLayerMetrics(lc)
	lc.m["cdn.origin.chunks_sealed"] = lc.reg.counter("cdn_origin_chunks_total")
	lc.m["cdn.origin.ingest_ns_per_frame"] = div(float64(lc.spans["cdn.origin.ingest"].total), float64(lc.spans["cdn.origin.ingest"].n)*framesPerChunk)
	lc.m["cdn.origin.list_ns_per_pull"] = lc.spans["cdn.origin.list"].meanNs()
	lc.m["cdn.origin.chunk_ns_per_pull"] = lc.spans["cdn.origin.chunk"].meanNs()
	lc.m["cdn.edge.list_self_ns_per_call"] = lc.spans["cdn.edge.list"].selfMeanNs()
	lc.m["cdn.edge.chunk_self_ns_per_call"] = lc.spans["cdn.edge.chunk"].selfMeanNs()
	lc.m["hls.self_us_per_req"] = lc.spans["hls.handler"].selfMeanNs() / 1e3
	req := summarize(lc.paced.latencyNs, 99)
	lc.m["hls.req_p50_us"] = req.P50 / 1e3
	lc.m["hls.req_p99_us"] = req.Tail / 1e3
	lc.m["hls.not_modified_ratio"] = div(float64(w.done.notModified), float64(w.done.ops))
	lc.m["hls.bytes_per_op"] = div(float64(w.done.bodyBytes), float64(w.done.ops))
	lc.m["loadgen.cpu_ms_per_kop"] = probePollGenerator(w)
	logTiming("hls.req", req)
	sum := func(names ...string) (ns float64) {
		for _, n := range names {
			if st := lc.spans[n]; st != nil {
				ns += float64(st.self)
			}
		}
		return ns
	}
	logShares("hls_poll", lc.cpuNs, "net/http+sockets", map[string]float64{
		"loadgen(user)": lc.m["loadgen.cpu_ms_per_kop"] * 1e3 * float64(lc.ops),
		"hls":           sum("hls.handler"),
		"cdn.edge":      sum("cdn.edge.list", "cdn.edge.chunk"),
		"cdn.origin":    sum("cdn.origin.list", "cdn.origin.chunk", "cdn.origin.ingest"),
		"wire+rtmp":     0,
	})
}

// edgeLayerMetrics fills the cdn.edge counts every edge-backed workload
// reports, from the registry delta over the traced windows.
func edgeLayerMetrics(lc *layerCtx) {
	r := lc.reg
	lc.m["cdn.edge.list_hit_ratio"] = ratio(r.counter("cdn_list_hits_total"), r.counter("cdn_list_pulls_total"))
	lc.m["cdn.edge.chunk_hit_ratio"] = ratio(r.counter("cdn_chunk_hits_total"), r.counter("cdn_chunk_pulls_total"))
	lc.m["cdn.edge.pulls_per_chunk"] = div(r.counter("cdn_chunk_pulls_total"), r.counter("cdn_origin_chunks_total"))
	lc.m["cdn.edge.invalidates"] = r.counter("cdn_invalidates_total")
	lc.m["cdn.edge.stale_serves"] = r.counter("cdn_stale_serves_total")
	lc.m["cdn.edge.sheds"] = r.counter("cdn_sheds_total")
	lc.m["cdn.edge.pull_retries"] = r.counter("cdn_pull_retries_total")
}

// spanStore records a span around each call into an hls.Store — the edge as
// the handler sees it, or the origin as the edge's resolver sees it — and
// passes its own span down in the context so a store further upstream can
// name it as parent.
type spanStore struct {
	tr          *tracer
	next        hls.Store
	list, chunk string
}

func (s *spanStore) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	sp := s.tr.start(s.list, 0, spanFrom(ctx))
	defer s.tr.end(sp)
	return s.next.ChunkList(withSpan(ctx, s.tr, sp), id)
}

func (s *spanStore) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	sp := s.tr.start(s.chunk, 0, spanFrom(ctx))
	defer s.tr.end(sp)
	return s.next.Chunk(withSpan(ctx, s.tr, sp), id, seq)
}

// ChunkListRaw implements hls.RawLister so the handler keeps its fast path
// through the wrapper; both stores the benchmark wraps (edge and origin)
// serve pre-marshalled lists.
func (s *spanStore) ChunkListRaw(ctx context.Context, id string) (hls.RawChunkList, error) {
	sp := s.tr.start(s.list, 0, spanFrom(ctx))
	defer s.tr.end(sp)
	return s.next.(hls.RawLister).ChunkListRaw(withSpan(ctx, s.tr, sp), id)
}

// spanHandler records the server-side request span, parented on the client
// span whose id arrives in the X-Span header.
type spanHandler struct {
	tr   *tracer
	next http.Handler
}

func (h *spanHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if !h.tr.active() {
		h.next.ServeHTTP(rw, r)
		return
	}
	parent := noSpan
	if v := r.Header.Get("X-Span"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 32); err == nil {
			parent = int32(n)
		}
	}
	sp := h.tr.start("hls.handler", h.tr.opOf(parent), parent)
	h.next.ServeHTTP(rw, r.WithContext(withSpan(r.Context(), h.tr, sp)))
	h.tr.end(sp)
}
