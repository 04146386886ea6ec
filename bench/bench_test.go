package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/media"
	"repro/internal/pubsub"
	"repro/internal/viewersim"
	"repro/internal/wire"
)

// --- generator ----------------------------------------------------------------

func planDigest(seed uint64) string {
	var b strings.Builder
	for round := int64(0); round < 2; round++ {
		for conn := 0; conn < 2; conn++ {
			for _, op := range pollPlan(seed, round, conn, 2) {
				fmt.Fprintf(&b, "%d.%d.%d,", op.bcast, op.viewer, op.kind)
			}
		}
	}
	return fmt.Sprint(checksum([]byte(b.String())))
}

func payloadDigest(seed uint64) string {
	img := genChunk(newGen(seed, "poll-payload", 3, 7), 7, 525, framesPerChunk, framePayload)
	life := genChunk(newGen(seed, "churn-life", 42), 0, 0, framesPerChunk, framePayload)
	return fmt.Sprint(checksum(img.bytes), checksum(life.bytes), newGen(seed, "fanout-ids").hexID("bc-"))
}

func TestGeneratorIsDeterministicPerSeed(t *testing.T) {
	if planDigest(7) != planDigest(7) {
		t.Error("same seed produced two different op sequences")
	}
	if payloadDigest(7) != payloadDigest(7) {
		t.Error("same seed produced two different payload sets")
	}
	if planDigest(7) == planDigest(8) {
		t.Error("different seeds produced the same op sequence")
	}
	if payloadDigest(7) == payloadDigest(8) {
		t.Error("different seeds produced the same payloads")
	}
}

func TestGenStreamsAreIndependent(t *testing.T) {
	a, b := newGen(1, "x", 1), newGen(1, "x", 2)
	c := newGen(1, "y", 1)
	if a.next() == b.next() || newGen(1, "x", 1).next() == c.next() {
		t.Error("distinct labels or keys drew the same value")
	}
	p := newGen(3, "perm").perm(1000)
	seen := make(map[int32]bool)
	for _, v := range p {
		seen[v] = true
	}
	if len(seen) != 1000 {
		t.Errorf("perm(1000) has %d distinct values", len(seen))
	}
}

// The count-driven mix: every round is exactly one third fresh polls, one
// third chunk downloads, one third same-version polls, every viewer appears
// once per kind, and each viewer's steps come in protocol order.
func TestPollMixIsExactThirds(t *testing.T) {
	for _, conns := range []int{1, 2, 3, 4} {
		counts := map[pollKind]int{}
		type key struct {
			b uint8
			v uint16
		}
		last := map[key]pollKind{}
		total := 0
		for conn := 0; conn < conns; conn++ {
			for _, op := range pollPlan(11, 5, conn, conns) {
				counts[op.kind]++
				total++
				k := key{op.bcast, op.viewer}
				prev, seen := last[k]
				switch op.kind {
				case pollFresh:
					if seen {
						t.Fatalf("conns=%d: viewer %v polls fresh twice", conns, k)
					}
				case pollChunk:
					if !seen || prev != pollFresh {
						t.Fatalf("conns=%d: viewer %v downloads before its fresh poll", conns, k)
					}
				case pollSame:
					if !seen || prev != pollChunk {
						t.Fatalf("conns=%d: viewer %v re-polls before its download", conns, k)
					}
				}
				last[k] = op.kind
			}
		}
		if total != pollRoundOps {
			t.Errorf("conns=%d: %d ops in a round, want %d", conns, total, pollRoundOps)
		}
		for _, k := range []pollKind{pollFresh, pollChunk, pollSame} {
			if counts[k]*3 != total {
				t.Errorf("conns=%d: kind %d is %d of %d ops, want exactly a third", conns, k, counts[k], total)
			}
		}
	}
}

// The benchmark lays frames, messages and chunks out itself; this pins its
// layout to the codecs it stands in for.
func TestFrameLayoutMatchesCodecs(t *testing.T) {
	img := genChunk(newGen(5, "layout"), 9, 675, framesPerChunk, framePayload)
	c := &media.Chunk{Seq: 9}
	for i, pl := range img.payloads {
		seq := uint64(675 + i)
		c.Frames = append(c.Frames, media.Frame{Seq: seq, CapturedAt: captureTime(seq), Keyframe: isKeyframe(seq), Payload: pl})
	}
	if !bytes.Equal(img.bytes, media.MarshalChunk(c)) {
		t.Error("genChunk's image differs from media.MarshalChunk")
	}
	f := &c.Frames[0]
	want, err := wire.AppendMessage(nil, wire.Message{Type: wire.MsgFrame, Body: media.MarshalFrame(nil, f)})
	if err != nil {
		t.Fatal(err)
	}
	got := appendFrameMsg(nil, f.Seq, f.CapturedAt.UnixNano(), f.Keyframe, f.Payload)
	if !bytes.Equal(got, want) {
		t.Error("appendFrameMsg differs from wire.AppendMessage(media.MarshalFrame)")
	}
	if wireMsgFrame != byte(wire.MsgFrame) || wireMsgEnd != byte(wire.MsgEnd) {
		t.Error("message type constants drifted from internal/wire")
	}
	if framesPerChunk != media.FramesPerChunk(media.DefaultChunkDuration) || frameInterval != media.FrameDuration {
		t.Error("chunk geometry drifted from internal/media")
	}
}

// --- trace --------------------------------------------------------------------

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		// Two children overlapping each other on [30,40]: cover [10,60].
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 40},
		{Name: "b", ID: 2, Parent: 0, Start: 30, End: 60},
		// A grandchild is a's business, not root's.
		{Name: "a1", ID: 3, Parent: 1, Start: 15, End: 25},
		// A child sticking out of its parent is clipped: covers [90,100].
		{Name: "c", ID: 4, Parent: 0, Start: 90, End: 130},
		// A child entirely inside an already covered stretch adds nothing.
		{Name: "d", ID: 5, Parent: 0, Start: 35, End: 38},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{0: 100 - 50 - 10, 1: 30 - 10, 2: 30, 3: 10, 4: 40, 5: 3} {
		if self[id] != want {
			t.Errorf("span %d self time = %d, want %d", id, self[id], want)
		}
	}
	st := statsByName(spans)
	if st["root"].self != 40 || st["a"].n != 1 || st["a"].total != 30 {
		t.Errorf("statsByName: root self %d, a %+v", st["root"].self, st["a"])
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	a := tr.start("a", 1, noSpan)
	tr.end(a)
	tr.off()
	b := tr.start("b", 2, noSpan)
	tr.end(b)
	if b != noSpan || tr.count() != 1 {
		t.Errorf("tracer recorded while off: id %d, %d spans", b, tr.count())
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.start("x", 0, noSpan)) // must not panic
}

func TestPercentileReporterPicksHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	samples := make([]int64, 300)
	for i := range samples {
		samples[i] = int64(300 - i) // unsorted on purpose
	}
	tm := summarize(samples, 99)
	if tm.N != 300 || tm.P50 != 150 || tm.TailP != 95 || tm.Tail != 285 {
		t.Errorf("summarize(1..300, 99) = %+v, want p50=150 and the tail at p95=285", tm)
	}
	if tm := summarize(samples, 90); tm.TailP != 90 || tm.Tail != 270 {
		t.Errorf("summarize caps at the requested tail: %+v", tm)
	}
}

// --- verifiers ----------------------------------------------------------------

func TestFanoutVerifierCountsCorruption(t *testing.T) {
	payloads := [][]byte{bytes.Repeat([]byte{0xAB}, framePayload)}
	pb := &fanPub{payloads: make([][]byte, fanRing)}
	for i := range pb.payloads {
		pb.payloads[i] = payloads[0]
	}
	feed := func(v *fanViewer, seq uint64, mutate func(msg []byte)) {
		msg := appendFrameMsg(nil, seq, captureTime(seq).UnixNano(), isKeyframe(seq), payloads[0])
		if mutate != nil {
			mutate(msg)
		}
		v.check(msg[0], msg[wireHeaderSize:])
	}
	v := &fanViewer{pub: pb, sample: 0}
	feed(v, 0, nil)
	feed(v, 1, nil)
	if v.n != 2 || v.okN != 2 {
		t.Fatalf("clean frames: n=%d ok=%d", v.n, v.okN)
	}
	feed(v, 3, nil) // frame 2 dropped: this delivery is out of order
	if v.okN != 2 {
		t.Error("a sequence gap was accepted")
	}
	feed(v, 4, nil) // resynchronised: one loss is one failure
	if v.okN != 3 {
		t.Error("verifier did not resynchronise after a gap")
	}
	feed(v, 5, func(m []byte) { m[0] = 4 }) // wrong message type
	if v.okN != 3 {
		t.Error("a non-frame message was accepted")
	}
	v.next = 64
	feed(v, 64, func(m []byte) { m[len(m)-1] ^= 1 }) // sampled frame, payload bit flipped
	if v.okN != 3 {
		t.Error("a corrupted payload on a sampled frame was accepted")
	}
	short := appendFrameMsg(nil, 65, 0, false, payloads[0][:100])
	v.check(short[0], short[wireHeaderSize:])
	if v.okN != 3 || v.n != 7 {
		t.Errorf("a short frame was accepted: n=%d ok=%d", v.n, v.okN)
	}
}

func TestPollVerifierCountsStaleAndCorrupt(t *testing.T) {
	w := &hlsPoll{}
	img := genChunk(newGen(1, "v"), 4, 300, framesPerChunk, framePayload)
	bc := &pollBroadcast{version: 5, chunkSeq: 4, wantLen: len(img.bytes), wantCRC: checksum(img.bytes)}
	copy(bc.wantHead[:], img.bytes)
	list := []byte("#EXTM3U\n#X-VERSION:5\n")
	sampled := pollOp{viewer: 60, kind: pollChunk} // (60+4)%64 == 0: checksummed
	for _, tc := range []struct {
		name string
		op   pollOp
		resp rawResp
		want bool
	}{
		{"fresh ok", pollOp{kind: pollFresh}, rawResp{status: 200, version: 5, body: list}, true},
		{"stale version", pollOp{kind: pollFresh}, rawResp{status: 200, version: 4, body: list}, false},
		{"version from the future", pollOp{kind: pollFresh}, rawResp{status: 200, version: 6, body: list}, false},
		{"fresh poll answered 304", pollOp{kind: pollFresh}, rawResp{status: 304, version: 5}, false},
		{"fresh poll 503", pollOp{kind: pollFresh}, rawResp{status: 503}, false},
		{"not a playlist", pollOp{kind: pollFresh}, rawResp{status: 200, version: 5, body: []byte("oops")}, false},
		{"same ok", pollOp{kind: pollSame}, rawResp{status: 304, version: 5}, true},
		{"same answered 200", pollOp{kind: pollSame}, rawResp{status: 200, version: 5, body: list}, false},
		{"chunk ok", sampled, rawResp{status: 200, body: img.bytes}, true},
		{"chunk truncated", sampled, rawResp{status: 200, body: img.bytes[:len(img.bytes)-1]}, false},
		{"chunk 404", sampled, rawResp{status: 404, body: []byte("not found")}, false},
	} {
		if got := w.verify(tc.op, bc, tc.resp); got != tc.want {
			t.Errorf("%s: verify = %v, want %v", tc.name, got, tc.want)
		}
	}
	flipped := append([]byte(nil), img.bytes...)
	flipped[len(flipped)/2] ^= 0x10
	if w.verify(sampled, bc, rawResp{status: 200, body: flipped}) {
		t.Error("a corrupted chunk body passed a checksummed download")
	}
	wrongSeq := append([]byte(nil), img.bytes...)
	wrongSeq[7] = 9
	if w.verify(pollOp{viewer: 1, kind: pollChunk}, bc, rawResp{status: 200, body: wrongSeq}) {
		t.Error("the wrong chunk passed an unsampled download")
	}
}

func TestChurnVerifiersCountMissingSteps(t *testing.T) {
	img := genChunk(newGen(2, "c"), 0, 0, framesPerChunk, framePayload)
	chunk, err := media.UnmarshalChunk(img.bytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkChunk(chunk, img); err != nil {
		t.Errorf("clean chunk rejected: %v", err)
	}
	chunk.Frames[10].Payload[3] ^= 1
	if checkChunk(chunk, img) == nil {
		t.Error("a chunk with a corrupted frame was accepted")
	}
	chunk.Frames = chunk.Frames[:framesPerChunk-1]
	if checkChunk(chunk, img) == nil {
		t.Error("a chunk missing a frame was accepted")
	}
	f := media.Frame{Seq: 3, CapturedAt: captureTime(3), Payload: img.payloads[3]}
	if !sameFrame(&f, 3, img.payloads[3]) || sameFrame(&f, 4, img.payloads[3]) {
		t.Error("sameFrame does not check the sequence number")
	}
	one := media.ChunkRef{Seq: 0}
	if checkList(&media.ChunkList{Version: 1, Chunks: []media.ChunkRef{one}}) != nil {
		t.Error("clean chunklist rejected")
	}
	if checkList(&media.ChunkList{Version: 0}) == nil || checkList(&media.ChunkList{Version: 2, Chunks: []media.ChunkRef{one, {Seq: 1}}}) == nil {
		t.Error("an empty or over-long chunklist was accepted")
	}
	comment, heart := pubsub.Event{Kind: pubsub.KindComment}, pubsub.Event{Kind: pubsub.KindHeart}
	if checkEvents([]pubsub.Event{comment, heart}) != nil {
		t.Error("clean event log rejected")
	}
	if checkEvents([]pubsub.Event{comment}) == nil || checkEvents([]pubsub.Event{heart, comment}) == nil {
		t.Error("a lifecycle that skipped or reordered an interaction was accepted")
	}
}

func TestSimdayInvariants(t *testing.T) {
	good := &viewersim.Summary{Views: 10, RTMPViews: 4, HLSViews: 6, Deliveries: 5, Events: 100}
	good.HLS.Buffering = 10 * time.Second
	if bad := checkSummary(good); bad != "" {
		t.Errorf("clean summary rejected: %s", bad)
	}
	for name, mutate := range map[string]func(*viewersim.Summary){
		"views do not add up": func(s *viewersim.Summary) { s.Views = 11 },
		"no deliveries":       func(s *viewersim.Summary) { s.Deliveries = 0 },
		"no events":           func(s *viewersim.Summary) { s.Events = 0 },
		"delay too low":       func(s *viewersim.Summary) { s.HLS.Buffering = 5 * time.Second },
		"delay too high":      func(s *viewersim.Summary) { s.HLS.Buffering = 13 * time.Second },
	} {
		s := *good
		mutate(&s)
		if checkSummary(&s) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	if len(strings.Split(strings.TrimSpace(goldenSummaries), "\n\n")) != windows {
		t.Errorf("simday_golden.txt must hold %d summaries", windows)
	}
}

// --- raw HTTP client ------------------------------------------------------------

func TestReadResponse(t *testing.T) {
	img := genChunk(newGen(1, "h"), 2, 150, framesPerChunk, framePayload)
	bc := &pollBroadcast{id: "bc-x", version: 12}
	canned := cannedResponses(bc, img.bytes)
	var stream []byte
	for _, k := range []pollKind{pollFresh, pollChunk, pollSame, pollChunk} {
		stream = append(stream, canned[k]...)
	}
	// A multi-part chunked body, as net/http emits for large writes.
	stream = append(stream, "HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n3\r\nabc\r\n2;ext=1\r\nde\r\n0\r\n\r\n"...)
	r := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	want := []rawResp{
		{status: 200, version: 12},
		{status: 200, body: img.bytes},
		{status: 304, version: 12},
		{status: 200, body: img.bytes},
		{status: 200, body: []byte("abcde")},
	}
	for i, w := range want {
		got, err := readResponse(r, &buf)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got.status != w.status || got.version != w.version || (w.body != nil && !bytes.Equal(got.body, w.body)) {
			t.Errorf("response %d: status %d version %d body %d bytes", i, got.status, got.version, len(got.body))
		}
	}
	for _, bad := range []string{"garbage\r\n\r\n", "HTTP/1.1 2x0 OK\r\n\r\n", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "HTTP/1.1 200 OK\r\n\r\nbody-until-close"} {
		if _, err := readResponse(bufio.NewReader(strings.NewReader(bad)), &buf); err == nil {
			t.Errorf("malformed response %q parsed", bad)
		}
	}
}

// --- contract -------------------------------------------------------------------

func names(spec []metricSpec) []string {
	out := make([]string, len(spec))
	for i, s := range spec {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// wantBounds pins the regression bounds, so that widening one is a
// deliberate edit in two places. They are the issue's but for setup_s: the
// driver's contract wants it present and with the largest bound, and on the
// reference box simday's set-up moved by more than 10 % between sets of runs
// taken minutes apart (README, Noise).
var wantBounds = map[string]float64{
	"setup_s":            0.25,
	"allocs_per_op":      0.02,
	"alloc_bytes_per_op": 0.03,
	"peak_rss_mb":        0.10,
}

// BENCHMARK.json and the program must name the same workloads and metrics,
// with the same units and directions and the issue's bounds, and the printed
// result must carry exactly the contract's keys.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", wl, workloadNames)
	}
	var e2e, layers []metricSpec
	for _, e := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{e.Name, e.Unit, e.Better})
		if e.Bound != wantBounds[e.Name] {
			t.Errorf("%s: bound %g, want %g", e.Name, e.Bound, wantBounds[e.Name])
		}
		if e.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s: bound %g above setup_s's %g", e.Name, e.Bound, bf.EndToEnd[0].Bound)
		}
	}
	for _, l := range bf.PerLayer {
		layers = append(layers, metricSpec{l.Name, l.Unit, l.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", names(layers), names(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}

	for _, spec := range [][]metricSpec{endToEnd, perLayer} {
		out, err := json.Marshal(finish(spec, map[string]float64{spec[0].Name: 1.5}, 10, 0))
		if err != nil {
			t.Fatal(err)
		}
		var printed map[string]json.RawMessage
		if err := json.Unmarshal(out, &printed); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range printed {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("result keys %v", keys)
		}
		var metrics map[string]value
		if err := json.Unmarshal(printed["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		var got []string
		for k, v := range metrics {
			got = append(got, k)
			if v.Unit == "" {
				t.Errorf("%s printed without a unit", k)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, names(spec)) {
			t.Errorf("printed metrics %v, want %v", got, names(spec))
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles([3,1,4,1,5]) = %g, %g; Python gives 1, 4.5", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

func TestScaledKeepsWholeUnits(t *testing.T) {
	p := params{seconds: 12}
	if got := p.scaled(54_000, pollRoundOps); got%pollRoundOps != 0 || got <= 0 {
		t.Errorf("scaled = %d, not a positive multiple of a round", got)
	}
	if got := (params{seconds: 1}).scaled(10, 512); got != 512 {
		t.Errorf("a tiny budget must still run one unit, got %d", got)
	}
}

// TestUpdateSimdayGolden rewrites simday_golden.txt; it runs only on request
// (BENCH_UPDATE_GOLDEN=1 go test -run UpdateSimdayGolden), after a deliberate
// change to viewersim's model or to simday's sizing.
func TestUpdateSimdayGolden(t *testing.T) {
	if os.Getenv("BENCH_UPDATE_GOLDEN") == "" {
		t.Skip("set BENCH_UPDATE_GOLDEN=1 to regenerate simday_golden.txt")
	}
	w := &simday{p: params{seed: simGoldenSeed, seconds: simGoldenSeconds}}
	var parts []string
	for i := 0; i < windows; i++ {
		sum, err := viewersim.Run(w.windowConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, sum.String())
	}
	if err := os.WriteFile("simday_golden.txt", []byte(strings.Join(parts, "\n\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}
