package delay

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/media"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/rng"
	"repro/internal/stats"
)

// chunk is the default granularity: one 3 s chunk per item.
var chunk = media.FramesPerChunk(media.DefaultChunkDuration)

// sfTrace generates a trace of the §4.3 lab broadcast, returning it with the
// model a session over it draws from.
func sfTrace(t *testing.T, seed uint64, dur time.Duration, frames int, bursty bool) (*Trace, *netsim.Model) {
	t.Helper()
	src := rng.New(seed)
	model := netsim.NewModel(netsim.Params{}, src)
	tr := new(Trace)
	GenTrace(tr, TraceConfig{
		Duration:      dur,
		FramesPerItem: frames,
		Broadcaster:   LabLocation,
		Path:          LabPath(),
		Bursty:        bursty,
	}, model, src)
	return tr, model
}

// session plays one whole session over tr through a player with pre-buffer
// pre.
func session(tr *Trace, model *netsim.Model, hls bool, join, poll, pre time.Duration) Components {
	var s Session
	var p player.Player
	p.Reset(pre)
	if !s.Start(tr, model, hls, join, poll) {
		return Components{}
	}
	return s.Play(&p)
}

// pollingDelays replays an HLS viewer polling every interval from a phase
// before the broadcast starts and returns ⑭−⑪ per item.
func pollingDelays(t *testing.T, tr *Trace, model *netsim.Model, interval, phase time.Duration) []float64 {
	t.Helper()
	var s Session
	if !s.Start(tr, model, true, phase-interval, interval) {
		t.Fatal("session from before the start sees nothing")
	}
	var out []float64
	for i, done := 0, false; !done; i++ {
		d := s.Next() - tr.EdgeAt[i]
		if d < 0 {
			t.Fatal("negative polling delay")
		}
		out = append(out, d.Seconds())
		_, _, done = s.Step()
	}
	return out
}

func TestGenTraceShape(t *testing.T) {
	tr, _ := sfTrace(t, 1, 30*time.Second, chunk, false)
	if tr.Items() != 10 {
		t.Fatalf("chunks = %d, want 10", tr.Items())
	}
	for i := 0; i < tr.Items(); i++ {
		if i > 0 && tr.OriginAt[i] < tr.ReadyAt[i-1] {
			t.Fatal("origin arrivals out of order (TCP must deliver in order)")
		}
		if tr.ReadyAt[i] < tr.OriginAt[i] {
			t.Fatal("chunk ready before its first frame arrived")
		}
		// Chunking delay ≈ chunk duration (⑦−⑥ ≈ 3 s, §5.1).
		if d := tr.ReadyAt[i] - tr.OriginAt[i]; d < 2*time.Second || d > 5*time.Second {
			t.Fatalf("chunking delay = %v, want ≈3s", d)
		}
	}
	// One frame per item: 30 s at 25 fps, TCP-ordered.
	frames, _ := sfTrace(t, 1, 30*time.Second, 1, false)
	if frames.Items() != 750 {
		t.Fatalf("frames = %d, want 750 (30s at 25fps)", frames.Items())
	}
	for i := 1; i < frames.Items(); i++ {
		if frames.OriginAt[i] < frames.OriginAt[i-1] || frames.ReadyAt[i] != frames.OriginAt[i] {
			t.Fatalf("frame %d: origin arrivals out of order", i)
		}
	}
	// A partial last chunk: 31 s is ten full chunks and one of 1 s.
	tail, _ := sfTrace(t, 1, 31*time.Second, chunk, false)
	if n := tail.Items(); n != 11 || tail.content(n-1) != time.Second || tail.bytes(n-1) != 25*frameBytes ||
		tail.Captured(n-1) != 30*time.Second || tail.content(0) != tail.ItemDuration() {
		t.Fatalf("partial last chunk: %d items, last %v / %d B", n, tail.content(n-1), tail.bytes(n-1))
	}
}

func TestGenTraceUploadDelayPlausible(t *testing.T) {
	tr, _ := sfTrace(t, 2, 10*time.Second, 1, false)
	var ups []float64
	for i := 0; i < tr.Items(); i++ {
		ups = append(ups, (tr.OriginAt[i] - tr.Captured(i)).Seconds())
	}
	mean := stats.Mean(ups)
	// Device (150 ms) + WiFi + short WAN: the paper's upload bar ≈ 0.2 s.
	if mean < 0.12 || mean > 0.6 {
		t.Fatalf("mean upload delay = %vs, want ≈0.2s", mean)
	}
}

func TestBurstyTraceHasLargerBacklog(t *testing.T) {
	maxDelay := func(tr *Trace) time.Duration {
		var m time.Duration
		for i := 0; i < tr.Items(); i++ {
			m = max(m, tr.OriginAt[i]-tr.Captured(i))
		}
		return m
	}
	for _, frames := range []int{chunk, 1} {
		smooth, _ := sfTrace(t, 3, 30*time.Second, frames, false)
		bursty, _ := sfTrace(t, 3, 30*time.Second, frames, true)
		if maxDelay(bursty) < 2*maxDelay(smooth) {
			t.Fatalf("%d frames per item: bursty upload max delay %v not clearly above smooth %v",
				frames, maxDelay(bursty), maxDelay(smooth))
		}
	}
}

func TestEdgeArrivalsOrdering(t *testing.T) {
	tr, _ := sfTrace(t, 4, 60*time.Second, chunk, false)
	if len(tr.EdgeAt) != tr.Items() {
		t.Fatalf("edge arrivals = %d, want %d", len(tr.EdgeAt), tr.Items())
	}
	for i, at := range tr.EdgeAt {
		if at < tr.ReadyAt[i] {
			t.Fatal("chunk at edge before ready at origin")
		}
		if i > 0 && at < tr.EdgeAt[i-1] {
			t.Fatal("edge arrivals out of order")
		}
	}
}

func TestGatewayAddsDelay(t *testing.T) {
	origin := LabPath().Origin
	gw := geo.Nearest(origin.Location, geo.FastlySites())
	far := geo.Datacenter{ID: "far", Location: geo.Location{City: "London", Lat: 51.5, Lon: -0.13}}
	// Both traces draw the same streams in the same order, so they differ
	// only in the pull's path.
	w2f := func(gateway *geo.Datacenter) time.Duration {
		src := rng.New(5)
		model := netsim.NewModel(netsim.Params{JitterSigma: 1e-9}, src)
		var tr Trace
		GenTrace(&tr, TraceConfig{
			Duration:    60 * time.Second,
			Broadcaster: LabLocation,
			Path:        EdgePath{Origin: origin, Edge: far, Gateway: gateway},
		}, model, src)
		var sum time.Duration
		for i, at := range tr.EdgeAt {
			sum += at - tr.ReadyAt[i]
		}
		return sum
	}
	if relayed, direct := w2f(&gw), w2f(nil); relayed <= direct {
		t.Fatalf("gateway relay not slower: %v vs %v", relayed, direct)
	}
}

func TestPollingDelayMeanHalfInterval(t *testing.T) {
	// With chunk arrivals incommensurate to the poll interval, the mean
	// polling delay ≈ interval/2 (Fig. 12's 2 s and 4 s cases).
	tr, model := sfTrace(t, 6, 5*time.Minute, chunk, false)
	for _, interval := range []time.Duration{2 * time.Second, 4 * time.Second} {
		var means []float64
		for phase := 0; phase < 20; phase++ {
			means = append(means, stats.Mean(pollingDelays(t, tr, model, interval, time.Duration(phase)*interval/20)))
		}
		m := stats.Mean(means)
		want := interval.Seconds() / 2
		if m < want*0.6 || m > want*1.4 {
			t.Fatalf("interval %v: mean polling delay %vs, want ≈%vs", interval, m, want)
		}
	}
}

func TestPolling3sResonance(t *testing.T) {
	// Fig. 12: with a 3 s interval matching the 3 s chunk cadence, the
	// per-broadcast mean polling delay varies widely across broadcasts
	// (phase lock) — much wider than for 2 s or 4 s.
	spread := func(interval time.Duration) float64 {
		var means []float64
		for b := 0; b < 30; b++ {
			tr, model := sfTrace(t, uint64(100+b), 4*time.Minute, chunk, false)
			means = append(means, stats.Mean(pollingDelays(t, tr, model, interval, time.Duration(b)*interval/30)))
		}
		return stats.StdDev(means)
	}
	if s3, s2 := spread(3*time.Second), spread(2*time.Second); s3 <= s2 {
		t.Fatalf("3s polling spread (%v) not above 2s spread (%v): no resonance", s3, s2)
	}
}

func TestRTMPComponentsShape(t *testing.T) {
	tr, model := sfTrace(t, 7, time.Minute, 1, false)
	c := session(tr, model, false, 0, 0, time.Second)
	if c.Chunking != 0 || c.Wowza2Fastly != 0 || c.Polling != 0 {
		t.Fatalf("RTMP has HLS components: %+v", c)
	}
	if c.Upload <= 0 || c.LastMile <= 0 || c.Buffering <= 0 {
		t.Fatalf("non-positive components: %+v", c)
	}
	// Paper Fig. 11: RTMP end-to-end ≈ 1.4 s.
	total := c.Total()
	if total < 500*time.Millisecond || total > 3*time.Second {
		t.Fatalf("RTMP total = %v, want ≈1.4s", total)
	}
}

func TestHLSComponentsShape(t *testing.T) {
	tr, model := sfTrace(t, 8, 2*time.Minute, chunk, false)
	c := session(tr, model, true, -time.Second, 2800*time.Millisecond, 9*time.Second)
	// Paper Fig. 11 ordering: buffering > chunking > polling > W2F.
	if !(c.Buffering > c.Chunking && c.Chunking > c.Polling && c.Polling > c.Wowza2Fastly) {
		t.Fatalf("HLS component ordering wrong: %+v", c)
	}
	// Chunking ≈ 3 s.
	if c.Chunking < 2*time.Second || c.Chunking > 4*time.Second {
		t.Fatalf("chunking = %v, want ≈3s", c.Chunking)
	}
	// Total ≈ 11.7 s.
	if c.Total() < 7*time.Second || c.Total() > 17*time.Second {
		t.Fatalf("HLS total = %v, want ≈11.7s", c.Total())
	}
}

// TestSessionJoinsLive: a session joining mid-broadcast starts at the first
// item it can still get — pushed after the join for RTMP, reaching the edge
// after the join for HLS — and one joining after the last item sees nothing.
func TestSessionJoinsLive(t *testing.T) {
	tr, model := sfTrace(t, 12, time.Minute, chunk, false)
	join := tr.EdgeAt[4] - time.Millisecond
	for _, hls := range []bool{false, true} {
		var s Session
		if !s.Start(tr, model, hls, join, 0) {
			t.Fatalf("hls=%v: a mid-broadcast join sees nothing", hls)
		}
		steps := 1
		for _, _, done := s.Step(); !done; _, _, done = s.Step() {
			steps++
		}
		at := tr.OriginAt
		if hls {
			at = tr.EdgeAt
		}
		first := tr.Items() - steps
		if at[first] < join || (first > 0 && at[first-1] >= join) {
			t.Errorf("hls=%v: the session starts at item %d", hls, first)
		}
		if s.Start(tr, model, hls, tr.EdgeAt[tr.Items()-1]+time.Second, 0) {
			t.Errorf("hls=%v: a join after the last item sees content", hls)
		}
	}
}

// TestSessionAllocatesNothing is the session step's budget: a whole session
// of either protocol, Start to the last Step, allocates nothing.
func TestSessionAllocatesNothing(t *testing.T) {
	tr, model := sfTrace(t, 13, time.Minute, chunk, false)
	var s Session
	for _, hls := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			if !s.Start(tr, model, hls, 0, 0) {
				t.Fatal("a session from the start sees nothing")
			}
			for _, _, done := s.Step(); !done; _, _, done = s.Step() {
			}
		})
		if allocs != 0 {
			t.Errorf("hls=%v: a session allocates %.0f times, want 0", hls, allocs)
		}
	}
}

// TestGenTraceAllocBudget pins what generating a trace allocates: into an
// empty Trace, its three arrays, each of exactly the trace's item count; into
// one whose arrays hold the new trace's items, as a reused broadcast record's
// do in viewersim, nothing.
func TestGenTraceAllocBudget(t *testing.T) {
	src := rng.New(5)
	model := netsim.NewModel(netsim.Params{}, src)
	var tr Trace
	cfg := TraceConfig{FramesPerItem: chunk, Broadcaster: LabLocation, Path: LabPath()}
	gen := func(dur time.Duration) {
		cfg.Duration = dur
		GenTrace(&tr, cfg, model, src)
	}
	if allocs := testing.AllocsPerRun(1, func() { tr = Trace{}; gen(time.Minute) }); allocs != 3 {
		t.Errorf("a trace into an empty Trace allocates %.0f times, want 3", allocs)
	}
	if n := tr.Items(); n != 20 || cap(tr.OriginAt) != n || cap(tr.ReadyAt) != n || cap(tr.EdgeAt) != n {
		t.Errorf("a 20-item trace has %d items in arrays of %d, %d and %d", n, cap(tr.OriginAt), cap(tr.ReadyAt), cap(tr.EdgeAt))
	}
	for _, dur := range []time.Duration{time.Minute, 10 * time.Second, time.Minute - time.Second} {
		if allocs := testing.AllocsPerRun(10, func() { gen(dur) }); allocs != 0 {
			t.Errorf("a %v trace into a 20-item Trace allocates %.0f times, want 0", dur, allocs)
		}
	}
}

func TestRunControlledMatchesFig11(t *testing.T) {
	r, h := RunControlled(ControlledConfig{Seed: 9, Repetitions: 5, BroadcastDuration: 90 * time.Second})
	if r.Total() >= h.Total() {
		t.Fatalf("RTMP (%v) not faster than HLS (%v)", r.Total(), h.Total())
	}
	ratio := float64(h.Total()) / float64(r.Total())
	// Paper: 11.7s / 1.4s ≈ 8.4×; accept a broad band.
	if ratio < 4 || ratio > 16 {
		t.Fatalf("HLS/RTMP ratio = %v, want ≈8", ratio)
	}
	// HLS buffering is the single largest component (6.9 s of 11.7 s).
	if !(h.Buffering > h.Chunking && h.Buffering > h.Polling && h.Buffering > h.Upload) {
		t.Fatalf("buffering not dominant: %+v", h)
	}
}

func TestChunkDurationMatchesMedia(t *testing.T) {
	tr, _ := sfTrace(t, 10, 30*time.Second, 0, false)
	if tr.ItemDuration() != media.DefaultChunkDuration {
		t.Fatalf("chunk duration = %v", tr.ItemDuration())
	}
}
