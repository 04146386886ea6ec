// Package repro's root benchmarks regenerate every table and figure in the
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// benchmark runs its experiment via the registry and reports the headline
// metrics with b.ReportMetric, so `go test -bench=. -benchmem` prints the
// reproduced numbers next to the timings.
//
// Benchmarks default to the Quick configuration so the full suite finishes
// in minutes; run cmd/experiments for full-scale output.
package repro

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cdn"
	"repro/internal/clock"
	"repro/internal/control"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/media"
	"repro/internal/rtmp"
	"repro/internal/viewersim"
	"repro/internal/wire"
)

// benchCfg returns the per-iteration experiment configuration.
func benchCfg(seed uint64) experiments.Config {
	return experiments.Config{Quick: true, Seed: seed}
}

// runExperiment executes one registry entry b.N times, reporting the chosen
// metrics from the final run.
func runExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var res *experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(id, benchCfg(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := res.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// --- Tables ----------------------------------------------------------------

func BenchmarkTable1Datasets(b *testing.B) {
	runExperiment(b, "table1", "periscope_broadcasts", "periscope_views", "meerkat_broadcasts")
}

func BenchmarkTable2SocialGraph(b *testing.B) {
	runExperiment(b, "table2", "avg_degree", "clustering", "avg_path", "assortativity")
}

// --- Section 3 figures -------------------------------------------------------

func BenchmarkFig1DailyBroadcasts(b *testing.B) {
	runExperiment(b, "fig1", "periscope_growth", "meerkat_decline")
}

func BenchmarkFig2DailyUsers(b *testing.B) {
	runExperiment(b, "fig2", "periscope_viewer_broadcaster_ratio")
}

func BenchmarkFig3BroadcastLength(b *testing.B) {
	runExperiment(b, "fig3", "periscope_under_10min")
}

func BenchmarkFig4ViewersPerBroadcast(b *testing.B) {
	runExperiment(b, "fig4", "meerkat_zero_viewer", "periscope_max_viewers")
}

func BenchmarkFig5Interactions(b *testing.B) {
	runExperiment(b, "fig5", "periscope_hearts_over_1000")
}

func BenchmarkFig6UserActivity(b *testing.B) {
	runExperiment(b, "fig6", "periscope_top15_vs_median_views")
}

func BenchmarkFig7FollowersViewers(b *testing.B) {
	runExperiment(b, "fig7", "spearman_rho")
}

// --- Section 4–5 figures -----------------------------------------------------

func BenchmarkFig9ServerMap(b *testing.B) {
	runExperiment(b, "fig9", "same_city", "same_continent")
}

func BenchmarkFig11DelayBreakdown(b *testing.B) {
	runExperiment(b, "fig11", "rtmp_total", "hls_total", "hls_buffering")
}

func BenchmarkFig12PollingDelay(b *testing.B) {
	runExperiment(b, "fig12", "mean_2s", "mean_3s", "mean_4s")
}

func BenchmarkFig13PollingJitter(b *testing.B) {
	runExperiment(b, "fig13", "std_2s", "std_3s", "std_4s")
}

func BenchmarkFig14ServerCPU(b *testing.B) {
	runExperiment(b, "fig14", "gap_at_min", "gap_at_max")
}

func BenchmarkFig15Wowza2Fastly(b *testing.B) {
	runExperiment(b, "fig15", "median_colocated", "median_under500", "colocation_gap")
}

// --- Section 6 figures -------------------------------------------------------

func BenchmarkFig16RTMPBuffer(b *testing.B) {
	runExperiment(b, "fig16", "stall_p0s", "stall_p1s", "delay_p1s")
}

func BenchmarkFig17HLSBuffer(b *testing.B) {
	runExperiment(b, "fig17", "stall_p6s", "stall_p9s", "delay_p6s", "delay_p9s")
}

// --- Section 1 motivation -----------------------------------------------------

func BenchmarkSec1Interactivity(b *testing.B) {
	runExperiment(b, "sec1_interactivity", "misattr_hls_10s", "missed_hls_10s", "misattr_rtmp_10s")
}

// --- Section 7 ---------------------------------------------------------------

func BenchmarkSec7HijackDefense(b *testing.B) {
	runExperiment(b, "sec7", "attack_tampered", "defense_detected", "defense_delivered")
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

func BenchmarkAblationChunkSize(b *testing.B) {
	runExperiment(b, "ablation_chunksize", "total_1.5s", "total_10s")
}

func BenchmarkAblationPollInterval(b *testing.B) {
	runExperiment(b, "ablation_pollinterval", "delay_500ms", "delay_4000ms")
}

func BenchmarkAblationGatewayRelay(b *testing.B) {
	runExperiment(b, "ablation_gateway", "gateway_mean", "direct_mean", "penalty")
}

func BenchmarkAblationRTMPCap(b *testing.B) {
	runExperiment(b, "ablation_rtmpcap", "origin_load_cap_100", "origin_load_cap_unlimited")
}

func BenchmarkAblationSignatureCost(b *testing.B) {
	runExperiment(b, "ablation_signature", "sign_ns", "verify_ns")
}

func BenchmarkAblationRTMPSTransport(b *testing.B) {
	runExperiment(b, "ablation_rtmps", "ns_per_frame_plain", "ns_per_frame_tls", "ns_per_frame_signed")
}

func BenchmarkAblationOverlayMulticast(b *testing.B) {
	runExperiment(b, "ablation_overlay", "fanout_1000", "delay_1000")
}

// --- Hot-path microbenchmarks (BENCH_fanout.json) ----------------------------
//
// Unlike the experiment benchmarks above, these two measure the delivery data
// plane itself: the per-frame RTMP fan-out cost that dominates Fig. 14's
// server curve, and the per-poll HLS edge serving cost. Clients are raw wire
// loops with reusable buffers so ns/op and allocs/op are the server's.

// rawHandshake dials addr and completes a wire handshake in the given role,
// returning the open connection.
func rawHandshake(b *testing.B, addr, role, id string) net.Conn {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	hs := wire.Handshake{Role: role, BroadcastID: id}
	if err := wire.WriteMessage(conn, wire.Message{Type: wire.MsgHandshake, Body: wire.MarshalHandshake(hs)}); err != nil {
		b.Fatal(err)
	}
	reply, err := wire.ReadMessage(conn)
	if err != nil {
		b.Fatal(err)
	}
	ack, err := wire.UnmarshalAck(reply.Body)
	if err != nil || ack.Status != wire.StatusOK {
		b.Fatalf("handshake ack %q: %v", ack.Status, err)
	}
	return conn
}

// drainWire reads framed messages with a reusable buffer until MsgEnd or
// error — an allocation-free stand-in for a viewer that keeps up.
func drainWire(conn net.Conn) {
	var hdr [5]byte
	buf := make([]byte, 4096)
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[1:5]))
		if n > cap(buf) {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(conn, buf[:n]); err != nil {
			return
		}
		if wire.MsgType(hdr[0]) == wire.MsgEnd {
			return
		}
	}
}

// preframedFrames builds fully framed MsgFrame wire messages (header + body)
// so the publisher loop is a bare conn.Write.
func preframedFrames(n, payload int) [][]byte {
	msgs := make([][]byte, n)
	for i := range msgs {
		f := media.Frame{
			Seq:        uint64(i),
			CapturedAt: time.Unix(0, int64(i)),
			Keyframe:   i%75 == 0,
			Payload:    make([]byte, payload),
		}
		body := media.MarshalFrame(nil, &f)
		msg := make([]byte, 5, 5+len(body))
		msg[0] = byte(wire.MsgFrame)
		binary.BigEndian.PutUint32(msg[1:5], uint32(len(body)))
		msgs[i] = append(msg, body...)
	}
	return msgs
}

// BenchmarkFanout measures ns/frame and allocs/frame for one broadcaster
// fanning out to N viewers — the hot path behind Fig. 14's RTMP curve. The
// publisher pipelines at most 512 frames ahead of the slowest viewer so the
// per-viewer queues never overflow into evictions. The metered variant runs
// the same fan-out with tenant attribution active (per-tenant instruments +
// a control.TenantMeter usage sink): its allocation budget is identical to
// the unmetered path, pinning the tenancy layer's zero-allocs/frame promise.
func BenchmarkFanout(b *testing.B) {
	cases := []struct {
		name     string
		nViewers int
		metered  bool
	}{
		{"viewers=10", 10, false},
		{"viewers=100", 100, false},
		{"viewers=100,metered", 100, true},
	}
	for _, tc := range cases {
		nViewers := tc.nViewers
		b.Run(tc.name, func(b *testing.B) {
			cfg := rtmp.ServerConfig{ViewerQueue: 8192}
			var meter *control.TenantMeter
			if tc.metered {
				meter = &control.TenantMeter{}
				cfg.TenantOf = func(string) string { return "tnt-bench" }
				cfg.TenantUsage = func(string) rtmp.FrameUsage { return meter }
			}
			s := rtmp.NewServer(cfg)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ln, err := s.Listen(ctx, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			addr := ln.Addr().String()

			pub := rawHandshake(b, addr, wire.RoleBroadcaster, "bench")
			defer pub.Close()
			var wg sync.WaitGroup
			for i := 0; i < nViewers; i++ {
				conn := rawHandshake(b, addr, wire.RoleViewer, "bench")
				wg.Add(1)
				go func(conn net.Conn) {
					defer wg.Done()
					defer conn.Close()
					drainWire(conn)
				}(conn)
			}

			frames := preframedFrames(256, 512)
			waitOut := func(target int64) {
				deadline := time.Now().Add(time.Minute)
				for i := 0; s.Stats().FramesOut < target; i++ {
					if i%1024 == 1023 && time.Now().After(deadline) {
						b.Fatalf("fan-out stalled: FramesOut=%d want>=%d (viewers evicted?)", s.Stats().FramesOut, target)
					}
					runtime.Gosched()
				}
			}
			// Pipeline at most half the viewer queue so slow drains throttle
			// the publisher instead of overflowing into evictions: the check
			// every window frames lets the publisher run up to 2*window-1
			// ahead of the viewers' mean, and the slowest viewer needs the
			// other half of its queue as slack below that mean.
			const window = 2048
			b.SetBytes(int64(len(frames[0])))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pub.Write(frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
				if i%window == window-1 {
					waitOut(int64(i+1-window) * int64(nViewers))
				}
			}
			waitOut(int64(b.N) * int64(nViewers))
			b.StopTimer()
			if got := s.Stats().ActiveViewers; got != int64(nViewers) {
				b.Fatalf("viewers evicted during benchmark: %d of %d left", got, nViewers)
			}
			if tc.metered {
				frames, _, bytes := meter.Totals()
				if want := int64(b.N) * int64(nViewers); frames < want {
					b.Fatalf("usage meter saw %d delivered frames, want >= %d", frames, want)
				} else if bytes == 0 {
					b.Fatal("usage meter saw no delivered bytes")
				}
			}
			wire.WriteMessage(pub, wire.Message{Type: wire.MsgEnd})
			pub.Close()
			wg.Wait()
		})
	}
}

// BenchmarkIngest measures the origin's per-frame ingest cost — chunker
// append, chunk seal, list update — with the write-ahead journal off and on.
// The journaled path must stay within the same per-frame allocation budget:
// appends only enqueue onto the group-commit writer, and the seal-time
// record encode is amortized across the frames of its chunk (5 frames at
// 200 ms chunks).
func BenchmarkIngest(b *testing.B) {
	for _, mode := range []string{"journal=off", "journal=on"} {
		b.Run(mode, func(b *testing.B) {
			cfg := cdn.OriginConfig{
				Site:          geo.Datacenter{ID: "bench"},
				ChunkDuration: 200 * time.Millisecond,
			}
			if mode == "journal=on" {
				cfg.Journal = journal.NewMem()
			}
			origin := cdn.NewOrigin(cfg)
			defer origin.Close()
			payload := make([]byte, 4096)
			base := time.Now()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := media.Frame{
					Seq:        uint64(i),
					CapturedAt: base.Add(time.Duration(i) * media.FrameDuration),
					Keyframe:   i%25 == 0,
					Payload:    payload,
				}
				origin.Ingest("bench", f, base)
			}
			b.StopTimer()
		})
	}
}

// benchEdge builds an origin+edge pair with several live broadcasts and a
// warm edge cache.
func benchEdge(b *testing.B, ids []string) *cdn.Edge {
	b.Helper()
	origin := cdn.NewOrigin(cdn.OriginConfig{
		Site:          geo.Datacenter{ID: "origin"},
		ChunkDuration: time.Second,
	})
	edge := cdn.NewEdge(cdn.EdgeConfig{
		Site:    geo.Datacenter{ID: "edge"},
		Resolve: func(string) (cdn.Upstream, error) { return cdn.Upstream{Store: origin}, nil },
	})
	origin.RegisterEdge(edge)
	ctx := context.Background()
	for _, id := range ids {
		for i := 0; i < 75; i++ {
			f := media.Frame{Seq: uint64(i), CapturedAt: time.Unix(0, int64(i)), Keyframe: i%25 == 0, Payload: make([]byte, 256)}
			origin.Ingest(id, f, time.Now())
		}
		if _, err := edge.ChunkList(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
	return edge
}

// BenchmarkEdgePoll measures the steady-state HLS poll path: concurrent
// viewers hitting a warm edge cache, across one and many broadcasts (the
// many-broadcast case is where cache sharding removes lock contention).
func BenchmarkEdgePoll(b *testing.B) {
	multi := make([]string, 8)
	for i := range multi {
		multi[i] = fmt.Sprintf("bench-%d", i)
	}
	cases := []struct {
		name string
		ids  []string
	}{
		{"broadcasts=1", []string{"bench-0"}},
		{"broadcasts=8", multi},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			edge := benchEdge(b, tc.ids)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					id := tc.ids[i%len(tc.ids)]
					i++
					// What the HTTP handler does per poll: the cached list by
					// reference, and its bytes, rendered once per version.
					cl, err := edge.ChunkList(ctx, id)
					if err != nil {
						b.Fatal(err)
					}
					if len(cl.Marshal()) == 0 {
						b.Fatal("empty chunklist")
					}
				}
			})
		})
	}
}

// --- Scale engine benchmarks (BENCH_scale.json) ------------------------------
//
// These measure the million-viewer event engine (DESIGN.md §10): the timer
// wheel against the Virtual clock's binary heap under a million pending
// timers, and internal/viewersim end to end at growing fleet sizes. Work per
// sub-benchmark is fixed (a full drain / a full simulated broadcast), so the
// guarded metrics are the per-event ones reported via ReportMetric:
// allocs/event must hold the BENCH_scale.json budget, and the wheel must keep
// its recorded speedup over the heap. Run with -benchtime 1x.

// timerChurn is a population of self-rescheduling timers: each of the
// `pending` timers fires rounds+1 times on its own cadence, so the engine
// holds the full population at all times — the heap's worst case (every
// operation pays the log₂(pending) sift) and the wheel's common case (every
// operation is a bucket append at a fixed offset).
type timerChurn struct {
	schedule func(owner uint64, d time.Duration, fn func(time.Time))
	cbs      []func(time.Time)
	left     []int32
	fired    int64
}

func cadenceOf(i int) time.Duration {
	return time.Millisecond + time.Duration(i%997)*37*time.Microsecond
}

func newTimerChurn(pending, rounds int, schedule func(uint64, time.Duration, func(time.Time))) *timerChurn {
	c := &timerChurn{schedule: schedule, cbs: make([]func(time.Time), pending), left: make([]int32, pending)}
	for i := range c.cbs {
		i := i
		c.left[i] = int32(rounds)
		c.cbs[i] = func(time.Time) {
			c.fired++
			if c.left[i] > 0 {
				c.left[i]--
				c.schedule(uint64(i), cadenceOf(i), c.cbs[i])
			}
		}
	}
	return c
}

// prime schedules the whole population; the engine's drain runs it down.
func (c *timerChurn) prime() {
	for i := range c.cbs {
		c.schedule(uint64(i), cadenceOf(i), c.cbs[i])
	}
}

// reportPerEvent emits the per-event metrics benchguard judges.
func reportPerEvent(b *testing.B, events int64, wall time.Duration, mallocs uint64) {
	b.Helper()
	if events == 0 {
		b.Fatal("no events fired")
	}
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
	b.ReportMetric(float64(wall.Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(events)/wall.Seconds(), "events/sec")
}

// BenchmarkWheel races the timer wheel against the Virtual clock's
// heap at one million pending self-rescheduling timers. BENCH_scale.json pins
// the wheel's minimum speedup (ns/event ratio) and both engines' allocs/event.
func BenchmarkWheel(b *testing.B) {
	const pending = 1 << 20
	const rounds = 7
	epoch := time.Unix(0, 0)

	b.Run(fmt.Sprintf("engine=wheel/pending=%d", pending), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wh := clock.NewWheel(clock.WheelConfig{Epoch: epoch})
			churn := newTimerChurn(pending, rounds, func(o uint64, d time.Duration, fn func(time.Time)) {
				wh.Schedule(o, d, fn)
			})
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			churn.prime()
			wh.Run()
			wall := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			reportPerEvent(b, churn.fired, wall, ms1.Mallocs-ms0.Mallocs)
		}
	})

	b.Run(fmt.Sprintf("engine=virtual/pending=%d", pending), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clk := clock.NewVirtual(epoch)
			churn := newTimerChurn(pending, rounds, func(_ uint64, d time.Duration, fn func(time.Time)) {
				clk.Schedule(d, fn)
			})
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			churn.prime()
			clk.Run()
			wall := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			reportPerEvent(b, churn.fired, wall, ms1.Mallocs-ms0.Mallocs)
		}
	})
}

// BenchmarkViewerEngine runs internal/viewersim end to end: one broadcast
// with a growing concurrent audience, every viewer a live state machine on
// the wheel. allocs/event is the guarded signal — the pooled viewer/broadcast
// objects must keep per-event allocations flat as the fleet grows 100×.
func BenchmarkViewerEngine(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		n := n
		b.Run(fmt.Sprintf("viewers=%d", n), func(b *testing.B) {
			if testing.Short() && n > 10_000 {
				b.Skip("large fleets under -short")
			}
			for i := 0; i < b.N; i++ {
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				t0 := time.Now()
				sum, err := viewersim.Run(viewersim.Config{
					Seed:                uint64(i + 1),
					Broadcasts:          1,
					ViewersPerBroadcast: n,
					BroadcastDuration:   12 * time.Second,
					Engine:              "wheel",
				})
				if err != nil {
					b.Fatal(err)
				}
				wall := time.Since(t0)
				runtime.ReadMemStats(&ms1)
				if sum.Views != int64(n) {
					b.Fatalf("views = %d, want %d", sum.Views, n)
				}
				reportPerEvent(b, sum.Events, wall, ms1.Mallocs-ms0.Mallocs)
			}
		})
	}
}

// BenchmarkControlRecovery measures the control plane's crash-recovery path
// (DESIGN.md §6.3): constructing a Service over a journal of live state —
// registrations, broadcast starts, viewer joins — replays every record into
// fresh maps. This is the outage-to-serving latency after a control crash,
// so benchguard pins its per-recovery allocation count: a replay that starts
// decoding lazily or re-journaling on the restore path shows up here.
func BenchmarkControlRecovery(b *testing.B) {
	routes := control.Routes{
		AssignOrigin: func(geo.Location) (string, string) { return "bench-origin", "127.0.0.1:1935" },
		AssignEdge:   func(string, geo.Location) string { return "http://127.0.0.1/hls" },
	}
	b.Run("records=256", func(b *testing.B) {
		// 32 broadcasters + 32 starts + 96 viewer registrations + 96 joins.
		backend := journal.NewMem()
		seed := control.NewService(control.Config{Journal: backend, Seed: 1, Routes: routes})
		const broadcasts = 32
		for i := 0; i < broadcasts; i++ {
			u := seed.Register(fmt.Sprintf("bench-user-%d", i))
			g, err := seed.StartBroadcast(u.ID, geo.Location{})
			if err != nil {
				b.Fatal(err)
			}
			for v := 0; v < 3; v++ {
				vu := seed.Register(fmt.Sprintf("bench-viewer-%d-%d", i, v))
				if _, err := seed.Join(vu.ID, g.BroadcastID, geo.Location{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		seed.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := control.NewService(control.Config{Journal: backend, Seed: 1, Routes: routes})
			if n := s.LiveCount(); n != broadcasts {
				b.Fatalf("recovered %d live broadcasts, want %d", n, broadcasts)
			}
			s.Close()
		}
	})
}
