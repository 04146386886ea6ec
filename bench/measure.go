package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// windows is how many fixed-size measured windows an untraced run takes.
// Three windows of a third of the run each keep the window long (steadier
// than five short ones) inside the driver's time cap.
const windows = 3

// setUps is how many times an untraced run builds and warms the system;
// setup_s is the median, as the driver's contract asks, so one slow boot does
// not become the reported value.
const setUps = 3

// params is everything a workload may depend on besides its own constants.
type params struct {
	seed    uint64
	seconds int // length of the measured part; op counts scale with it
	drivers int // load-driving goroutines/connections = nproc
	tr      *tracer
	// deadline is the hard wall cap: past it a window stops issuing ops and
	// counts the rest as failed.
	deadline time.Time
}

func (p params) expired() bool { return time.Now().After(p.deadline) }

// scaled turns a per-second op budget (calibrated on the 2-core reference
// box) into this run's per-window count, rounded up to a whole number of
// units so a window is never empty.
func (p params) scaled(perSecond float64, unit int64) int64 {
	n := int64(perSecond * float64(p.seconds) / windows)
	if n < unit {
		return unit
	}
	return n / unit * unit
}

// workload is one delivery mode under test. setUp builds the servers and the
// generator, pre-loads state and runs the fixed-count warm-up through the
// measured path; window i runs the i-th fixed-count batch of ops and returns
// how many it attempted and how many failed verification.
type workload interface {
	setUp() error
	window(i int) (attempted, failed int64)
	tearDown()
	// registry is the metrics registry the workload's servers share, nil
	// when it has none to read.
	registry() *metrics.Registry

	// The traced run only: paced runs an open-loop segment at rate ops/s
	// (ops timed from their due time), and layers turns what the run
	// recorded into the per-layer metrics.
	paced(rate float64, d time.Duration) pacedResult
	layers(lc *layerCtx)
}

// pacedResult is what an open-loop segment measured.
type pacedResult struct {
	latencyNs []int64 // due time → verified completion, per sampled op
	lateNs    []int64 // due time → actual issue, per op
}

var workloads = map[string]func(params) workload{
	"rtmp_fanout":     newFanout,
	"hls_poll":        newHLSPoll,
	"broadcast_churn": newChurn,
	"simday":          newSimday,
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// maxFailShare is the failure share above which a run exits non-zero.
const maxFailShare = 0.001

type usage struct {
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	numGC     uint32
	pauseNs   uint64
	heapInuse uint64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// cpuNow is the process's user+sys CPU time so far.
func cpuNow() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is KiB on
// Linux).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:       cpuNow(),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		numGC:     ms.NumGC,
		pauseNs:   ms.PauseTotalNs,
		heapInuse: ms.HeapInuse,
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timedSetUp builds and warms one instance of the workload and returns it
// with the seconds that took.
func timedSetUp(name string, p params) (workload, float64, error) {
	t0 := time.Now()
	w := workloads[name](p)
	if err := w.setUp(); err != nil {
		w.tearDown()
		return nil, 0, fmt.Errorf("%s: set-up: %w", name, err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// runUntraced measures the end-to-end metrics of one workload. The windows
// run on the process's first set-up, and peak RSS is read right after them,
// so both see what a single boot would; the further set-ups that steady
// setup_s come afterwards, where their garbage cannot reach either.
func runUntraced(name string, p params) (result, error) {
	w, first, err := timedSetUp(name, p)
	if err != nil {
		return result{}, err
	}
	setup := []float64{first}

	runtime.GC()
	before := readUsage()
	var attempted, failed int64
	var goodput []float64
	for i := 0; i < windows; i++ {
		c0 := cpuNow()
		t0 := time.Now()
		a, f := w.window(i)
		wall := time.Since(t0).Seconds()
		attempted += a
		failed += f
		goodput = append(goodput, float64(a-f)/wall)
		fmt.Fprintf(os.Stderr, "bench: %s window %d: %d ops in %.3f s, %.4f cpu-ms/kop\n", name, i, a-f, wall,
			float64(cpuNow()-c0)/float64(time.Millisecond)/float64(a-f)*1000)
	}
	after := readUsage()
	rss := peakRSSMB()
	w.tearDown()

	for i := 1; i < setUps; i++ {
		w, s, err := timedSetUp(name, p)
		if err != nil {
			return result{}, err
		}
		w.tearDown()
		setup = append(setup, s)
	}

	ok := float64(attempted - failed)
	if ok <= 0 {
		return result{Attempted: max(attempted, 1), Failed: failed}, fmt.Errorf("%s: no op succeeded", name)
	}
	// Not gated (see spec.go), but worth a look beside the gated ones.
	fmt.Fprintf(os.Stderr, "bench: %s: goodput %.6g ops/s (median window), %.6g cpu-ms/kop\n", name,
		median(goodput), float64(after.cpu-before.cpu)/float64(time.Millisecond)/ok*1000)
	fmt.Fprintf(os.Stderr, "bench: %s: set-ups %.3f s\n", name, setup)
	m := map[string]float64{
		"setup_s":            median(setup),
		"allocs_per_op":      float64(after.mallocs-before.mallocs) / ok,
		"alloc_bytes_per_op": float64(after.bytes-before.bytes) / ok,
		"peak_rss_mb":        rss,
	}
	return finish(endToEnd, m, attempted, failed), nil
}

// finish shapes a metric map into the printed result, in spec order and with
// the spec's units; a metric the run did not fill is reported as zero.
func finish(spec []metricSpec, m map[string]float64, attempted, failed int64) result {
	r := result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]value, len(spec)),
	}
	for _, s := range spec {
		r.Metrics[s.Name] = value{Value: m[s.Name], Unit: s.Unit}
	}
	return r
}

// layerCtx is what a traced run hands a workload to derive its per-layer
// metrics from.
type layerCtx struct {
	m map[string]float64
	// spans are the spans opened during the traced windows; setup those
	// opened before the reference window (platform start, handshakes).
	spans map[string]*spanStats
	setup map[string]*spanStats
	reg   regDelta
	paced pacedResult
	ops   int64   // verified ops in the traced windows
	cpuNs float64 // process CPU over the traced windows
}

// tracedWindows is how many windows run with spans on, after one reference
// window with spans off.
const tracedWindows = 2

// pacedSeconds is the open-loop segment's length; pacedLoad its rate as a
// share of the goodput the reference window measured.
const (
	pacedSeconds = 3
	pacedLoad    = 0.5
)

// pacedTick is the open-loop generators' timer granularity. An op whose due
// time is still ahead is slept past by one tick, and the ops that came due
// meanwhile are then issued back to back: one sleep per tick instead of one
// per op, because a Go timer cannot hit the 70–200 µs gaps these rates need
// and an oversleeping generator would fall behind its own schedule. Each op
// is still timed from its own due time, and the tick shows in
// loadgen.late_p99_us.
const pacedTick = time.Millisecond

// pacedWait returns once due has passed.
func pacedWait(due time.Time) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d + pacedTick)
	}
}

// runTraced measures the per-layer metrics of one workload: a reference
// window with spans off, two with spans on (their goodput gap is the tracing
// overhead), an open-loop segment for latency percentiles, then the layer
// probes.
func runTraced(name string, p params, traceOut string) (result, error) {
	tr := newTracer()
	p.tr = tr
	w := workloads[name](p)
	err := w.setUp()
	defer w.tearDown()
	if err != nil {
		return result{}, fmt.Errorf("%s: set-up: %w", name, err)
	}

	setupEnd := tr.now()
	tr.off()
	runtime.GC()
	c0 := cpuNow()
	t0 := time.Now()
	a, f := w.window(0)
	attempted, failed := a, f
	reference := float64(a-f) / time.Since(t0).Seconds()
	referenceCPU := float64(cpuNow()-c0) / float64(time.Millisecond) / float64(a-f) * 1000

	tr.on()
	u0 := readUsage()
	reg0 := snapshotOf(w.registry())
	tracedFrom := tr.now()
	t0 = time.Now()
	var ops int64
	for i := 1; i <= tracedWindows; i++ {
		a, f := w.window(i)
		attempted += a
		failed += f
		ops += a - f
	}
	traced := float64(ops) / time.Since(t0).Seconds()
	tracedTo := tr.now()
	reg1 := snapshotOf(w.registry())
	u1 := readUsage()

	pr := w.paced(reference*pacedLoad, pacedSeconds*time.Second)
	tr.off()

	lc := &layerCtx{
		m:     make(map[string]float64),
		spans: statsByName(tr.between(tracedFrom, tracedTo)),
		setup: statsByName(tr.between(0, setupEnd)),
		reg:   reg1.minus(reg0),
		paced: pr,
		ops:   ops,
		cpuNs: float64(u1.cpu - u0.cpu),
	}
	lc.m["goodput_ops_s"] = reference
	lc.m["cpu_ms_per_kop"] = referenceCPU
	lc.m["runtime.gc_cycles"] = float64(u1.numGC - u0.numGC)
	lc.m["runtime.gc_pause_total_ms"] = float64(u1.pauseNs-u0.pauseNs) / 1e6
	lc.m["runtime.heap_inuse_mb"] = float64(u1.heapInuse) / (1 << 20)
	lc.m["trace.overhead_pct"] = (reference - traced) / reference * 100
	lc.m["trace.spans"] = float64(tr.count())
	late := summarize(pr.lateNs, 99)
	lc.m["loadgen.late_p99_us"] = late.Tail / 1e3
	if late.N > 0 {
		logTiming("loadgen.late", late)
	}
	w.layers(lc)

	if traceOut != "" {
		if err := tr.writeJSON(traceOut); err != nil {
			return result{}, err
		}
	}
	return finish(perLayer, lc.m, attempted, failed), nil
}

// regDelta is a registry snapshot (or the difference of two) flattened for
// lookup: every counter summed over its label sets, since the benchmark asks
// "how many list pulls", not "how many at which site".
type regDelta map[string]int64

func snapshotOf(reg *metrics.Registry) regDelta {
	d := regDelta{}
	if reg == nil {
		return d
	}
	for _, c := range reg.Snapshot().Counters {
		d[c.Name] += c.Value
	}
	return d
}

func (a regDelta) minus(b regDelta) regDelta {
	d := regDelta{}
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

func (d regDelta) counter(name string) float64 { return float64(d[name]) }

// ratio is a/(a+b), or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
