package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryDedupByNameAndLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("frames_total", L("site", "sfo"))
	b := r.Counter("frames_total", L("site", "sfo"))
	if a != b {
		t.Fatalf("same name+labels returned distinct counters")
	}
	c := r.Counter("frames_total", L("site", "iad"))
	if a == c {
		t.Fatalf("different labels returned the same counter")
	}
	// Label order must not matter.
	d := r.Counter("multi", L("a", "1"), L("b", "2"))
	e := r.Counter("multi", L("b", "2"), L("a", "1"))
	if d != e {
		t.Fatalf("label order changed instrument identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramBoundsMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []time.Duration{time.Second})
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a histogram with different bounds did not panic")
		}
	}()
	r.Histogram("h", []time.Duration{2 * time.Second})
}

func TestCounterConcurrentAddsSum(t *testing.T) {
	var c Counter
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("Value = %d, want %d", got, goroutines*perG)
	}
}

// Stacks a fixed spacing apart — 2 KB to 64 KB, the sizes goroutine stacks
// come in, at any offset inside them — spread over every stripe: the offset
// bits, shared by all goroutines at one call depth, do not pick the stripe.
func TestCounterStripesSpreadStackFamilies(t *testing.T) {
	for spacing := uintptr(2 << 10); spacing <= 64<<10; spacing <<= 1 {
		for _, b := range []uint64{0xc000000000, 0xc000a3f000, 0x7f3a12340000} {
			base := uintptr(b) &^ (spacing - 1)
			for _, off := range []uintptr{8, 0x7a0, spacing - 8} {
				var seen [counterStripes]bool
				covered := 0
				for k := uintptr(0); k < 64; k++ {
					if i := stripeOf(base + k*spacing + off); !seen[i] {
						seen[i] = true
						covered++
					}
				}
				if covered != counterStripes {
					t.Errorf("64 stacks %d B apart from %#x, offset %#x: %d of %d stripes", spacing, base, off, covered, counterStripes)
				}
			}
		}
	}
}

// Live goroutines at one call depth spread over every stripe, on the initial
// stacks (depth 0 and 10) and on grown ones (100, 1000 frames). Every
// goroutine stays parked until all have sampled: a goroutine that exited
// would hand its stack to the next one, and the test would count reuse.
func TestCounterStripesSpreadLiveGoroutines(t *testing.T) {
	const goroutines = 256
	for _, depth := range []int{0, 10, 100, 1000} {
		sampled := make(chan uintptr, goroutines)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sampleStripeAt(depth, sampled, release)
			}()
		}
		var seen [counterStripes]bool
		covered := 0
		for i := 0; i < goroutines; i++ {
			if s := <-sampled; !seen[s] {
				seen[s] = true
				covered++
			}
		}
		close(release)
		wg.Wait()
		if covered != counterStripes {
			t.Errorf("%d live goroutines at depth %d use %d of %d stripes", goroutines, depth, covered, counterStripes)
		}
	}
}

// sampleStripeAt recurses depth frames, sends the stripe an Add there would
// use, and parks, its stack alive, until release is closed.
func sampleStripeAt(depth int, sampled chan<- uintptr, release <-chan struct{}) {
	if depth > 0 {
		sampleStripeAt(depth-1, sampled, release)
		return
	}
	sampled <- stripeIndex()
	<-release
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

// TestObservationsAllocFree pins the zero-alloc hot-path budget: every
// observation primitive must stay allocation-free so instruments can sit on
// the per-frame fan-out path.
func TestObservationsAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DelayBuckets)
	if n := testing.AllocsPerRun(100, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Set(9) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Add(-2) }); n != 0 {
		t.Errorf("Gauge.Add allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(3 * time.Second) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
	u := &Usage{Frames: r.Counter("f"), Chunks: r.Counter("k"), Bytes: r.Counter("b")}
	var none *Usage
	if n := testing.AllocsPerRun(100, func() { u.MeterFrames(2, 20); u.MeterChunks(1, 10); none.MeterChunks(1, 10) }); n != 0 {
		t.Errorf("Usage.Meter* allocates %.1f/op, want 0", n)
	}
	if f, k, b := u.Frames.Value(), u.Chunks.Value(), u.Bytes.Value(); f != 202 || k != 101 || b != 3030 {
		t.Errorf("Usage after 101 runs = (%d, %d, %d), want (202, 101, 3030)", f, k, b)
	}
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := int64(1)
	r.GaugeFunc("derived", func() int64 { return v })
	if got := findGauge(t, r.Snapshot(), "derived"); got != 1 {
		t.Fatalf("derived = %d, want 1", got)
	}
	v = 42
	if got := findGauge(t, r.Snapshot(), "derived"); got != 42 {
		t.Fatalf("derived = %d after update, want 42", got)
	}
	// A second function under the same series adds to it, never replaces.
	r.GaugeFunc("derived", func() int64 { return 2 })
	if got := findGauge(t, r.Snapshot(), "derived"); got != 44 {
		t.Fatalf("derived = %d with two functions registered, want their sum 44", got)
	}
}

// TestGaugeFuncMayLockRegistry guards the lock-ordering contract: a
// GaugeFunc closure that itself registers (or takes locks that lead back to
// the registry) must not deadlock, because Snapshot evaluates closures
// outside the registry lock.
func TestGaugeFuncMayLockRegistry(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("self_referential", func() int64 {
		return r.Counter("side").Value()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Snapshot()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Snapshot deadlocked evaluating a registry-locking GaugeFunc")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("site", "z"))
	r.Counter("b_total", L("site", "a"))
	r.Counter("a_total")
	r.Gauge("depth")
	r.Histogram(DelayChunking, DelayBuckets)
	s := r.Snapshot()
	if len(s.Counters) != 3 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot shape = %d/%d/%d counters/gauges/histograms", len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	for i := 1; i < len(s.Counters); i++ {
		a := seriesKey(s.Counters[i-1].Name, s.Counters[i-1].Labels)
		b := seriesKey(s.Counters[i].Name, s.Counters[i].Labels)
		if a >= b {
			t.Fatalf("counters not sorted: %q before %q", a, b)
		}
	}
}

func TestHandlerJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("rtmp_frames_in_total", L("site", "sfo")).Add(5)
	h := r.Histogram(DelayPolling, DelayBuckets, L("proto", "hls"))
	h.Observe(2 * time.Second)

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var s Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	if len(s.Counters) != 1 || s.Counters[0].Value != 5 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	// The overflow bucket must render as +Inf and carry the full count.
	last := s.Histograms[0].Buckets[len(s.Histograms[0].Buckets)-1]
	if last.LE != "+Inf" || last.Count != 1 {
		t.Fatalf("last bucket = %+v", last)
	}

	rec = httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
}

func TestVarsHandlerFlatView(t *testing.T) {
	r := NewRegistry()
	r.Counter("cdn_sheds_total", L("site", "iad")).Add(3)
	r.Histogram(DelayBuffering, DelayBuckets).Observe(9 * time.Second)

	rec := httptest.NewRecorder()
	VarsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/vars = %d", rec.Code)
	}
	var flat map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &flat); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	if flat["cdn_sheds_total{site=iad}"] != 3 {
		t.Fatalf("flat counter missing: %v", flat)
	}
	if flat[DelayBuffering+".count"] != 1 || flat[DelayBuffering+".mean_seconds"] != 9 {
		t.Fatalf("flat histogram entries wrong: %v", flat)
	}
	if !strings.Contains(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("Content-Type = %q", rec.Header().Get("Content-Type"))
	}
}

func findGauge(t *testing.T, s Snapshot, name string) int64 {
	t.Helper()
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("gauge %q not in snapshot", name)
	return 0
}
