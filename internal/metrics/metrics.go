// Package metrics is the platform's one observability substrate: a registry
// of typed, label-aware instruments — allocation-free sharded counters,
// gauges, and fixed-bucket histograms — that every layer of the delivery
// path (rtmp, cdn, hls, pubsub, health, core) registers into instead of
// keeping bespoke counter structs. The bucket boundaries are chosen to
// resolve the paper's delay decomposition (§4.2–4.3): 3 s chunks, the 9 s
// HLS pre-buffer, and the sub-second Wowza→Fastly push all land in distinct
// buckets. The same histograms back both the live /metrics endpoint and the
// Figure 11 experiment harness, so reproduced figures and runtime telemetry
// come from one code path.
//
// Hot-path discipline: Counter.Add/Inc, Gauge.Set/Add, and
// Histogram.Observe perform zero heap allocations and take no locks (all
// state is atomic), so instruments may sit on the per-frame fan-out and
// per-poll serving paths that DESIGN.md §5a budgets. Registration is the
// only locked, allocating operation and belongs in constructors.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Label is one name/value pair attached to an instrument, e.g. the edge
// site serving a counter. Labels distinguish instruments that share a name.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Instrument kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// instrument is one registered entry: a name + sorted label set bound to
// exactly one of the typed instruments.
type instrument struct {
	name   string
	labels []Label // sorted by key
	kind   string

	counter  *Counter
	gauge    *Gauge
	gaugeFns []func() int64 // derived gauge, summed; empty for plain gauges
	hist     *Histogram
}

// Registry holds instruments keyed by name + label set. Registering the
// same name and labels twice returns the same instrument, so components
// rebuilt against a shared registry keep accumulating into one series;
// registering a name under a different kind is a programming error and
// panics.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]*instrument
	order []*instrument
}

// NewRegistry builds an empty Registry.
func NewRegistry() *Registry { return &Registry{byKey: make(map[string]*instrument)} }

// instrumentKey renders name+labels into the dedup key. Labels must already
// be sorted.
func instrumentKey(name string, labels []Label) string {
	k := name
	for _, l := range labels {
		k += "\x00" + l.Key + "\x01" + l.Value
	}
	return k
}

// register returns the instrument for name+labels, calling init to populate
// a newly created one. Cold path: locks and allocates.
func (r *Registry) register(name, kind string, labels []Label, init func(*instrument)) *instrument {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	key := instrumentKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byKey[key]; ok {
		if in.kind != kind {
			panic("metrics: " + name + " registered as " + in.kind + ", re-requested as " + kind)
		}
		return in
	}
	in := &instrument{name: name, labels: ls, kind: kind}
	init(in)
	r.byKey[key] = in
	r.order = append(r.order, in)
	return in
}

// Counter registers (or fetches) a monotonic counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.register(name, kindCounter, labels, func(in *instrument) {
		in.counter = new(Counter)
	}).counter
}

// Gauge registers (or fetches) a settable gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.register(name, kindGauge, labels, func(in *instrument) {
		in.gauge = new(Gauge)
	}).gauge
}

// GaugeFunc registers a derived gauge whose value is computed by fn at
// snapshot time. The series reads the sum of every function registered under
// its name and labels, so several components behind one label set (the
// per-core edges of a simulated day, all at one site) report their total.
// fn is called outside the registry lock and must be safe to call from any
// goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	in := r.register(name, kindGauge, labels, func(in *instrument) {})
	r.mu.Lock()
	in.gaugeFns = append(in.gaugeFns, fn)
	r.mu.Unlock()
}

// Histogram registers (or fetches) a fixed-bucket histogram of durations.
// bounds must be ascending; re-registering with different bounds panics.
func (r *Registry) Histogram(name string, bounds []time.Duration, labels ...Label) *Histogram {
	in := r.register(name, kindHistogram, labels, func(in *instrument) {
		in.hist = newHistogram(bounds)
	})
	if !boundsEqual(in.hist.bounds, bounds) {
		panic("metrics: histogram " + name + " re-registered with different buckets")
	}
	return in.hist
}

func boundsEqual(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Counter ----------------------------------------------------------------

// counterStripes is the shard count; a power of two so the reduction is a
// mask.
const counterStripes = 8

// counterCell is one stripe, padded out to its own cache line so concurrent
// adders on different stripes never false-share.
type counterCell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is an allocation-free monotonic counter sharded across
// cache-line-padded stripes: concurrent adders (the per-viewer push
// goroutines of the rtmp fan-out, parallel edge polls) spread across
// stripes instead of serializing on one contended cache line. Reads sum
// the stripes.
type Counter struct {
	cells [counterStripes]counterCell
}

// stripeIndex derives a stripe from the address of a stack local: distinct
// goroutines run on distinct stack allocations, so concurrent adders spread
// across stripes, while one goroutine keeps hitting the same (warm) line.
// The pointer is reduced to an integer immediately, so the local never
// escapes and the observation stays allocation-free.
func stripeIndex() uintptr {
	var marker byte
	return stripeOf(uintptr(unsafe.Pointer(&marker)))
}

// stripeOf maps a stack address to a stripe. Goroutine stacks are at least
// 2 KB and aligned to their size, so the address's low 11 bits are an offset
// inside the stack, the same for every goroutine at one call depth, and are
// dropped; the bits above tell stacks apart, and the splitmix64 finalizer
// spreads them over the stripes whatever the spacing between stacks.
func stripeOf(addr uintptr) uintptr {
	x := uint64(addr >> 11)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return uintptr(x^x>>31) & (counterStripes - 1)
}

// Add adds n to the counter.
//
//livesim:hotpath TestObservationsAllocFree
func (c *Counter) Add(n int64) { c.cells[stripeIndex()].n.Add(n) }

// Inc adds one.
//
//livesim:hotpath TestObservationsAllocFree
func (c *Counter) Inc() { c.Add(1) }

// Value sums the stripes.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// --- Gauge ------------------------------------------------------------------

// Gauge is an instantaneous value (active viewers, fleet nodes in a state,
// configured poll interval). All access is atomic and allocation-free.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
//
//livesim:hotpath TestObservationsAllocFree
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
//
//livesim:hotpath TestObservationsAllocFree
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }
