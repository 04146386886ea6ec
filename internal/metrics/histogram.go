package metrics

import (
	"sync/atomic"
	"time"
)

// Canonical instrument names for the paper's end-to-end delay decomposition
// (Fig. 11): one histogram per pipeline stage, labelled by protocol or site.
// The live platform and the internal/delay harness populate the same names,
// so a /metrics scrape and an EXPERIMENTS.md figure agree by construction.
const (
	DelayUpload     = "delay_upload_seconds"      // broadcaster → ingest (§4.2)
	DelayChunking   = "delay_chunking_seconds"    // frames buffered into 3 s chunks (§4.3)
	DelayOriginEdge = "delay_origin_edge_seconds" // Wowza → Fastly pull (§4.3)
	DelayPolling    = "delay_polling_seconds"     // HLS chunklist poll gap (§4.3)
	DelayLastMile   = "delay_lastmile_seconds"    // edge → player transfer (§4.2)
	DelayBuffering  = "delay_buffering_seconds"   // player pre-buffer fill (§4.2, §6)
)

// DelayBuckets are the default histogram bounds for delay components. They
// are chosen so every quantity the paper reports lands in its own bucket:
// the sub-second Wowza→Fastly push (≈0.3 s) resolves under the 1 s line,
// the 2–2.8 s polling interval and the 3 s chunk duration straddle distinct
// buckets, the 9 s HLS pre-buffer has an exact boundary, and the ≈11.7 s
// HLS end-to-end total falls inside 9–12 s. Callers must not mutate.
var DelayBuckets = []time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
	3 * time.Second,
	4 * time.Second,
	6 * time.Second,
	9 * time.Second,
	12 * time.Second,
	20 * time.Second,
	30 * time.Second,
}

// RecoveryBuckets are the histogram bounds for crash-recovery time (origin
// and control alike): journal replay plus re-listen, expected in the
// milliseconds for in-memory backends and tens of milliseconds for
// file-backed journals of realistic size. Callers must not mutate.
var RecoveryBuckets = []time.Duration{
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	time.Second,
	5 * time.Second,
}

// Histogram counts duration observations into fixed buckets. Bucket i holds
// observations d with d <= bounds[i] (and greater than bounds[i-1]); an
// observation exactly on a boundary lands in that boundary's bucket. One
// extra overflow bucket holds everything above the last bound. Observe is
// lock-free and allocation-free; Snapshot is a consistent-enough read for
// monitoring (see the invariant documented there).
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]time.Duration(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records d. The write order (bucket, then total count, then sum)
// pairs with Snapshot's read order so a concurrent snapshot never sees a
// total count exceeding the bucket sum.
//
//livesim:hotpath TestObservationsAllocFree
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the total of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// BucketCount is one cumulative bucket of a histogram snapshot.
type BucketCount struct {
	// Bound is the inclusive upper bound; negative means +Inf (overflow).
	Bound time.Duration
	// Count is the cumulative number of observations <= Bound.
	Count int64
}

// HistogramData is a point-in-time view of a Histogram.
type HistogramData struct {
	Count   int64
	Sum     time.Duration
	Buckets []BucketCount // ascending; last entry is the +Inf bucket
}

// Data snapshots the histogram. Under concurrent Observe calls the buckets
// may run slightly ahead of Count/Sum, never behind: Count is read before
// the buckets while writers increment their bucket first, so the +Inf
// cumulative total is always >= Count. Each individual bucket's cumulative
// count is exact for the moment it was read and non-decreasing over time.
func (h *Histogram) Data() HistogramData {
	d := HistogramData{
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := time.Duration(-1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		d.Buckets[i] = BucketCount{Bound: bound, Count: cum}
	}
	return d
}
