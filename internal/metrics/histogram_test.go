package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHistogramExactBoundaries pins the le (less-or-equal) bucket
// semantics: an observation exactly on a bound lands in that bound's
// bucket, one nanosecond above spills into the next, and anything past the
// last bound lands in +Inf. The paper's 3 s chunk duration and 9 s
// pre-buffer are exact DelayBuckets bounds, so this is what keeps those
// headline values in their own buckets.
func TestHistogramExactBoundaries(t *testing.T) {
	h := newHistogram([]time.Duration{time.Second, 3 * time.Second, 9 * time.Second})
	h.Observe(time.Second)                     // == bound 0
	h.Observe(time.Second + time.Nanosecond)   // just above bound 0
	h.Observe(3 * time.Second)                 // == bound 1
	h.Observe(9 * time.Second)                 // == bound 2
	h.Observe(9*time.Second + time.Nanosecond) // overflow
	h.Observe(-time.Second)                    // negative clamps into the first bucket
	h.Observe(0)                               // zero is <= every bound

	d := h.Data()
	// Per-bucket (non-cumulative) expectations: [<=1s, <=3s, <=9s, +Inf].
	want := []int64{3, 2, 1, 1}
	var prev int64
	for i, b := range d.Buckets {
		got := b.Count - prev
		prev = b.Count
		if got != want[i] {
			t.Errorf("bucket %d holds %d observations, want %d", i, got, want[i])
		}
	}
	if d.Buckets[len(d.Buckets)-1].Bound >= 0 {
		t.Errorf("last bucket bound = %v, want negative (+Inf)", d.Buckets[len(d.Buckets)-1].Bound)
	}
	if d.Count != 7 {
		t.Errorf("Count = %d, want 7", d.Count)
	}
}

// TestHistogramMeanIntegerDivision pins what a mean is computed from (see
// delay.ComponentHists.Means): Sum is the exact nanosecond total, so
// Sum/Count is the integer division the delay harness has always used.
func TestHistogramMeanIntegerDivision(t *testing.T) {
	h := newHistogram(DelayBuckets)
	h.Observe(3 * time.Second)
	h.Observe(4*time.Second + time.Nanosecond)
	if h.Sum() != 7*time.Second+time.Nanosecond || h.Count() != 2 {
		t.Fatalf("Sum, Count = %v, %d; want 7.000000001s, 2", h.Sum(), h.Count())
	}
	if got, want := h.Sum()/time.Duration(h.Count()), 3500*time.Millisecond; got != want {
		t.Fatalf("Sum/Count = %v, want %v", got, want)
	}
	var empty Histogram
	if empty.Sum() != 0 || empty.Count() != 0 {
		t.Fatalf("empty Sum, Count = %v, %d; want 0, 0", empty.Sum(), empty.Count())
	}
}

// TestHistogramConcurrentObserve hammers Observe from many goroutines under
// -race and checks that no observation is lost or double-counted.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DelayBuckets)
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				// Deterministic spread across buckets and into overflow.
				h.Observe(time.Duration(seed*perG+j) * 17 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("Count = %d, want %d", got, goroutines*perG)
	}
	d := h.Data()
	if last := d.Buckets[len(d.Buckets)-1].Count; last != goroutines*perG {
		t.Fatalf("cumulative +Inf bucket = %d, want %d", last, goroutines*perG)
	}
	var wantSum int64
	for i := 0; i < goroutines; i++ {
		for j := 0; j < perG; j++ {
			wantSum += int64(time.Duration(i*perG+j) * 17 * time.Millisecond)
		}
	}
	if got := h.Sum(); int64(got) != wantSum {
		t.Fatalf("Sum = %d, want %d", got, wantSum)
	}
}

// TestHistogramSnapshotDuringWrites takes snapshots while writers are
// mid-flight and asserts the documented consistency invariants: cumulative
// bucket counts are non-decreasing across the bucket axis, the +Inf bucket
// never undercounts the total (writers bump their bucket before the total),
// and repeated snapshots are monotonic in time.
func TestHistogramSnapshotDuringWrites(t *testing.T) {
	h := newHistogram([]time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * 7 * time.Millisecond
			for !stop.Load() {
				h.Observe(d)
				h.Observe(d * 50) // second bucket / overflow traffic
			}
		}(i)
	}

	var prevCount, prevInf int64
	for i := 0; i < 200; i++ {
		d := h.Data()
		inf := d.Buckets[len(d.Buckets)-1].Count
		if inf < d.Count {
			t.Fatalf("snapshot %d: +Inf cumulative %d < Count %d", i, inf, d.Count)
		}
		for j := 1; j < len(d.Buckets); j++ {
			if d.Buckets[j].Count < d.Buckets[j-1].Count {
				t.Fatalf("snapshot %d: cumulative counts decrease at bucket %d", i, j)
			}
		}
		if d.Count < prevCount || inf < prevInf {
			t.Fatalf("snapshot %d: counts moved backwards in time", i)
		}
		prevCount, prevInf = d.Count, inf
	}
	stop.Store(true)
	wg.Wait()

	// Quiesced: totals must reconcile exactly.
	d := h.Data()
	if inf := d.Buckets[len(d.Buckets)-1].Count; inf != d.Count {
		t.Fatalf("after quiesce: +Inf cumulative %d != Count %d", inf, d.Count)
	}
}

func TestDelayBucketsResolvePaperComponents(t *testing.T) {
	h := newHistogram(DelayBuckets)
	// The three headline quantities must land in three distinct buckets:
	// Wowza→Fastly ≈0.3 s, chunk duration 3 s, pre-buffer 9 s.
	cases := []time.Duration{300 * time.Millisecond, 3 * time.Second, 9 * time.Second}
	idx := make(map[int]bool)
	for _, d := range cases {
		i := 0
		for i < len(h.bounds) && d > h.bounds[i] {
			i++
		}
		if idx[i] {
			t.Fatalf("duration %v shares bucket %d with another paper component", d, i)
		}
		idx[i] = true
	}
}
