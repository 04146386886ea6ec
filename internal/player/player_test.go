package player

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"

	"repro/internal/testutil"
)

var t0 = time.Date(2015, 5, 15, 0, 0, 0, 0, time.UTC)

// regular builds n items of dur length arriving exactly on content cadence
// starting at t0 (a perfectly smooth stream).
func regular(n int, dur time.Duration) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Seq:      uint64(i),
			Duration: dur,
			ArriveAt: t0.Add(time.Duration(i) * dur),
		}
	}
	return items
}

func TestEmptyInput(t *testing.T) {
	testutil.CheckGoroutines(t)
	if r := Simulate(nil, Config{}); r.Played != 0 || r.StallRatio != 0 {
		t.Fatalf("empty result = %+v", r)
	}
}

func TestSmoothStreamNoBufferNoStall(t *testing.T) {
	testutil.CheckGoroutines(t)
	items := regular(100, 40*time.Millisecond)
	r := Simulate(items, Config{PreBuffer: 0})
	if r.StallRatio != 0 {
		t.Fatalf("smooth stream stalled: %v", r.StallRatio)
	}
	if r.Played != 100 || r.Dropped != 0 {
		t.Fatalf("played=%d dropped=%d", r.Played, r.Dropped)
	}
	if r.MeanBufferingDelay != 0 {
		t.Fatalf("delay = %v on cadence-perfect arrivals", r.MeanBufferingDelay)
	}
}

func TestPreBufferAddsDelay(t *testing.T) {
	testutil.CheckGoroutines(t)
	items := regular(100, 40*time.Millisecond)
	r0 := Simulate(items, Config{PreBuffer: 0})
	r1 := Simulate(items, Config{PreBuffer: time.Second})
	if r1.MeanBufferingDelay <= r0.MeanBufferingDelay {
		t.Fatalf("pre-buffer did not add delay: %v vs %v", r1.MeanBufferingDelay, r0.MeanBufferingDelay)
	}
	// P=1s over 40ms items: playback starts after the 25th arrival
	// (1s of content), so item 0 is delayed ≈1s.
	if r1.MeanBufferingDelay < 800*time.Millisecond {
		t.Fatalf("delay = %v, want ≈1s", r1.MeanBufferingDelay)
	}
	if r1.StallRatio != 0 {
		t.Fatal("smooth stream stalled with pre-buffer")
	}
}

func TestJitteredStreamStallsWithoutBuffer(t *testing.T) {
	testutil.CheckGoroutines(t)
	src := rng.New(3)
	items := make([]Item, 200)
	for i := range items {
		jitter := time.Duration(src.Exp(float64(120 * time.Millisecond)))
		items[i] = Item{
			Seq:      uint64(i),
			Duration: 40 * time.Millisecond,
			ArriveAt: t0.Add(time.Duration(i)*40*time.Millisecond + jitter),
		}
	}
	r0 := Simulate(items, Config{PreBuffer: 0})
	r1 := Simulate(items, Config{PreBuffer: 2 * time.Second})
	if r0.StallRatio == 0 {
		t.Fatal("jittered stream did not stall with zero buffer")
	}
	if r1.StallRatio >= r0.StallRatio {
		t.Fatalf("pre-buffer did not reduce stalls: %v vs %v", r1.StallRatio, r0.StallRatio)
	}
}

func TestLateItemDropped(t *testing.T) {
	testutil.CheckGoroutines(t)
	items := regular(10, time.Second)
	// Item 5 arrives 3 s late: scheduled at t0+5s, arrives t0+8s.
	items[5].ArriveAt = t0.Add(8 * time.Second)
	r := Simulate(items, Config{PreBuffer: 0})
	if r.Dropped != 1 || r.Played != 9 {
		t.Fatalf("played=%d dropped=%d", r.Played, r.Dropped)
	}
	if r.StallRatio != 0.1 {
		t.Fatalf("stall ratio = %v, want 0.1 (1 of 10 seconds missing)", r.StallRatio)
	}
}

func TestOutOfOrderArrivalsBySeq(t *testing.T) {
	testutil.CheckGoroutines(t)
	items := regular(10, time.Second)
	// Shuffle arrival order but keep everything early enough to play.
	items[2], items[7] = items[7], items[2]
	for i := range items {
		items[i].ArriveAt = t0 // all arrive immediately
	}
	r := Simulate(items, Config{PreBuffer: 0})
	if r.Played != 10 || r.Dropped != 0 {
		t.Fatalf("out-of-order replay: played=%d dropped=%d", r.Played, r.Dropped)
	}
}

func TestShortBroadcastSmallerThanPreBuffer(t *testing.T) {
	testutil.CheckGoroutines(t)
	items := regular(3, time.Second) // 3 s of content, 9 s pre-buffer
	r := Simulate(items, Config{PreBuffer: 9 * time.Second})
	if r.Played != 3 || r.Dropped != 0 {
		t.Fatalf("short broadcast: played=%d dropped=%d", r.Played, r.Dropped)
	}
	if !r.StartAt.Equal(items[2].ArriveAt) {
		t.Fatalf("StartAt = %v, want last arrival", r.StartAt)
	}
}

func TestPaperTradeoffMonotonicity(t *testing.T) {
	testutil.CheckGoroutines(t)
	// The §6 claim in miniature: larger P monotonically lowers stalls
	// and raises delay on a jittery chunk stream.
	src := rng.New(11)
	items := make([]Item, 120)
	for i := range items {
		jitter := time.Duration((src.Float64() - 0.2) * float64(4*time.Second))
		items[i] = Item{
			Seq:      uint64(i),
			Duration: 3 * time.Second,
			ArriveAt: t0.Add(time.Duration(i)*3*time.Second + jitter),
		}
	}
	var sweep []Result
	for _, p := range []time.Duration{0, 3 * time.Second, 6 * time.Second, 9 * time.Second} {
		sweep = append(sweep, Simulate(items, Config{PreBuffer: p}))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].StallRatio > sweep[i-1].StallRatio+1e-9 {
			t.Fatalf("stall ratio not non-increasing in P: %+v", sweep)
		}
		if sweep[i].MeanBufferingDelay < sweep[i-1].MeanBufferingDelay {
			t.Fatalf("buffering delay not non-decreasing in P: %+v", sweep)
		}
	}
}

func TestMaxDelayAtLeastMean(t *testing.T) {
	testutil.CheckGoroutines(t)
	items := regular(50, 40*time.Millisecond)
	r := Simulate(items, Config{PreBuffer: 500 * time.Millisecond})
	if r.MaxBufferingDelay < r.MeanBufferingDelay {
		t.Fatalf("max %v < mean %v", r.MaxBufferingDelay, r.MeanBufferingDelay)
	}
}

// Property: stall ratio is always in [0,1], played+dropped = n, and delays
// are non-negative.
func TestInvariantsProperty(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := func(arrivalOffsets []int16, preBufferMs uint16) bool {
		if len(arrivalOffsets) == 0 {
			return true
		}
		items := make([]Item, len(arrivalOffsets))
		for i, off := range arrivalOffsets {
			items[i] = Item{
				Seq:      uint64(i),
				Duration: time.Second,
				ArriveAt: t0.Add(time.Duration(i)*time.Second + time.Duration(off)*time.Millisecond),
			}
		}
		r := Simulate(items, Config{PreBuffer: time.Duration(preBufferMs) * time.Millisecond})
		if r.StallRatio < 0 || r.StallRatio > 1 {
			return false
		}
		if r.Played+r.Dropped != len(items) {
			return false
		}
		return r.MeanBufferingDelay >= 0 && r.MaxBufferingDelay >= r.MeanBufferingDelay
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: increasing pre-buffer never increases the stall ratio.
func TestPreBufferMonotoneProperty(t *testing.T) {
	testutil.CheckGoroutines(t)
	f := func(seed uint64) bool {
		src := rng.New(seed)
		items := make([]Item, 60)
		for i := range items {
			jitter := time.Duration(src.Exp(float64(time.Second)))
			items[i] = Item{
				Seq:      uint64(i),
				Duration: time.Second,
				ArriveAt: t0.Add(time.Duration(i)*time.Second + jitter),
			}
		}
		prev := 2.0
		for _, p := range []time.Duration{0, time.Second, 3 * time.Second, 9 * time.Second} {
			r := Simulate(items, Config{PreBuffer: p})
			if r.StallRatio > prev+1e-9 {
				return false
			}
			prev = r.StallRatio
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
