package player

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"

	"repro/internal/testutil"
)

// item is one fed unit, as offsets.
type item struct{ arr, dur time.Duration }

// run feeds items to a fresh Player with pre-buffer pre.
func run(items []item, pre time.Duration) Result {
	var p Player
	p.Reset(pre)
	for _, it := range items {
		p.Add(it.arr, it.dur)
	}
	return p.Result()
}

// regular builds n items of dur length arriving exactly on content cadence
// (a perfectly smooth stream).
func regular(n int, dur time.Duration) []item {
	items := make([]item, n)
	for i := range items {
		items[i] = item{arr: time.Duration(i) * dur, dur: dur}
	}
	return items
}

// jittered builds n items of dur length, item i arriving at i·dur plus a
// jitter draw, clamped to the running maximum: TCP delivers in order, so a
// delayed item delays its successors.
func jittered(n int, dur time.Duration, jitter func() time.Duration) []item {
	items := make([]item, n)
	var prev time.Duration
	for i := range items {
		prev = max(prev, time.Duration(i)*dur+jitter())
		items[i] = item{arr: prev, dur: dur}
	}
	return items
}

// model is the §6 rule written out as the batch computation the paper
// describes, sharing no code with Player: sort by arrival to find when P of
// content has arrived (the last arrival if it never does), then walk the
// items in sequence order on the fixed schedule from there.
func model(items []item, pre time.Duration) Result {
	if len(items) == 0 {
		return Result{}
	}
	byArr := append([]item(nil), items...)
	sort.SliceStable(byArr, func(i, j int) bool { return byArr[i].arr < byArr[j].arr })
	var r Result
	var have time.Duration
	for _, it := range byArr {
		r.Start, have = it.arr, have+it.dur
		if have >= pre {
			break
		}
	}
	var at, sum, total, lost time.Duration
	for _, it := range items {
		slot := r.Start + at
		at, total = at+it.dur, total+it.dur
		if it.arr > slot+it.dur {
			r.Dropped, lost = r.Dropped+1, lost+it.dur
			continue
		}
		d := max(slot-it.arr, 0)
		r.Played, sum, r.MaxBufferingDelay = r.Played+1, sum+d, max(r.MaxBufferingDelay, d)
	}
	if r.Played > 0 {
		r.MeanBufferingDelay = sum / time.Duration(r.Played)
	}
	r.StallRatio = float64(lost) / float64(total)
	return r
}

// TestPlayerMatchesModel holds the streaming Player to the model over 10⁴
// random in-order streams: P = 0, P beyond the whole content, a partial last
// item and runs of equal arrivals all occur. A failure prints the stream's
// seed.
func TestPlayerMatchesModel(t *testing.T) {
	for seed := uint64(0); seed < 10_000; seed++ {
		src := rng.New(seed)
		n := 1 + src.Intn(30)
		unit := time.Duration(1+src.Intn(3000)) * time.Millisecond
		items := make([]item, n)
		var arr, content time.Duration
		for i := range items {
			if !src.Bool(0.25) { // else: equal to the previous arrival
				arr += time.Duration(src.Exp(float64(unit)))
			}
			items[i] = item{arr: arr, dur: unit}
			content += unit
		}
		if src.Bool(0.5) {
			items[n-1].dur = time.Duration(src.Float64()*float64(unit)) + 1
			content += items[n-1].dur - unit
		}
		var pre time.Duration
		switch seed % 4 {
		case 1:
			pre = time.Duration(src.Float64() * float64(content))
		case 2:
			pre = content + time.Duration(1+src.Intn(int(unit)))
		case 3:
			pre = time.Duration(1+src.Intn(4)) * unit
		}
		if got, want := run(items, pre), model(items, pre); got != want {
			t.Fatalf("seed %d (n=%d P=%v):\nplayer %+v\nmodel  %+v", seed, n, pre, got, want)
		}
	}
}

// TestPlayerAddAllocatesNothing is Add's budget: once the pending buffer has
// grown to a session's pre-buffer, a whole session on a reused Player
// allocates nothing.
func TestPlayerAddAllocatesNothing(t *testing.T) {
	items := jittered(200, 40*time.Millisecond, func() time.Duration { return 0 })
	var p Player
	session := func() {
		p.Reset(time.Second)
		for _, it := range items {
			p.Add(it.arr, it.dur)
		}
		if p.Result().Played != len(items) {
			t.Fatal("smooth stream dropped items")
		}
	}
	session()
	if allocs := testing.AllocsPerRun(20, session); allocs != 0 {
		t.Errorf("a %d-item session allocates %.0f times, want 0", len(items), allocs)
	}
}

func TestEmptyInput(t *testing.T) {
	testutil.CheckGoroutines(t)
	if r := run(nil, 0); r != (Result{}) {
		t.Fatalf("empty result = %+v", r)
	}
}

func TestSmoothStreamNoBufferNoStall(t *testing.T) {
	testutil.CheckGoroutines(t)
	r := run(regular(100, 40*time.Millisecond), 0)
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
	r0 := run(items, 0)
	r1 := run(items, time.Second)
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
	items := jittered(200, 40*time.Millisecond, func() time.Duration {
		return time.Duration(src.Exp(float64(120 * time.Millisecond)))
	})
	r0 := run(items, 0)
	r1 := run(items, 2*time.Second)
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
	// The last item arrives 3 s late: its slot is [9s, 10s), it arrives
	// at 12s.
	items[9].arr = 12 * time.Second
	r := run(items, 0)
	if r.Dropped != 1 || r.Played != 9 {
		t.Fatalf("played=%d dropped=%d", r.Played, r.Dropped)
	}
	if r.StallRatio != 0.1 {
		t.Fatalf("stall ratio = %v, want 0.1 (1 of 10 seconds missing)", r.StallRatio)
	}
}

func TestShortBroadcastSmallerThanPreBuffer(t *testing.T) {
	testutil.CheckGoroutines(t)
	items := regular(3, time.Second) // 3 s of content, 9 s pre-buffer
	r := run(items, 9*time.Second)
	if r.Played != 3 || r.Dropped != 0 {
		t.Fatalf("short broadcast: played=%d dropped=%d", r.Played, r.Dropped)
	}
	if r.Start != items[2].arr {
		t.Fatalf("Start = %v, want the last arrival", r.Start)
	}
}

func TestPaperTradeoffMonotonicity(t *testing.T) {
	testutil.CheckGoroutines(t)
	// The §6 claim in miniature: larger P monotonically lowers stalls
	// and raises delay on a jittery chunk stream.
	src := rng.New(11)
	items := jittered(120, 3*time.Second, func() time.Duration {
		return time.Duration((src.Float64() - 0.2) * float64(4*time.Second))
	})
	var sweep []Result
	for _, p := range []time.Duration{0, 3 * time.Second, 6 * time.Second, 9 * time.Second} {
		sweep = append(sweep, run(items, p))
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
	r := run(regular(50, 40*time.Millisecond), 500*time.Millisecond)
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
		i := 0
		items := jittered(len(arrivalOffsets), time.Second, func() time.Duration {
			i++
			return time.Duration(arrivalOffsets[i-1]) * time.Millisecond
		})
		r := run(items, time.Duration(preBufferMs)*time.Millisecond)
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
		items := jittered(60, time.Second, func() time.Duration {
			return time.Duration(src.Exp(float64(time.Second)))
		})
		prev := 2.0
		for _, p := range []time.Duration{0, time.Second, 3 * time.Second, 9 * time.Second} {
			r := run(items, p)
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
