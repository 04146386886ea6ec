package clock

import (
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual(time.Time{})
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualCustomEpoch(t *testing.T) {
	e := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	v := NewVirtual(e)
	if !v.Now().Equal(e) {
		t.Fatalf("Now() = %v, want %v", v.Now(), e)
	}
}

func TestVirtualScheduleOrdering(t *testing.T) {
	v := NewVirtual(time.Time{})
	var got []int
	v.Schedule(3*time.Second, func(time.Time) { got = append(got, 3) })
	v.Schedule(1*time.Second, func(time.Time) { got = append(got, 1) })
	v.Schedule(2*time.Second, func(time.Time) { got = append(got, 2) })
	v.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestVirtualEqualTimesFIFO(t *testing.T) {
	v := NewVirtual(time.Time{})
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		v.Schedule(time.Second, func(time.Time) { got = append(got, i) })
	}
	v.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events out of schedule order: %v", got)
		}
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	v := NewVirtual(time.Time{})
	var fired int
	var recur func(now time.Time)
	recur = func(now time.Time) {
		fired++
		if fired < 5 {
			v.Schedule(time.Second, recur)
		}
	}
	v.Schedule(time.Second, recur)
	end := v.Run()
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if want := Epoch.Add(5 * time.Second); !end.Equal(want) {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestVirtualRunUntil(t *testing.T) {
	v := NewVirtual(time.Time{})
	var fired []int
	v.Schedule(1*time.Second, func(time.Time) { fired = append(fired, 1) })
	v.Schedule(5*time.Second, func(time.Time) { fired = append(fired, 5) })
	v.RunUntil(Epoch.Add(2 * time.Second))
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if got := v.Now(); !got.Equal(Epoch.Add(2 * time.Second)) {
		t.Fatalf("Now() = %v, want epoch+2s", got)
	}
	if v.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", v.Pending())
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	count := 0
	v.Schedule(time.Second, func(time.Time) { count++ })
	v.Schedule(3*time.Second, func(time.Time) { count++ })
	now := v.Advance(2 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if !now.Equal(Epoch.Add(2 * time.Second)) {
		t.Fatalf("now = %v", now)
	}
}

func TestVirtualScheduleAtPast(t *testing.T) {
	v := NewVirtual(time.Time{})
	v.Advance(10 * time.Second)
	ran := false
	v.ScheduleAt(Epoch, func(now time.Time) {
		ran = true
		if now.Before(Epoch.Add(10 * time.Second)) {
			t.Errorf("past event ran at %v, before current time", now)
		}
	})
	v.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestVirtualNegativeDelay(t *testing.T) {
	v := NewVirtual(time.Time{})
	ran := false
	v.Schedule(-time.Second, func(time.Time) { ran = true })
	v.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
	if !v.Now().Equal(Epoch) {
		t.Fatalf("clock moved backwards: %v", v.Now())
	}
}

func TestVirtualSleepFromOtherGoroutine(t *testing.T) {
	v := NewVirtual(time.Time{})
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		errCh <- v.Sleep(context.Background(), 5*time.Second)
	}()
	// Drive the clock until the sleeper's wakeup is queued and executed.
	for v.Pending() == 0 {
		time.Sleep(time.Millisecond)
	}
	v.Run()
	wg.Wait()
	if err := <-errCh; err != nil {
		t.Fatalf("Sleep returned %v", err)
	}
}

func TestVirtualSleepCancellation(t *testing.T) {
	v := NewVirtual(time.Time{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := v.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	// The cancelled sleeper must take its wake-up timer with it.
	if got := v.Pending(); got != 0 {
		t.Fatalf("Pending = %d after a cancelled Sleep, want 0", got)
	}
	if end := v.Run(); !end.Equal(Epoch) {
		t.Fatalf("Run ended at %v, want the pre-sleep time %v", end, Epoch)
	}
}

func TestVirtualAfter(t *testing.T) {
	v := NewVirtual(time.Time{})
	ch := v.After(3 * time.Second)
	v.Run()
	select {
	case now := <-ch:
		if !now.Equal(Epoch.Add(3 * time.Second)) {
			t.Fatalf("After delivered %v", now)
		}
	default:
		t.Fatal("After channel empty after Run")
	}
}

func TestRealSleepRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Real{}
	if err := r.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
}

func TestRealSleepZero(t *testing.T) {
	r := Real{}
	if err := r.Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(0) = %v", err)
	}
}

func TestRealNowAdvances(t *testing.T) {
	r := Real{}
	a := r.Now()
	time.Sleep(time.Millisecond)
	if !r.Now().After(a) {
		t.Fatal("real clock did not advance")
	}
}

// Property: for any set of non-negative delays, events execute in
// non-decreasing timestamp order and the clock never runs backwards.
func TestVirtualMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		v := NewVirtual(time.Time{})
		var times []time.Time
		for _, d := range delays {
			v.Schedule(time.Duration(d)*time.Millisecond, func(now time.Time) {
				times = append(times, now)
			})
		}
		v.Run()
		if len(times) != len(delays) {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i].Before(times[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Advance by the sum of parts equals advancing once by the total.
func TestVirtualAdvanceAdditiveProperty(t *testing.T) {
	f := func(parts []uint8) bool {
		v1 := NewVirtual(time.Time{})
		v2 := NewVirtual(time.Time{})
		var total time.Duration
		for _, p := range parts {
			d := time.Duration(p) * time.Millisecond
			total += d
			v1.Advance(d)
		}
		v2.Advance(total)
		return v1.Now().Equal(v2.Now())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
