package clock

import (
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// The TestVirtual tests hold the wheel to the exact virtual-time contract.
// At a 1 ns resolution every deadline is on a tick and, beyond the 512 ns
// ring, every timer waits in the overflow heap: this is the configuration
// viewersim's goroutine reference engine runs on. Where a behaviour also
// depends on the tick width, the test runs it on a default 10 ms wheel too;
// wheel_test.go covers the ring itself.

// exact returns a wheel at a 1 ns resolution.
func exact(epoch time.Time) *Wheel {
	return NewWheel(WheelConfig{Epoch: epoch, Resolution: time.Nanosecond})
}

// resolutions are the tick widths the width-dependent tests run at.
var resolutions = []time.Duration{time.Nanosecond, 10 * time.Millisecond}

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := exact(time.Time{})
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualCustomEpoch(t *testing.T) {
	e := time.Date(2020, 1, 2, 3, 4, 5, 0, time.UTC)
	v := exact(e)
	if !v.Now().Equal(e) {
		t.Fatalf("Now() = %v, want %v", v.Now(), e)
	}
}

func TestVirtualScheduleOrdering(t *testing.T) {
	v := exact(time.Time{})
	var got []int
	v.Schedule(0, 3*time.Second, func(time.Time) { got = append(got, 3) })
	v.Schedule(0, 1*time.Second, func(time.Time) { got = append(got, 1) })
	v.Schedule(0, 2*time.Second, func(time.Time) { got = append(got, 2) })
	v.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestVirtualEqualTimesFIFO(t *testing.T) {
	v := exact(time.Time{})
	var got []int
	for i := 0; i < 10; i++ {
		v.Schedule(0, time.Second, func(time.Time) { got = append(got, i) })
	}
	v.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events out of schedule order: %v", got)
		}
	}
}

func TestVirtualNestedScheduling(t *testing.T) {
	v := exact(time.Time{})
	var fired int
	var recur func(now time.Time)
	recur = func(now time.Time) {
		fired++
		if fired < 5 {
			v.Schedule(0, time.Second, recur)
		}
	}
	v.Schedule(0, time.Second, recur)
	end := v.Run()
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if want := Epoch.Add(5 * time.Second); !end.Equal(want) {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestVirtualRunUntil(t *testing.T) {
	v := exact(time.Time{})
	var fired []int
	v.Schedule(0, 1*time.Second, func(time.Time) { fired = append(fired, 1) })
	v.Schedule(0, 5*time.Second, func(time.Time) { fired = append(fired, 5) })
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
	v := exact(time.Time{})
	count := 0
	v.Schedule(0, time.Second, func(time.Time) { count++ })
	v.Schedule(0, 3*time.Second, func(time.Time) { count++ })
	now := v.Advance(2 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if !now.Equal(Epoch.Add(2 * time.Second)) {
		t.Fatalf("now = %v", now)
	}
}

// A deadline in the past fires at the current tick, not back in time.
func TestVirtualScheduleAtPast(t *testing.T) {
	for _, res := range resolutions {
		v := NewWheel(WheelConfig{Resolution: res})
		v.Advance(10 * time.Second)
		var at time.Time
		v.ScheduleAt(0, Epoch, func(now time.Time) { at = now })
		v.Run()
		if want := Epoch.Add(10 * time.Second); !at.Equal(want) {
			t.Fatalf("resolution %v: past event ran at %v, want the current time %v", res, at, want)
		}
	}
}

func TestVirtualNegativeDelay(t *testing.T) {
	for _, res := range resolutions {
		v := NewWheel(WheelConfig{Resolution: res})
		ran := false
		v.Schedule(0, -time.Second, func(time.Time) { ran = true })
		v.Run()
		if !ran {
			t.Fatalf("resolution %v: negative-delay event never ran", res)
		}
		if !v.Now().Equal(Epoch) {
			t.Fatalf("resolution %v: clock moved backwards: %v", res, v.Now())
		}
	}
}

func TestVirtualSleepFromOtherGoroutine(t *testing.T) {
	for _, res := range resolutions {
		v := NewWheel(WheelConfig{Resolution: res})
		var wg sync.WaitGroup
		wg.Add(1)
		errCh := make(chan error, 1)
		go func() {
			defer wg.Done()
			errCh <- v.Sleep(context.Background(), 5*time.Second)
		}()
		// Drive the clock once the sleeper's wakeup is queued.
		for v.Pending() == 0 {
			time.Sleep(time.Millisecond)
		}
		end := v.Run()
		wg.Wait()
		if err := <-errCh; err != nil {
			t.Fatalf("resolution %v: Sleep returned %v", res, err)
		}
		if want := Epoch.Add(5 * time.Second); !end.Equal(want) {
			t.Fatalf("resolution %v: sleeper woke at %v, want %v", res, end, want)
		}
	}
}

func TestVirtualSleepCancellation(t *testing.T) {
	v := exact(time.Time{})
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
	v := exact(time.Time{})
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

func TestVirtualTimerStopReset(t *testing.T) {
	v := exact(time.Time{})
	fired := 0
	a := v.Schedule(0, time.Second, func(time.Time) { fired++ })
	b := v.Schedule(0, 2*time.Second, func(time.Time) { fired++ })
	c := v.Schedule(0, 3*time.Second, func(time.Time) { fired++ })
	if !a.Stop() {
		t.Fatal("Stop pending returned false")
	}
	if a.Stop() {
		t.Fatal("double Stop returned true")
	}
	if !b.Reset(5 * time.Second) {
		t.Fatal("Reset pending returned false")
	}
	end := v.Run()
	if fired != 2 {
		t.Fatalf("fired %d, want 2", fired)
	}
	if want := Epoch.Add(5 * time.Second); !end.Equal(want) {
		t.Fatalf("Run ended at %v, want %v (reset deadline)", end, want)
	}
	if c.Stop() || b.Reset(time.Second) {
		t.Fatal("handles must be dead after firing")
	}
}

func TestVirtualPooledNodesAreGenerationSafe(t *testing.T) {
	v := exact(time.Time{})
	first := v.Schedule(0, time.Second, func(time.Time) {})
	v.Run()
	// The node is back on the freelist; this schedule reuses it.
	reused := v.Schedule(0, time.Second, func(time.Time) {})
	if first.Stop() || first.Reset(time.Minute) {
		t.Fatal("stale handle reached a reused node")
	}
	if !reused.Stop() {
		t.Fatal("fresh handle failed to stop")
	}
	if v.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", v.Pending())
	}
}

// Steady-state scheduling through the overflow heap allocates nothing, as
// TestWheelNodePoolingReuses checks for the ring.
func TestVirtualScheduleSteadyStateAllocs(t *testing.T) {
	v := exact(time.Time{})
	v.Schedule(0, time.Millisecond, func(time.Time) {})
	v.Run()
	allocs := testing.AllocsPerRun(100, func() {
		v.Schedule(0, time.Millisecond, func(time.Time) {})
		v.Run()
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state overflow schedule+fire allocates %.1f objects/op, want 0", allocs)
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
	for _, res := range resolutions {
		f := func(delays []uint16) bool {
			v := NewWheel(WheelConfig{Resolution: res})
			var times []time.Time
			for _, d := range delays {
				v.Schedule(0, time.Duration(d)*time.Millisecond, func(now time.Time) {
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
			t.Fatalf("resolution %v: %v", res, err)
		}
	}
}

// Property: advancing by whole ticks is additive — Advance by the parts
// lands where one Advance by their sum does. It holds only in multiples of
// Resolution, because each Advance rounds down to a tick.
func TestVirtualAdvanceAdditiveProperty(t *testing.T) {
	for _, res := range resolutions {
		f := func(parts []uint8) bool {
			v1 := NewWheel(WheelConfig{Resolution: res})
			v2 := NewWheel(WheelConfig{Resolution: res})
			var total time.Duration
			for _, p := range parts {
				d := time.Duration(p) * res
				total += d
				v1.Advance(d)
			}
			v2.Advance(total)
			return v1.Now().Equal(v2.Now()) && v1.Now().Equal(Epoch.Add(total))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("resolution %v: %v", res, err)
		}
	}
	// Below a tick it is not: two half-tick steps stay on tick 0.
	v := NewWheel(WheelConfig{})
	v.Advance(5 * time.Millisecond)
	if now := v.Advance(5 * time.Millisecond); !now.Equal(Epoch) {
		t.Fatalf("two 5 ms steps on a 10 ms wheel moved the clock to %v, want %v", now, Epoch)
	}
}
