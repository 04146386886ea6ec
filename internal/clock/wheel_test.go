package clock

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWheelStartsAtEpoch(t *testing.T) {
	w := NewWheel(WheelConfig{})
	if !w.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", w.Now(), Epoch)
	}
}

func TestWheelFiresInTickOrder(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: 10 * time.Millisecond})
	var got []time.Duration
	for _, d := range []time.Duration{50 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond} {
		d := d
		w.Schedule(1, d, func(now time.Time) { got = append(got, now.Sub(Epoch)) })
	}
	w.Run()
	want := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("fired %d timers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWheelRoundsUpToResolution(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: 10 * time.Millisecond})
	var at time.Time
	w.Schedule(1, 14*time.Millisecond, func(now time.Time) { at = now })
	w.Run()
	if want := Epoch.Add(20 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("fired at %v, want %v (rounded up)", at, want)
	}
}

func TestWheelOverflowBeyondWindow(t *testing.T) {
	// 64 slots × 10 ms = 640 ms window: far timers must take the
	// overflow heap and still fire at the right time.
	w := NewWheel(WheelConfig{Resolution: 10 * time.Millisecond, Slots: 64})
	var order []string
	w.Schedule(1, 5*time.Second, func(time.Time) { order = append(order, "far") })
	w.Schedule(1, 100*time.Millisecond, func(time.Time) { order = append(order, "near") })
	if got := w.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	end := w.Run()
	if want := Epoch.Add(5 * time.Second); !end.Equal(want) {
		t.Fatalf("Run ended at %v, want %v", end, want)
	}
	if len(order) != 2 || order[0] != "near" || order[1] != "far" {
		t.Fatalf("fire order = %v", order)
	}
}

func TestWheelSameTickFIFOAcrossOwners(t *testing.T) {
	// 64 slots × 1 ms: the 5 ms timers sit in a bucket, the 200 ms ones in
	// the overflow heap. Every timer has its own owner key; the wheel must
	// ignore it and fire each tick in schedule order.
	w := NewWheel(WheelConfig{Resolution: time.Millisecond, Slots: 64})
	var got []int
	for i := 0; i < 200; i++ {
		i := i
		d := 5 * time.Millisecond
		if i%2 == 1 {
			d = 200 * time.Millisecond
		}
		w.Schedule(uint64(i)*0x9e3779b97f4a7c15, d, func(time.Time) { got = append(got, i) })
	}
	w.Run()
	if len(got) != 200 {
		t.Fatalf("fired %d, want 200", len(got))
	}
	for k, v := range got {
		// Evens (tick 5) in schedule order, then odds (tick 200) likewise.
		want := 2 * k
		if k >= 100 {
			want = 2*(k-100) + 1
		}
		if v != want {
			t.Fatalf("fire %d was timer %d, want %d (schedule order across owners)", k, v, want)
		}
	}
}

func TestWheelStop(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: 10 * time.Millisecond, Slots: 64})
	fired := 0
	near := w.Schedule(1, 50*time.Millisecond, func(time.Time) { fired++ })
	far := w.Schedule(1, time.Minute, func(time.Time) { fired++ })
	keep := w.Schedule(1, 70*time.Millisecond, func(time.Time) { fired++ })
	if !near.Stop() || !far.Stop() {
		t.Fatal("Stop on pending timers returned false")
	}
	if near.Stop() {
		t.Fatal("second Stop returned true")
	}
	w.Run()
	if fired != 1 {
		t.Fatalf("fired %d callbacks, want 1 (only keep)", fired)
	}
	if keep.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestWheelReset(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: 10 * time.Millisecond})
	var at time.Time
	tm := w.Schedule(1, 20*time.Millisecond, func(now time.Time) { at = now })
	if !tm.Reset(200 * time.Millisecond) {
		t.Fatal("Reset on pending timer returned false")
	}
	w.Run()
	if want := Epoch.Add(200 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset after firing returned true")
	}
}

func TestWheelZeroTimerHandle(t *testing.T) {
	var tm Timer
	if tm.Stop() || tm.Reset(time.Second) {
		t.Fatal("zero Timer must be inert")
	}
}

func TestWheelNodePoolingReuses(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: time.Millisecond})
	// Warm one node, then measure steady-state schedule+fire cycles.
	w.Schedule(1, time.Millisecond, func(time.Time) {})
	w.Run()
	allocs := testing.AllocsPerRun(100, func() {
		w.Schedule(1, time.Millisecond, func(time.Time) {})
		w.Run()
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}

func TestWheelRescheduleFromCallback(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: 10 * time.Millisecond})
	var ticks []time.Duration
	var loop func(now time.Time)
	loop = func(now time.Time) {
		ticks = append(ticks, now.Sub(Epoch))
		if len(ticks) < 5 {
			w.Schedule(3, 30*time.Millisecond, loop)
		}
	}
	w.Schedule(3, 30*time.Millisecond, loop)
	w.Run()
	if len(ticks) != 5 {
		t.Fatalf("looped %d times, want 5", len(ticks))
	}
	for i, d := range ticks {
		if want := time.Duration(i+1) * 30 * time.Millisecond; d != want {
			t.Fatalf("iteration %d at +%v, want +%v", i, d, want)
		}
	}
}

func TestWheelRunUntilSetsNow(t *testing.T) {
	w := NewWheel(WheelConfig{})
	fired := false
	w.Schedule(1, time.Hour, func(time.Time) { fired = true })
	w.RunUntil(Epoch.Add(30 * time.Minute))
	if fired {
		t.Fatal("timer beyond the limit fired")
	}
	if want := Epoch.Add(30 * time.Minute); !w.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", w.Now(), want)
	}
	w.RunUntil(Epoch.Add(2 * time.Hour))
	if !fired {
		t.Fatal("timer within the limit did not fire")
	}
}

func TestWheelNowLockFreeDuringRun(t *testing.T) {
	// Foreign goroutines may read Now while callbacks fire; under -race
	// this checks the atomic-epoch claim.
	w := NewWheel(WheelConfig{Resolution: time.Millisecond})
	for owner := uint64(0); owner < 64; owner++ {
		for i := 0; i < 50; i++ {
			w.Schedule(owner, time.Duration(i)*time.Millisecond, func(time.Time) {})
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	for g := 0; g < 2; g++ {
		go func() {
			defer wg.Done()
			last := w.Now()
			for {
				select {
				case <-done:
					return
				default:
				}
				now := w.Now()
				if now.Before(last) {
					t.Error("Now went backwards")
					return
				}
				last = now
			}
		}()
	}
	w.Run()
	close(done)
	wg.Wait()
}

func TestWheelSleepAndAfter(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: 10 * time.Millisecond})
	ch := w.After(50 * time.Millisecond)
	go w.Advance(time.Second)
	at := <-ch
	if want := Epoch.Add(50 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("After delivered %v, want %v", at, want)
	}
}

func TestWheelSleepCancellation(t *testing.T) {
	w := NewWheel(WheelConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Sleep(ctx, time.Hour); err != context.Canceled {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	// The cancelled sleeper must take its wake-up timer with it.
	if got := w.Pending(); got != 0 {
		t.Fatalf("Pending = %d after a cancelled Sleep, want 0", got)
	}
	if end := w.Run(); !end.Equal(Epoch) {
		t.Fatalf("Run ended at %v, want the pre-sleep time %v", end, Epoch)
	}
}

// TestWheelForeignScheduleStopDuringRun hammers Schedule, Stop and Reset from
// foreign goroutines while another goroutine drives the wheel; under -race it
// checks that the one mutex covers every path. Each timer must end up exactly
// one of fired or stopped.
func TestWheelForeignScheduleStopDuringRun(t *testing.T) {
	w := NewWheel(WheelConfig{Resolution: time.Millisecond, Slots: 64})
	const workers, perWorker = 4, 2000
	var fired, stopped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Delays straddle the 64 ms bucket window, so both the
				// ring and the overflow heap see foreign traffic.
				d := time.Duration((g*31+i)%150) * time.Millisecond
				tm := w.Schedule(uint64(g), d, func(time.Time) { fired.Add(1) })
				switch i % 3 {
				case 0:
					if tm.Stop() {
						stopped.Add(1)
					}
				case 1:
					tm.Reset(d / 2)
				}
			}
		}(g)
	}
	driven := make(chan struct{})
	go func() {
		defer close(driven)
		for i := 0; i < 200; i++ {
			w.Advance(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-driven
	w.Run() // drain whatever the bounded drive left behind
	if got := fired.Load() + stopped.Load(); got != workers*perWorker {
		t.Fatalf("fired %d + stopped %d = %d, want %d", fired.Load(), stopped.Load(), got, workers*perWorker)
	}
	if w.Pending() != 0 {
		t.Fatalf("Pending = %d after the drain, want 0", w.Pending())
	}
	if w.Fired() != fired.Load() {
		t.Fatalf("Fired() = %d, callbacks ran %d", w.Fired(), fired.Load())
	}
}

// firing is one observed callback dispatch, for equivalence comparison.
type firing struct {
	owner uint64
	id    int
	at    time.Duration
}

// schedHarness adapts Wheel and Virtual to one scheduling surface so the
// same randomized workload can drive both.
type schedHarness struct {
	schedule func(owner uint64, d time.Duration, fn func(time.Time)) Timer
	run      func()
}

// TestWheelVirtualEquivalence drives an identical randomized timer workload
// — schedules from callbacks, stops, resets, near and far deadlines, all at
// resolution multiples — through the Virtual heap and through the wheel, and
// requires the two global firing sequences (owner, id, timestamp) to be
// identical: the wheel's (tick, schedule order) is Virtual's (time, seq).
// This is the contract that lets internal/viewersim treat the two schedulers
// as interchangeable.
func TestWheelVirtualEquivalence(t *testing.T) {
	const res = 10 * time.Millisecond
	lcg := func(state *uint64, n int) int {
		*state = *state*6364136223846793005 + 1442695040888963407
		return int((*state >> 33) % uint64(n))
	}
	type ownerState struct {
		state  uint64
		nextID int
	}
	workload := func(h schedHarness) []firing {
		const owners = 16
		var fired []firing
		var tick func(o *ownerState, idx uint64) func(time.Time)
		tick = func(o *ownerState, idx uint64) func(time.Time) {
			id := o.nextID
			o.nextID++
			return func(now time.Time) {
				fired = append(fired, firing{idx, id, now.Sub(Epoch)})
				if lcg(&o.state, 100) < 40 {
					h.schedule(idx, time.Duration(1+lcg(&o.state, 200))*res, tick(o, idx))
				}
			}
		}
		setup := uint64(0x9e3779b97f4a7c15)
		for owner := uint64(0); owner < owners; owner++ {
			o := &ownerState{state: owner*0x9e3779b9 + 1}
			var cancels []Timer
			for i := 0; i < 30; i++ {
				d := time.Duration(1+lcg(&setup, 1000)) * res // spans bucket window and overflow
				tm := h.schedule(owner, d, tick(o, owner))
				if lcg(&setup, 100) < 20 {
					cancels = append(cancels, tm)
				} else if lcg(&setup, 100) < 10 {
					tm.Reset(time.Duration(1+lcg(&setup, 500)) * res)
				}
			}
			for _, tm := range cancels {
				tm.Stop()
			}
		}
		h.run()
		return fired
	}

	v := NewVirtual(time.Time{})
	want := workload(schedHarness{
		schedule: func(owner uint64, d time.Duration, fn func(time.Time)) Timer {
			return v.Schedule(d, fn)
		},
		run: func() { v.Run() },
	})
	w := NewWheel(WheelConfig{Resolution: res, Slots: 128})
	got := workload(schedHarness{schedule: w.Schedule, run: func() { w.Run() }})

	if len(got) != len(want) {
		t.Fatalf("%d firings, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestWheelEquivalenceFuzzSeeds runs a smaller version of the equivalence
// workload across several seeds, comparing the multiset of (owner, time)
// firings between Virtual and the wheel.
func TestWheelEquivalenceFuzzSeeds(t *testing.T) {
	const res = 10 * time.Millisecond
	run := func(seed uint64, h schedHarness) []string {
		var mu sync.Mutex
		var fired []string
		state := seed
		rnd := func(n int) int {
			state = state*6364136223846793005 + 1442695040888963407
			return int((state >> 33) % uint64(n))
		}
		for owner := uint64(0); owner < 8; owner++ {
			owner := owner
			for i := 0; i < 40; i++ {
				i := i
				h.schedule(owner, time.Duration(1+rnd(300))*res, func(now time.Time) {
					mu.Lock()
					fired = append(fired, fmt.Sprintf("%d/%d@%v", owner, i, now.Sub(Epoch)))
					mu.Unlock()
				})
			}
		}
		h.run()
		sort.Strings(fired)
		return fired
	}
	for seed := uint64(1); seed <= 5; seed++ {
		v := NewVirtual(time.Time{})
		ref := run(seed, schedHarness{
			schedule: func(o uint64, d time.Duration, fn func(time.Time)) Timer { return v.Schedule(d, fn) },
			run:      func() { v.Run() },
		})
		w := NewWheel(WheelConfig{Resolution: res, Slots: 64})
		got := run(seed, schedHarness{schedule: w.Schedule, run: func() { w.Run() }})
		w.Close()
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d firings vs %d", seed, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d firing %d: %s vs %s", seed, i, got[i], ref[i])
			}
		}
	}
}

func TestVirtualTimerStopReset(t *testing.T) {
	v := NewVirtual(time.Time{})
	fired := 0
	a := v.Schedule(time.Second, func(time.Time) { fired++ })
	b := v.Schedule(2*time.Second, func(time.Time) { fired++ })
	c := v.Schedule(3*time.Second, func(time.Time) { fired++ })
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
	if want := v.Now(); !end.Equal(want) {
		t.Fatalf("Run returned %v, want %v", end, want)
	}
	if want := Epoch.Add(5 * time.Second); !v.Now().Equal(want) {
		t.Fatalf("final time %v, want %v (reset deadline)", v.Now(), want)
	}
	if c.Stop() || b.Reset(time.Second) {
		t.Fatal("handles must be dead after firing")
	}
}

func TestVirtualPooledNodesAreGenerationSafe(t *testing.T) {
	v := NewVirtual(time.Time{})
	first := v.Schedule(time.Second, func(time.Time) {})
	v.Run()
	// The node is back on the freelist; this schedule reuses it.
	reused := v.Schedule(time.Second, func(time.Time) {})
	if first.Stop() {
		t.Fatal("stale handle stopped a reused node")
	}
	if !reused.Stop() {
		t.Fatal("fresh handle failed to stop")
	}
	if v.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", v.Pending())
	}
}

func TestVirtualScheduleSteadyStateAllocs(t *testing.T) {
	v := NewVirtual(time.Time{})
	v.Schedule(time.Millisecond, func(time.Time) {})
	v.Run()
	allocs := testing.AllocsPerRun(100, func() {
		v.Schedule(time.Millisecond, func(time.Time) {})
		v.Run()
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state Virtual schedule+fire allocates %.1f objects/op, want 0", allocs)
	}
}
