package clock

import (
	"context"
	"math"
	"slices"
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

// entryPoints schedules through each way into the wheel, d from now: a func
// through Schedule, and a pointer event through ScheduleEventAt. Both take
// the one insert path, so every budget and order holds for either.
var entryPoints = []struct {
	name     string
	schedule func(w *Wheel, d time.Duration, fn func(time.Time), ev Event) Timer
}{
	{"Schedule", func(w *Wheel, d time.Duration, fn func(time.Time), _ Event) Timer { return w.Schedule(0, d, fn) }},
	{"ScheduleEventAt", func(w *Wheel, d time.Duration, _ func(time.Time), ev Event) Timer {
		return w.ScheduleEventAt(w.Now().Add(d), ev)
	}},
}

// TestWheelScheduleAllocBudget pins what a growing pool costs: N timers
// pending on a fresh wheel take ⌈N/nodeSlab⌉ allocations, one node slab per
// nodeSlab free-list misses, through either entry point. (Deadlines stay
// inside the ring, so the overflow heap's own slice never grows.)
func TestWheelScheduleAllocBudget(t *testing.T) {
	fn := func(time.Time) {}
	ev := &funcEvent{fn}
	for _, ep := range entryPoints {
		fresh := func(n int) float64 {
			return testing.AllocsPerRun(20, func() {
				w := NewWheel(WheelConfig{})
				for i := 0; i < n; i++ {
					ep.schedule(w, time.Duration(i)*time.Millisecond, fn, ev)
				}
			})
		}
		wheel := fresh(0)
		for _, n := range []int{1, nodeSlab - 1, nodeSlab, nodeSlab + 1, 5*nodeSlab + 3} {
			if got, want := fresh(n)-wheel, float64((n+nodeSlab-1)/nodeSlab); got != want {
				t.Errorf("%s: %d timers on a fresh wheel allocate %.0f times, want %.0f", ep.name, n, got, want)
			}
		}
	}
}

// TestWheelEventAllocBudget pins the conversions into the wheel's Event: on a
// warm node pool, scheduling a pointer event through ScheduleEventAt and a
// func that captures state through Schedule each allocate nothing. Both are
// pointer-shaped, so the interface holds them as they are.
func TestWheelEventAllocBudget(t *testing.T) {
	const timers = 2 * nodeSlab
	fired := 0
	fn := func(time.Time) { fired++ } // a closure, not a static func
	ev := &funcEvent{fn}
	for _, ep := range entryPoints {
		w := NewWheel(WheelConfig{Resolution: time.Millisecond})
		cycle := func() {
			for i := 0; i < timers; i++ {
				ep.schedule(w, time.Duration(i%7)*time.Millisecond, fn, ev)
			}
			w.Run()
		}
		cycle() // grow the node pool and the batch buffer
		before := fired
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%s: %d timers on a warm pool allocate %.2f times per cycle, want 0", ep.name, timers, allocs)
		}
		if got, want := fired-before, 21*timers; got != want {
			t.Errorf("%s: %d events fired, want %d", ep.name, got, want)
		}
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

// model is the specification the wheel is checked against, sharing no code
// with it: one pending list kept in (deadline tick, schedule seq) order, with
// no ring, no heap and no pooling. A fired or stopped timer is simply gone.
type model struct {
	res     time.Duration
	now     int64 // ticks since Epoch
	pending []*modelTimer
}

type modelTimer struct {
	tick int64
	fn   func(now time.Time)
}

// insert files t at its deadline tick, after every timer already due then:
// a later schedule has a larger seq.
func (m *model) insert(t *modelTimer, d time.Duration) {
	t.tick = m.now + int64((max(d, 0)+m.res-1)/m.res)
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].tick > t.tick })
	m.pending = slices.Insert(m.pending, i, t)
}

// detach removes t if it is still pending and reports whether it was.
func (m *model) detach(t *modelTimer) bool {
	i := slices.Index(m.pending, t)
	if i < 0 {
		return false
	}
	m.pending = slices.Delete(m.pending, i, i+1)
	return true
}

func (m *model) schedule(d time.Duration, fn func(time.Time)) handle {
	t := &modelTimer{fn: fn}
	m.insert(t, d)
	return handle{
		stop: func() bool { return m.detach(t) },
		reset: func(d time.Duration) bool {
			ok := m.detach(t)
			if ok {
				m.insert(t, d)
			}
			return ok
		},
	}
}

// runUntil fires tick by tick up to limit, detaching each tick's timers
// before the first of them runs.
func (m *model) runUntil(limit int64) {
	for len(m.pending) > 0 && m.pending[0].tick <= limit {
		m.now = m.pending[0].tick
		n := 1
		for n < len(m.pending) && m.pending[n].tick == m.now {
			n++
		}
		batch := slices.Clone(m.pending[:n])
		m.pending = slices.Delete(m.pending, 0, n)
		for _, t := range batch {
			t.fn(Epoch.Add(time.Duration(m.now) * m.res))
		}
	}
}

// funcEvent is a pointer event around a callback, the form the
// ScheduleEventAt entry point takes in these tests.
type funcEvent struct{ fn func(time.Time) }

func (e *funcEvent) Fire(now time.Time) { e.fn(now) }

// handle is a timer handle either scheduler hands out.
type handle struct {
	stop  func() bool
	reset func(d time.Duration) bool
}

// harness is the scheduling surface the model workload drives.
type harness struct {
	schedule func(d time.Duration, fn func(time.Time)) handle
	advance  func(d time.Duration) time.Time
	run      func()
}

// traced is one observation: a firing (op 'f' at the given offset), the
// clock after an Advance ('a'), or the result of a Stop ('s') or Reset ('r').
type traced struct {
	op byte
	id int
	at time.Duration
	ok bool
}

// modelWorkload drives a seeded timer workload and returns what it saw.
// Deadlines, some off the tick grid, reach from the current tick to far past
// the ring, so most timers start in the overflow heap. Stops and Resets hit
// random handles, pending or not, from outside and from callbacks, and
// callbacks schedule more timers, some due in their own tick.
func modelWorkload(seed uint64, res time.Duration, h harness) []traced {
	state := seed
	rnd := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	var trace []traced
	var handles []handle
	poke := func() {
		id := rnd(len(handles))
		d := time.Duration(rnd(8000)) * res / 10
		if rnd(2) == 0 {
			trace = append(trace, traced{op: 's', id: id, ok: handles[id].stop()})
		} else {
			trace = append(trace, traced{op: 'r', id: id, ok: handles[id].reset(d)})
		}
	}
	var add func(d time.Duration)
	add = func(d time.Duration) {
		id := len(handles)
		handles = append(handles, h.schedule(d, func(now time.Time) {
			trace = append(trace, traced{op: 'f', id: id, at: now.Sub(Epoch)})
			switch r := rnd(100); {
			case r < 30:
				add(time.Duration(rnd(3000)) * res / 10)
			case r < 50:
				poke()
			}
		}))
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 60; i++ {
			add(time.Duration(rnd(10000)) * res / 10)
		}
		for i := 0; i < 30; i++ {
			poke()
		}
		now := h.advance(time.Duration(rnd(4000)) * res / 10)
		trace = append(trace, traced{op: 'a', at: now.Sub(Epoch)})
	}
	h.run()
	return trace
}

// matchModel runs the seeded workload through a wheel of the given tick
// width and ring size and through the model, and requires the two traces to
// be identical: the same timers fire at the same times in the same order,
// and every Stop and Reset gets the same answer. On the wheel, each timer
// goes in through Schedule (a func) or ScheduleEventAt (a pointer event),
// drawn per timer from the seed, so the one order holds across both.
func matchModel(t *testing.T, seed uint64, res time.Duration, slots int) {
	t.Helper()
	m := &model{res: res}
	want := modelWorkload(seed, res, harness{
		schedule: m.schedule,
		advance: func(d time.Duration) time.Time {
			limit := m.now + int64(d/res)
			m.runUntil(limit)
			m.now = limit
			return Epoch.Add(time.Duration(limit) * res)
		},
		run: func() { m.runUntil(math.MaxInt64) },
	})
	w := NewWheel(WheelConfig{Resolution: res, Slots: slots})
	// Each timer takes one of the two entry points, drawn from its own
	// stream of the seed so the workload's draws are the model's.
	pick := seed
	got := modelWorkload(seed, res, harness{
		schedule: func(d time.Duration, fn func(time.Time)) handle {
			pick = pick*6364136223846793005 + 1442695040888963407
			ep := entryPoints[pick>>63]
			tm := ep.schedule(w, d, fn, &funcEvent{fn})
			return handle{stop: tm.Stop, reset: tm.Reset}
		},
		advance: w.Advance,
		run:     func() { w.Run() },
	})
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("res %v, seed %d, observation %d: wheel %+v, model %+v", res, seed, i, got[i], want[i])
			}
		}
		t.Fatalf("res %v, seed %d: wheel made %d observations, model %d", res, seed, len(got), len(want))
	}
	if w.Pending() != 0 || len(m.pending) != 0 {
		t.Fatalf("res %v, seed %d: %d wheel and %d model timers left after Run", res, seed, w.Pending(), len(m.pending))
	}
}

// TestWheelVirtualEquivalence holds the wheel to the model at a 1 ns
// resolution, the exact virtual time viewersim's goroutine reference engine
// runs on: every deadline is on a tick and, beyond the ring, every timer
// waits in the overflow heap. 200 seeds, half with a 64-slot ring and half
// with 128.
func TestWheelVirtualEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		matchModel(t, seed, time.Nanosecond, 64<<(seed%2))
	}
}

// TestWheelEquivalenceFuzzSeeds holds the default 10 ms wheel to the model
// over 200 seeds, half with a 64-slot ring and half with 128.
func TestWheelEquivalenceFuzzSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		matchModel(t, seed, 10*time.Millisecond, 64<<(seed%2))
	}
}
