package resilience

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// instant makes a policy that never sleeps on the real clock, recording the
// delays it would have waited.
func instant(p Policy, delays *[]time.Duration) Policy {
	var mu sync.Mutex
	p.Sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*delays = append(*delays, d)
		mu.Unlock()
		return ctx.Err()
	}
	return p
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var delays []time.Duration
	p := instant(Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, &delays)
	calls := 0
	err := Retry(context.Background(), p, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2", len(delays))
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	var delays []time.Duration
	p := instant(Policy{MaxAttempts: 4, BaseDelay: time.Millisecond}, &delays)
	calls := 0
	sentinel := errors.New("still down")
	err := Retry(context.Background(), p, func(context.Context) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if calls != 4 {
		t.Fatalf("calls = %d, want 4", calls)
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	var delays []time.Duration
	p := instant(Policy{MaxAttempts: 5}, &delays)
	calls := 0
	sentinel := errors.New("not found")
	err := Retry(context.Background(), p, func(context.Context) error {
		calls++
		return Permanent(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if IsPermanent(err) {
		t.Fatal("Permanent wrapper leaked to caller")
	}
}

func TestRetryHonoursContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
	err := Retry(ctx, p, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errors.New("transient")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestRetryDelaysGrowExponentiallyAndCap(t *testing.T) {
	p := Policy{
		MaxAttempts: 6,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Jitter:      -1, // disable for exact schedule
	}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		50 * time.Millisecond,
		50 * time.Millisecond,
	}
	for n, w := range want {
		if got := p.Delay(n); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", n, got, w)
		}
	}
	// Retry waits that same schedule, jitter still disabled.
	var slept []time.Duration
	_ = Retry(context.Background(), instant(p, &slept), func(context.Context) error { return errors.New("down") })
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("Retry slept %v, want %v", slept, want)
	}
}

func TestRetryJitterBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := p.Delay(0)
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 150ms]", d)
		}
	}
}

func TestRetryValue(t *testing.T) {
	var delays []time.Duration
	p := instant(Policy{MaxAttempts: 3}, &delays)
	calls := 0
	v, err := RetryValue(context.Background(), p, func(context.Context) (int, error) {
		calls++
		if calls < 2 {
			return 0, errors.New("transient")
		}
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("RetryValue = %d, %v", v, err)
	}
}

// attempt runs one request through b the way every breaker owner does: ask
// Allow, and if admitted Report the request's outcome.
func attempt(b *Breaker, outcome error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	b.Report(outcome)
	return outcome
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          time.Second,
		Now:              func() time.Time { return now },
	})
	boom := errors.New("boom")
	// Three consecutive failures trip the circuit.
	for i := 0; i < 3; i++ {
		if err := attempt(b, boom); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want open", b.State())
	}
	if err := attempt(b, nil); !errors.Is(err, ErrOpen) {
		t.Fatalf("open circuit admitted a call: %v", err)
	}

	// After the open window a probe is admitted; failure re-opens.
	now = now.Add(time.Second)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := attempt(b, boom); !errors.Is(err, boom) {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}

	// Next window: successful probe closes the circuit.
	now = now.Add(time.Second)
	if err := attempt(b, nil); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state after good probe = %v, want closed", b.State())
	}
	if err := attempt(b, nil); err != nil {
		t.Fatalf("closed circuit refused a call: %v", err)
	}
}

func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{
		FailureThreshold: 1,
		OpenFor:          time.Second,
		Now:              func() time.Time { return now },
	})
	attempt(b, errors.New("boom"))
	now = now.Add(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatal("second concurrent probe admitted")
	}
	b.Report(nil)
	if b.State() != Closed {
		t.Fatalf("state = %v", b.State())
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3})
	boom := errors.New("boom")
	for i := 0; i < 10; i++ {
		attempt(b, boom)
		attempt(b, boom)
		attempt(b, nil) // resets the streak
	}
	if b.State() != Closed {
		t.Fatalf("interleaved successes still tripped the breaker: %v", b.State())
	}
}

func TestSingleFlightCollapsesConcurrentCalls(t *testing.T) {
	var g Group[int]
	var executions atomic.Int64
	gate := make(chan struct{})
	const n = 50
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, _ := g.Do("key", func() (int, error) {
				executions.Add(1)
				<-gate
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let every goroutine reach Do before releasing the one execution: one
	// runs fn, the other n-1 wait inside Do.
	testutil.WaitParked(t, doFrame, n-1)
	close(gate)
	wg.Wait()
	if got := executions.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
	for i, v := range results {
		if v != 7 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

func TestSingleFlightDistinctKeysRunIndependently(t *testing.T) {
	var g Group[string]
	var wg sync.WaitGroup
	var executions atomic.Int64
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			v, err, _ := g.Do(k, func() (string, error) {
				executions.Add(1)
				return k, nil
			})
			if err != nil || v != k {
				t.Errorf("Do(%q) = %q, %v", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if executions.Load() != 3 {
		t.Fatalf("executions = %d, want 3", executions.Load())
	}
}

func TestSingleFlightErrorShared(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	_, err, _ := g.Do("k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The key is released after the call: a new Do executes again.
	v, err, _ := g.Do("k", func() (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("second Do = %d, %v", v, err)
	}
}

// doFrame is Group.Do's frame in a stack dump: a goroutine parked on it is a
// caller waiting for another's flight.
const doFrame = "repro/internal/resilience.(*Group[...]).Do"

// A flight whose fn panics releases its key and its waiters: the waiter gets
// an error, the panic goes on in the caller that ran fn, and the next Do for
// the key runs rather than blocking for good.
func TestSingleFlightPanicReleasesKey(t *testing.T) {
	var g Group[int]
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.Do("k", func() (int, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	waiter := make(chan error, 1)
	go func() {
		_, err, _ := g.Do("k", func() (int, error) { return 1, nil })
		waiter <- err
	}()
	testutil.WaitParked(t, doFrame, 1)
	close(release)
	if p := <-leader; p != "boom" {
		t.Fatalf("the leader recovered %v, want its own panic", p)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Error("the waiter of a panicked flight got no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter is still blocked on the panicked flight")
	}
	next := make(chan int, 1)
	go func() {
		v, _, _ := g.Do("k", func() (int, error) { return 2, nil })
		next <- v
	}()
	select {
	case v := <-next:
		if v != 2 {
			t.Errorf("the next Do for the key got %d, want its own 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the next Do for the key is blocked by the panicked flight")
	}
}

// An uncontended Do allocates nothing: its call record is the spare the last
// unshared call left, and no channel is made without a waiter.
func TestSingleFlightUncontendedAllocatesNothing(t *testing.T) {
	var g Group[int]
	fn := func() (int, error) { return 7, nil }
	g.Do("k", fn)
	if allocs := testing.AllocsPerRun(100, func() {
		if v, err, shared := g.Do("k", fn); v != 7 || err != nil || shared {
			t.Fatalf("Do = %d, %v, shared %v", v, err, shared)
		}
	}); allocs != 0 {
		t.Fatalf("an uncontended Do allocates %.0f times, want 0", allocs)
	}
}

// Many callers over many keys, with flights overlapping so calls are shared
// and recycled: every caller gets its own key's result, from the flight that
// was in progress when it arrived or a later one. Recycling a call that still
// has waiters would hand them another key's result.
func TestSingleFlightStress(t *testing.T) {
	const keys, callers, rounds = 16, 8, 200
	var g Group[string]
	var flights [keys]atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		key := strconv.Itoa(k)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := int64(-1)
				for r := 0; r < rounds; r++ {
					v, err, _ := g.Do(key, func() (string, error) {
						n := flights[k].Add(1)
						runtime.Gosched()
						return key + "#" + strconv.FormatInt(n, 10), nil
					})
					got, n, ok := strings.Cut(v, "#")
					seq, perr := strconv.ParseInt(n, 10, 64)
					if err != nil || !ok || perr != nil || got != key || seq <= last {
						t.Errorf("key %s, round %d: Do = %q, %v (last flight %d)", key, r, v, err, last)
						return
					}
					last = seq
				}
			}()
		}
	}
	wg.Wait()
	var total int64
	for k := range flights {
		total += flights[k].Load()
	}
	if total == keys*callers*rounds {
		t.Fatal("no flight was shared: the test did not exercise waiters")
	}
}

// ReadBody reads a declared length into one buffer of exactly that size,
// refuses a body shorter than it declared, and falls back to the capped read
// for an undeclared or over-limit length.
func TestReadBody(t *testing.T) {
	want := bytes.Repeat([]byte("chunk"), 1000)
	const limit = 1 << 20
	exact, err := ReadBody(bytes.NewReader(want), int64(len(want)), limit)
	if err != nil || !bytes.Equal(exact, want) || cap(exact) != len(want) {
		t.Fatalf("declared-length read: err %v, len %d cap %d, want exactly %d", err, len(exact), cap(exact), len(want))
	}
	if _, err := ReadBody(bytes.NewReader(want[:10]), int64(len(want)), limit); err == nil {
		t.Fatal("a body shorter than its declared length was accepted")
	}
	for _, n := range []int64{-1, 0, limit + 1} {
		if got, err := ReadBody(bytes.NewReader(want), n, limit); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("declared %d: err %v, %d bytes", n, err, len(got))
		}
	}
	if got, _ := ReadBody(bytes.NewReader(want), -1, 10); len(got) != 10 {
		t.Fatalf("undeclared length read %d bytes past a limit of 10", len(got))
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	longest := time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		v    string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"5", 5 * time.Second},
		{"-3", 0},
		{"soon", 0},
		{"9223372036", 9223372036 * time.Second}, // the last whole second that fits
		{"9223372037", longest},
		{"9300000000", longest},           // wraps to about −2.5M h unchecked
		{"99999999999999999999", longest}, // beyond int64
		{"-99999999999999999999", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0},
	} {
		if got := ParseRetryAfter(tc.v, now); got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

// TestFormatRetryAfter: whole seconds rounded up, never negative, and every
// wait reads back through ParseRetryAfter as at least itself — the longest
// one included, which an additive round-up would overflow.
func TestFormatRetryAfter(t *testing.T) {
	longest := time.Duration(math.MaxInt64)
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{math.MinInt64, "0"},
		{-time.Second, "0"},
		{-1, "0"},
		{0, "0"},
		{1, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{90 * time.Second, "90"},
		{longest, "9223372037"},
	} {
		got := FormatRetryAfter(tc.d)
		if got != tc.want {
			t.Errorf("FormatRetryAfter(%v) = %q, want %q", tc.d, got, tc.want)
		}
		if back := ParseRetryAfter(got, time.Time{}); tc.d > 0 && back < tc.d {
			t.Errorf("FormatRetryAfter(%v) = %q reads back as %v, shorter", tc.d, got, back)
		}
	}
}
