// Fixture for the walltime analyzer, positive cases. Any package but main is
// restricted, whatever its name.
package walltime

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/clock"
)

func stamp() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since reads the wall clock`
}

func wait() {
	time.Sleep(time.Second) // want `time\.Sleep reads the wall clock`
}

func pace(done chan struct{}) {
	t := time.NewTicker(time.Second) // want `time\.NewTicker reads the wall clock`
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

func drain(done chan struct{}) {
	t := time.NewTimer(time.Millisecond) // want `time\.NewTimer reads the wall clock`
	defer t.Stop()
	select {
	case <-t.C:
	case <-done:
	}
}

func jitter() float64 {
	return rand.Float64() // want `rand\.Float64 uses the global math/rand source`
}

// A real clock built and called in place reads the wall clock as surely as
// the time package does.
func backoff(ctx context.Context) error {
	return clock.Real{}.Sleep(ctx, time.Second) // want `clock\.Real\{\}\.Sleep reads the wall clock in place`
}

func stampReal() time.Time {
	return (clock.Real{}).Now() // want `clock\.Real\{\}\.Now reads the wall clock in place`
}

// policy stands in for resilience.Policy and BreakerConfig: a method value of
// clock.Real assigned as a default is an injection seam, not a clock read.
type policy struct {
	Sleep func(ctx context.Context, d time.Duration) error
	Now   func() time.Time
}

func (p policy) withDefaults() policy {
	if p.Sleep == nil {
		p.Sleep = clock.Real{}.Sleep
	}
	if p.Now == nil {
		p.Now = clock.Real{}.Now
	}
	return p
}

// Calls through an injected clock, pure time arithmetic, and the seeded
// constructor path (what internal/rng wraps) are all fine.
func okUses(ctx context.Context, clk clock.Clock, t time.Time) (time.Time, error) {
	if clk == nil {
		clk = clock.Real{}
	}
	r := rand.New(rand.NewSource(1))
	d := time.Duration(r.Float64() * float64(time.Second))
	if err := clk.Sleep(ctx, d); err != nil {
		return time.Time{}, err
	}
	return clk.Now().Add(t.Sub(clock.Epoch)), nil
}
