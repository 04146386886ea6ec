// Package clock provides the time substrate shared by every component of the
// reproduction: a Clock interface with two implementations, Real, backed by
// the operating system, and Wheel, a deterministic discrete-event clock whose
// time moves only when its driver advances it.
//
// The paper's large-scale experiments are trace-driven simulations; those run
// on a Wheel so that a seed fully determines the outcome. The real-socket
// platform (quickstart, crawler, security demo) runs on Real.
package clock

import (
	"context"
	"time"
)

// Clock abstracts time for both the live platform and the simulator.
// Timestamps are absolute; a Wheel starts at a configurable epoch.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks until d has elapsed on this clock or ctx is done.
	// It returns ctx.Err() if the context ended first, else nil.
	Sleep(ctx context.Context, d time.Duration) error
	// After returns a channel that delivers the clock time once d has
	// elapsed. The channel has capacity 1 and is never closed.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the operating system.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time {
	//lint:allow walltime Real is the wall-clock boundary everything else injects
	return time.Now()
}

// Sleep implements Clock.
func (Real) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	//lint:allow walltime Real is the wall-clock boundary everything else injects
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time {
	//lint:allow walltime Real is the wall-clock boundary everything else injects
	return time.After(d)
}

// Epoch is the default start time for a Wheel: the first day of the
// paper's Periscope measurement window (May 15, 2015 UTC).
var Epoch = time.Date(2015, time.May, 15, 0, 0, 0, 0, time.UTC)
