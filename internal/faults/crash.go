package faults

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// CrashTarget is one process the scheduler can kill and restart, as a pair
// of funcs: the recovery soak binds them to a platform origin's kill and
// restart.
type CrashTarget struct {
	// Kill crashes the process immediately.
	Kill func() error
	// Restart brings the process back, recovering whatever its durable
	// state preserves.
	Restart func() error
}

// CrashPlan schedules one crash/restart cycle against a fleet of targets.
type CrashPlan struct {
	// Seed drives target selection when Target is negative.
	Seed uint64
	// Target picks which fleet member to crash (index into the targets
	// slice). Negative draws one uniformly from the seed — deterministic
	// for a fixed (seed, fleet size).
	Target int
	// After is how long the scheduler waits before the crash.
	After time.Duration
	// Downtime is how long the target stays dead before Restart. Zero
	// restarts immediately.
	Downtime time.Duration
	// Corrupt, when set, runs between Kill and Restart — the hook chaos
	// tests use to damage the journal tail while the process is down,
	// simulating a torn write at the moment of the crash.
	Corrupt func(target int)
}

// CrashStats report what a scheduler run did.
type CrashStats struct {
	// Target is the fleet index that was crashed.
	Target int
	// Crashes and Restarts count completed transitions (0 or 1 each; the
	// schedule is one cycle — loop it for repeated crashes).
	Crashes  int
	Restarts int
}

// CrashScheduler executes a CrashPlan against a target fleet: wait, kill,
// optionally corrupt, wait, restart. Deterministic given (plan, fleet): the
// only randomness is the seeded target draw.
type CrashScheduler struct {
	plan    CrashPlan
	targets []CrashTarget
	target  int

	crashes  atomic.Int64
	restarts atomic.Int64
}

// NewCrashScheduler builds a scheduler; the target index is drawn (or
// validated) eagerly so tests can inspect it before Run.
func NewCrashScheduler(plan CrashPlan, targets []CrashTarget) *CrashScheduler {
	idx := plan.Target
	if idx < 0 || idx >= len(targets) {
		idx = 0
		if len(targets) > 0 {
			idx = int(rng.New(plan.Seed).Uint64n(uint64(len(targets))))
		}
	}
	return &CrashScheduler{plan: plan, targets: targets, target: idx}
}

// Target returns the fleet index the plan will crash.
func (cs *CrashScheduler) Target() int { return cs.target }

// Stats snapshots the completed transitions.
func (cs *CrashScheduler) Stats() CrashStats {
	return CrashStats{
		Target:   cs.target,
		Crashes:  int(cs.crashes.Load()),
		Restarts: int(cs.restarts.Load()),
	}
}

// Run executes the plan, returning the first target error or ctx error. It
// blocks for the full schedule; chaos tests run it in a goroutine alongside
// the workload.
func (cs *CrashScheduler) Run(ctx context.Context) error {
	if len(cs.targets) == 0 {
		return nil
	}
	t := cs.targets[cs.target]
	if err := sleep(ctx, cs.plan.After); err != nil {
		return err
	}
	if err := t.Kill(); err != nil {
		return err
	}
	cs.crashes.Add(1)
	if cs.plan.Corrupt != nil {
		cs.plan.Corrupt(cs.target)
	}
	if err := sleep(ctx, cs.plan.Downtime); err != nil {
		return err
	}
	if err := t.Restart(); err != nil {
		return err
	}
	cs.restarts.Add(1)
	return nil
}
