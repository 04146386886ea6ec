package faults

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/rng"
)

// Partition fault injection: seeded link cuts against a netsim.Partitions
// registry, mirroring the crash side of this package — CrashScheduler kills
// processes, PartitionScheduler kills links. Both are deterministic under a
// seed so a chaos soak failure replays exactly.

// PartitionPlan schedules one cut/heal cycle against a set of candidate
// links.
type PartitionPlan struct {
	// Seed drives link selection when Link is negative.
	Seed uint64
	// Link picks which candidate link to cut (index into the links slice).
	// Negative draws one uniformly from the seed — deterministic for a
	// fixed (seed, candidate count).
	Link int
	// After is how long the scheduler waits before the cut.
	After time.Duration
	// Duration is how long the link stays cut before healing. Zero heals
	// immediately.
	Duration time.Duration
	// Symmetric cuts both directions. The default (false) is the
	// asymmetric failure real routing produces: From→To goes dark while
	// To→From still delivers.
	Symmetric bool
}

// PartitionStats report what a scheduler run did.
type PartitionStats struct {
	// Link is the candidate index that was cut.
	Link int
	// Cuts and Heals count completed transitions (0 or 1 each; the
	// schedule is one cycle — loop it for repeated partitions).
	Cuts  int
	Heals int
}

// PartitionScheduler executes a PartitionPlan: wait, cut, wait, heal.
// Deterministic given (plan, candidates): the only randomness is the seeded
// link draw.
type PartitionScheduler struct {
	plan       PartitionPlan
	parts      *netsim.Partitions
	candidates []netsim.Link
	link       int

	cuts  atomic.Int64
	heals atomic.Int64
}

// NewPartitionScheduler builds a scheduler; the link index is drawn (or
// validated) eagerly so tests can inspect it before Run.
func NewPartitionScheduler(plan PartitionPlan, parts *netsim.Partitions, candidates []netsim.Link) *PartitionScheduler {
	idx := plan.Link
	if idx < 0 || idx >= len(candidates) {
		idx = 0
		if len(candidates) > 0 {
			idx = int(rng.New(plan.Seed).Uint64n(uint64(len(candidates))))
		}
	}
	return &PartitionScheduler{plan: plan, parts: parts, candidates: candidates, link: idx}
}

// Link returns the candidate link the plan will cut.
func (ps *PartitionScheduler) Link() netsim.Link {
	if len(ps.candidates) == 0 {
		return netsim.Link{}
	}
	return ps.candidates[ps.link]
}

// Stats snapshots the completed transitions.
func (ps *PartitionScheduler) Stats() PartitionStats {
	return PartitionStats{
		Link:  ps.link,
		Cuts:  int(ps.cuts.Load()),
		Heals: int(ps.heals.Load()),
	}
}

// Run executes the plan, returning the first ctx error. It blocks for the
// full schedule; chaos tests run it in a goroutine alongside the workload.
// The heal is unconditional once the cut happened, so a ctx cancellation
// mid-partition does not leave the link dead for later tests sharing the
// registry.
func (ps *PartitionScheduler) Run(ctx context.Context) error {
	if len(ps.candidates) == 0 || ps.parts == nil {
		return nil
	}
	l := ps.candidates[ps.link]
	if err := sleep(ctx, ps.plan.After); err != nil {
		return err
	}
	if ps.plan.Symmetric {
		ps.parts.CutBoth(l.From, l.To)
	} else {
		ps.parts.Cut(l.From, l.To)
	}
	ps.cuts.Add(1)
	err := sleep(ctx, ps.plan.Duration)
	ps.parts.HealBoth(l.From, l.To)
	ps.heals.Add(1)
	return err
}

// partitionRoundTripper fails requests crossing a cut link.
type partitionRoundTripper struct {
	parts    *netsim.Partitions
	from, to string
	next     http.RoundTripper
}

// PartitionTransport wraps next (nil means http.DefaultTransport) so
// requests fail fast with an error wrapping both netsim.ErrPartitioned and
// ErrInjected while the from→to link — or the to→from return path, which
// an HTTP response needs just as much — is cut. Components tag their
// clients with their own role/node names, so one registry partitions the
// whole topology.
func PartitionTransport(parts *netsim.Partitions, from, to string, next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &partitionRoundTripper{parts: parts, from: from, to: to, next: next}
}

// RoundTrip implements http.RoundTripper.
func (t *partitionRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.parts.IsCut(t.from, t.to) || t.parts.IsCut(t.to, t.from) {
		return nil, fmt.Errorf("faults: %s -> %s: %w: %w",
			t.from, t.to, netsim.ErrPartitioned, ErrInjected)
	}
	return t.next.RoundTrip(req)
}
