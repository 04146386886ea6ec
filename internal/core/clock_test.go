package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cdn"
	"repro/internal/clock"
	"repro/internal/health"
	"repro/internal/pubsub"
)

// platformLoops counts the loops that wait on the platform clock once a
// platform with retention has started: heartbeats, the health detector, the
// janitor and the usage flush.
const platformLoops = 4

// startOnWheel starts a platform whose one clock is a wheel nobody else
// drives, with a heartbeat interval no wall-clock ticker reaches during a
// test and a one-hour retention.
func startOnWheel(t *testing.T) (*Platform, *clock.Wheel) {
	t.Helper()
	wheel := clock.NewWheel(clock.WheelConfig{})
	p := startPlatform(t, PlatformConfig{
		ChunkDuration:     time.Second,
		Retention:         time.Hour,
		HeartbeatInterval: time.Minute,
		Clock:             wheel,
	})
	return p, wheel
}

// eventually polls cond until it holds. The deadline only bounds a failure;
// it never paces the test.
func eventually(cond func() bool) bool {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// advance moves the wheel by d once every platform loop waits on it, so
// each loop sees the whole step.
func advance(t *testing.T, wheel *clock.Wheel, d time.Duration) {
	t.Helper()
	if !eventually(func() bool { return wheel.Pending() == platformLoops }) {
		t.Errorf("%d timers wait on the platform clock, want one per loop (%d)", wheel.Pending(), platformLoops)
	}
	wheel.Advance(d)
}

// TestPlatformLoopsRunOnPlatformClock: heartbeats, the failure detector and
// the janitor all follow PlatformConfig.Clock, so a wheel alone walks a
// killed edge to down and sweeps an ended broadcast past its retention.
func TestPlatformLoopsRunOnPlatformClock(t *testing.T) {
	t.Run("heartbeats", func(t *testing.T) {
		p, wheel := startOnWheel(t)
		killed := p.Topo.Edges[0]
		if err := p.KillEdge(killed.Site().ID); err != nil {
			t.Fatal(err)
		}
		live := int64(len(p.Topo.Origins) + len(p.Topo.Edges) - 1)
		beats := &p.Health.Stats().Heartbeats
		for k := int64(1); k <= health.DownMisses; k++ {
			advance(t, wheel, time.Minute)
			if !eventually(func() bool { return beats.Load() >= k*live }) || beats.Load() != k*live {
				t.Fatalf("after %d heartbeat intervals of the platform clock: %d heartbeats, want %d",
					k, beats.Load(), k*live)
			}
		}
		for _, n := range p.Health.Snapshot() {
			want := health.StateHealthy
			if n.ID == healthNodeID(cdn.RoleEdge, killed.Site().ID) {
				want = health.StateDown
			}
			if n.State != want {
				t.Errorf("%s is %v, want %v", n.ID, n.State, want)
			}
		}
		if e := p.Topo.NearestEdge(killed.Site().Location); e == killed {
			t.Errorf("NearestEdge still picks the killed edge %s", killed.Site().ID)
		}
	})

	t.Run("janitor", func(t *testing.T) {
		p, wheel := startOnWheel(t)
		u := p.Ctrl.Register("b")
		grant, err := p.Ctrl.StartBroadcast(u.ID, p.Topo.Edges[0].Site().Location)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Ctrl.EndBroadcast(grant.BroadcastID, grant.Token); err != nil {
			t.Fatal(err)
		}
		// The janitor runs every half retention; the third run is the first
		// more than one retention past the end.
		for i := 0; i < 4; i++ {
			advance(t, wheel, 30*time.Minute)
		}
		// The sweep releases the topology assignment after it removes the
		// message channel.
		released := func() bool {
			_, ok := p.Topo.OriginFor(grant.BroadcastID)
			return !ok
		}
		if !eventually(released) {
			t.Fatal("a broadcast ended 2 h ago on the platform clock is still assigned with 1 h retention")
		}
		if _, _, err := p.Hub.EventsSince(grant.BroadcastID, 0); !errors.Is(err, pubsub.ErrNoChannel) {
			t.Fatalf("swept broadcast's message channel: %v, want %v", err, pubsub.ErrNoChannel)
		}
	})
}
