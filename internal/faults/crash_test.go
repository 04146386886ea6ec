package faults_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/testutil"
)

// TestCrashSchedulerRunsPlan: the full cycle runs in order — wait, kill,
// corrupt, wait, restart — against the planned target.
func TestCrashSchedulerRunsPlan(t *testing.T) {
	testutil.CheckGoroutines(t)
	var order []string
	mk := func(name string) faults.CrashTarget {
		return faults.CrashTarget{
			Kill:    func() error { order = append(order, name+":kill"); return nil },
			Restart: func() error { order = append(order, name+":restart"); return nil },
		}
	}
	cs := faults.NewCrashScheduler(faults.CrashPlan{
		Target:   1,
		After:    time.Millisecond,
		Downtime: time.Millisecond,
		Corrupt:  func(i int) { order = append(order, "corrupt") },
	}, []faults.CrashTarget{mk("a"), mk("b")})
	if cs.Target() != 1 {
		t.Fatalf("target = %d, want 1", cs.Target())
	}
	if err := cs.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{"b:kill", "corrupt", "b:restart"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	st := cs.Stats()
	if st.Crashes != 1 || st.Restarts != 1 || st.Target != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCrashSchedulerSeededTarget: a negative target index draws
// deterministically from the seed.
func TestCrashSchedulerSeededTarget(t *testing.T) {
	targets := make([]faults.CrashTarget, 8)
	for i := range targets {
		targets[i] = faults.CrashTarget{
			Kill:    func() error { return nil },
			Restart: func() error { return nil },
		}
	}
	a := faults.NewCrashScheduler(faults.CrashPlan{Seed: 7, Target: -1}, targets)
	b := faults.NewCrashScheduler(faults.CrashPlan{Seed: 7, Target: -1}, targets)
	if a.Target() != b.Target() {
		t.Fatalf("same seed drew %d and %d", a.Target(), b.Target())
	}
	c := faults.NewCrashScheduler(faults.CrashPlan{Seed: 8, Target: -1}, targets)
	_ = c.Target() // any index is valid; just ensure it is in range
	if c.Target() < 0 || c.Target() >= len(targets) {
		t.Fatalf("target %d out of range", c.Target())
	}
}

// TestCrashSchedulerCtxCancel: a cancelled context aborts the schedule
// before the kill fires.
func TestCrashSchedulerCtxCancel(t *testing.T) {
	testutil.CheckGoroutines(t)
	killed := false
	cs := faults.NewCrashScheduler(faults.CrashPlan{
		Target: 0,
		After:  time.Hour,
	}, []faults.CrashTarget{{
		Kill:    func() error { killed = true; return nil },
		Restart: func() error { return nil },
	}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cs.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if killed {
		t.Fatal("kill fired despite cancelled context")
	}
	if st := cs.Stats(); st.Crashes != 0 || st.Restarts != 0 {
		t.Fatalf("stats = %+v, want zero transitions", st)
	}
}
