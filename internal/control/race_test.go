package control

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/testutil"
)

// TestJoinVsEndHammer drives concurrent Join, ResolveEdge, EndBroadcast,
// and ForceEnd against many broadcasts under the race detector. The
// regression it guards: end paths fired their OnEnd callbacks while a
// not-yet-complete start could still be running its OnStart callbacks, so a
// data-plane consumer (the pubsub hub) could see Close before Open and leak
// the channel forever. The started-gate now orders them; this hammer
// asserts the ordering and that joins racing an end either land or get
// ErrEnded/ErrNoBroadcast — never a torn in-between.
func TestJoinVsEndHammer(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newJournaledService(journal.NewMem(), nil)
	defer s.Close()

	// Track per-broadcast callback ordering: Open must strictly precede
	// Close, exactly once each.
	var cbMu sync.Mutex
	opened := make(map[string]int)
	closedBefore := make(map[string]bool)
	s.OnStart(func(id, origin string, _ *metrics.Usage) {
		cbMu.Lock()
		opened[id]++
		cbMu.Unlock()
	})
	s.OnEnd(func(id string) {
		cbMu.Lock()
		if opened[id] == 0 {
			closedBefore[id] = true
		}
		cbMu.Unlock()
	})

	const broadcasts = 16
	const joinersPer = 4
	u := s.Register("host")
	var wg sync.WaitGroup
	var joinsOK, joinsRejected atomic.Int64
	for b := 0; b < broadcasts; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			grant, err := s.StartBroadcast(u.ID, geo.Location{})
			if err != nil {
				t.Errorf("start %d: %v", b, err)
				return
			}
			var inner sync.WaitGroup
			for j := 0; j < joinersPer; j++ {
				inner.Add(1)
				go func(j int) {
					defer inner.Done()
					for k := 0; k < 8; k++ {
						_, err := s.Join(uint64(1000+j), grant.BroadcastID, geo.Location{})
						switch {
						case err == nil:
							joinsOK.Add(1)
						case errors.Is(err, ErrEnded) || errors.Is(err, ErrNoBroadcast):
							joinsRejected.Add(1)
						default:
							t.Errorf("join: %v", err)
						}
						s.ResolveEdge(grant.BroadcastID, geo.Location{})
					}
				}(j)
			}
			// End races the joiners: half force-ended (the platform's
			// data-plane path), half ended by token (the broadcaster's).
			if b%2 == 0 {
				if err := s.ForceEnd(grant.BroadcastID); err != nil {
					t.Errorf("force end %d: %v", b, err)
				}
			} else {
				if err := s.EndBroadcast(grant.BroadcastID, grant.Token); err != nil {
					t.Errorf("end %d: %v", b, err)
				}
			}
			inner.Wait()
		}(b)
	}
	wg.Wait()

	cbMu.Lock()
	defer cbMu.Unlock()
	if len(closedBefore) > 0 {
		t.Fatalf("OnEnd fired before OnStart for %d broadcasts: %v", len(closedBefore), keys(closedBefore))
	}
	if len(opened) != broadcasts {
		t.Fatalf("OnStart fired for %d broadcasts, want %d", len(opened), broadcasts)
	}
	if joinsOK.Load()+joinsRejected.Load() == 0 {
		t.Fatal("hammer exercised no joins")
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestEndDuringCrashThenRecoveryHammer: ends racing a crash must either
// land (journaled) or fail with ErrUnavailable — after recovery no
// broadcast may be falsely live (end journaled but state says live) and
// every ErrUnavailable end must still be live (end rejected, not torn).
func TestEndDuringCrashThenRecoveryHammer(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newJournaledService(journal.NewMem(), nil)
	defer s.Close()
	u := s.Register("host")
	const n = 32
	grants := make([]BroadcastGrant, n)
	for i := range grants {
		g, err := s.StartBroadcast(u.ID, geo.Location{})
		if err != nil {
			t.Fatal(err)
		}
		grants[i] = g
	}

	endErr := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range grants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			endErr[i] = s.ForceEnd(grants[i].BroadcastID)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		s.Crash()
	}()
	close(start)
	wg.Wait()
	s.Recover()

	for i, err := range endErr {
		info, ierr := s.Info(grants[i].BroadcastID)
		if ierr != nil {
			t.Fatalf("broadcast %d lost entirely: %v", i, ierr)
		}
		switch {
		case err == nil:
			if info.Live {
				t.Fatalf("broadcast %d: end acknowledged but live after recovery", i)
			}
		case errors.Is(err, ErrUnavailable):
			if !info.Live {
				t.Fatalf("broadcast %d: end rejected with ErrUnavailable but dead after recovery (falsely ended)", i)
			}
		default:
			t.Fatalf("broadcast %d: end err = %v", i, err)
		}
	}
	// Sanity: the test exercised both outcomes at least once across runs is
	// not guaranteed, but every broadcast must be force-endable now.
	for i := range grants {
		if err := s.ForceEnd(grants[i].BroadcastID); err != nil {
			t.Fatalf("post-recovery force end %d: %v", i, err)
		}
	}
	if s.LiveCount() != 0 {
		t.Fatalf("LiveCount = %d after ending everything", s.LiveCount())
	}
	_ = fmt.Sprintf // keep fmt imported if assertions change
}
