package health

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/testutil"
)

func testRegistry(t *testing.T) (*Registry, *clock.Wheel) {
	t.Helper()
	vc := clock.NewWheel(clock.WheelConfig{Epoch: time.Unix(1_700_000_000, 0)})
	r := NewRegistry(Config{
		HeartbeatInterval: time.Second,
		Clock:             vc,
	})
	return r, vc
}

func TestDetectorLifecycle(t *testing.T) {
	testutil.CheckGoroutines(t)
	r, vc := testRegistry(t)
	r.Register("edge:a")

	if st, ok := r.State("edge:a"); !ok || st != StateHealthy {
		t.Fatalf("fresh node state = %v, %v; want healthy", st, ok)
	}

	// One silent interval: still healthy (below the suspect threshold).
	vc.Advance(1500 * time.Millisecond)
	if st, _ := r.State("edge:a"); st != StateHealthy {
		t.Fatalf("after 1 miss state = %v, want healthy", st)
	}

	// Two silent intervals: suspect — no longer eligible for assignment.
	vc.Advance(time.Second)
	if st, _ := r.State("edge:a"); st != StateSuspect {
		t.Fatalf("after 2 misses state = %v, want suspect", st)
	}
	if r.Eligible("edge:a") {
		t.Fatal("suspect node still eligible")
	}

	// Four silent intervals: down.
	vc.Advance(2 * time.Second)
	if st, _ := r.State("edge:a"); st != StateDown {
		t.Fatalf("after 4 misses state = %v, want down", st)
	}
	if got := r.Stats().HeartbeatMisses.Load(); got < 4 {
		t.Fatalf("HeartbeatMisses = %d, want ≥ 4", got)
	}

	// A beat recovers the node.
	r.Heartbeat("edge:a")
	if st, _ := r.State("edge:a"); st != StateHealthy {
		t.Fatalf("after recovery state = %v, want healthy", st)
	}
	if !r.Eligible("edge:a") {
		t.Fatal("recovered node not eligible")
	}
	if got := r.Stats().Recoveries.Load(); got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}
}

func TestDrainingIsSticky(t *testing.T) {
	r, vc := testRegistry(t)
	r.Register("edge:a")
	r.SetDraining("edge:a", true)

	// Neither beats nor silence move a draining node.
	r.Heartbeat("edge:a")
	if st, _ := r.State("edge:a"); st != StateDraining {
		t.Fatalf("state after beat = %v, want draining", st)
	}
	vc.Advance(10 * time.Second)
	if st, _ := r.State("edge:a"); st != StateDraining {
		t.Fatalf("state after silence = %v, want draining", st)
	}
	if r.Eligible("edge:a") {
		t.Fatal("draining node eligible for assignment")
	}

	// Undrain returns it to rotation with a fresh beat.
	r.SetDraining("edge:a", false)
	if st, _ := r.State("edge:a"); st != StateHealthy {
		t.Fatalf("state after undrain = %v, want healthy", st)
	}
}

func TestUnknownNodeEligible(t *testing.T) {
	r, _ := testRegistry(t)
	if !r.Eligible("edge:never-registered") {
		t.Fatal("unknown node must stay eligible (unwired registry must not empty the fleet)")
	}
}

func TestStateChangeCallback(t *testing.T) {
	testutil.CheckGoroutines(t)
	vc := clock.NewWheel(clock.WheelConfig{Epoch: time.Unix(1_700_000_000, 0)})
	type change struct {
		id       string
		from, to State
	}
	var seen []change
	r := NewRegistry(Config{
		HeartbeatInterval: time.Second,
		Clock:             vc,
		OnStateChange: func(id string, from, to State) {
			seen = append(seen, change{id, from, to})
		},
	})
	r.Register("origin:w")
	vc.Advance(5 * time.Second)
	r.Check()
	r.Heartbeat("origin:w")
	want := []change{
		{"origin:w", StateHealthy, StateDown},
		{"origin:w", StateDown, StateHealthy},
	}
	if len(seen) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
}

func TestSnapshotAndHandler(t *testing.T) {
	testutil.CheckGoroutines(t)
	r, vc := testRegistry(t)
	r.Register("edge:a")
	r.Register("edge:b")
	r.SetDraining("edge:b", true)
	vc.Advance(2 * time.Second) // edge:a → suspect

	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != "edge:a" || snap[1].ID != "edge:b" {
		t.Fatalf("snapshot order/content wrong: %+v", snap)
	}
	if snap[0].State != StateSuspect || snap[1].State != StateDraining {
		t.Fatalf("snapshot states = %v/%v, want suspect/draining", snap[0].State, snap[1].State)
	}

	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/fleet", nil))
	if rec.Code != 200 {
		t.Fatalf("fleet handler status %d", rec.Code)
	}
	var out struct {
		Nodes []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"nodes"`
		HeartbeatMisses int64 `json:"heartbeat_misses"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 2 || out.Nodes[0].State != "suspect" || out.Nodes[1].State != "draining" {
		t.Fatalf("fleet JSON = %s", rec.Body.String())
	}
	if out.HeartbeatMisses == 0 {
		t.Fatal("fleet JSON reports zero heartbeat misses after a silent window")
	}
}
