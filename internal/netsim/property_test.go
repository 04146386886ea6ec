package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"

	"repro/internal/testutil"
)

func normLoc(lat, lon float64) geo.Location {
	if math.IsNaN(lat) || math.IsInf(lat, 0) {
		lat = 0
	}
	if math.IsNaN(lon) || math.IsInf(lon, 0) {
		lon = 0
	}
	return geo.Location{Lat: math.Mod(lat, 90), Lon: math.Mod(lon, 180)}
}

// Property: every delay the model produces is positive, and the
// deterministic propagation component is symmetric and triangle-bounded by
// the direct great-circle path (route inflation applies uniformly).
func TestModelDelayProperties(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(99))
	f := func(lat1, lon1, lat2, lon2 float64, size uint16) bool {
		a, b := normLoc(lat1, lon1), normLoc(lat2, lon2)
		prop := m.Propagation(a, b)
		if prop <= 0 {
			return false
		}
		if m.Propagation(b, a) != prop {
			return false // deterministic part must be symmetric
		}
		if m.OneWay(a, b) <= 0 || m.RTT(a, b) <= 0 {
			return false
		}
		return m.Transfer(a, b, int(size)) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: last-mile delay is positive for every profile and grows with
// payload size in expectation.
func TestLastMileProperties(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(100))
	for _, p := range append([]AccessProfile{WiFi}, slowerLinks...) {
		var small, large float64
		const n = 400
		for i := 0; i < n; i++ {
			s := m.LastMile(p, 1000)
			l := m.LastMile(p, 1_000_000)
			if s <= 0 || l <= 0 {
				t.Fatalf("%s: non-positive delay", p.Name)
			}
			small += s.Seconds()
			large += l.Seconds()
		}
		if large <= small {
			t.Fatalf("%s: 1MB mean (%v) not above 1KB mean (%v)", p.Name, large/n, small/n)
		}
	}
}
