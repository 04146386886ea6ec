package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCatalogSizes(t *testing.T) {
	if n := len(WowzaSites()); n != 8 {
		t.Fatalf("Wowza sites = %d, want 8 (paper §4.1)", n)
	}
	if n := len(FastlySites()); n != 23 {
		t.Fatalf("Fastly sites = %d, want 23 (paper §4.1)", n)
	}
}

func TestCatalogIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, dc := range append(WowzaSites(), FastlySites()...) {
		if seen[dc.ID] {
			t.Fatalf("duplicate datacenter ID %q", dc.ID)
		}
		seen[dc.ID] = true
	}
}

func TestDistanceKnownPairs(t *testing.T) {
	ny := Location{"New York", NorthAmerica, 40.71, -74.01}
	la := Location{"Los Angeles", NorthAmerica, 34.05, -118.24}
	d := DistanceKm(ny, la)
	if d < 3900 || d > 4000 {
		t.Fatalf("NY–LA distance = %v km, want ≈3940", d)
	}
	if d := DistanceKm(ny, ny); d != 0 {
		t.Fatalf("self-distance = %v", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		norm := func(v, m float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, m)
		}
		a := Location{Lat: norm(lat1, 90), Lon: norm(lon1, 180)}
		b := Location{Lat: norm(lat2, 90), Lon: norm(lon2, 180)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0 && d1 <= math.Pi*EarthRadiusKm+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNearestPicksCoLocated(t *testing.T) {
	tokyo := Location{"Tokyo", Asia, 35.68, 139.69}
	dc := Nearest(tokyo, FastlySites())
	if dc.ID != "fastly-tokyo" {
		t.Fatalf("Nearest(Tokyo) = %s", dc.ID)
	}
	dc = Nearest(tokyo, WowzaSites())
	if dc.ID != "wowza-tokyo" {
		t.Fatalf("Nearest(Tokyo, wowza) = %s", dc.ID)
	}
}

func TestNearestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest(empty) did not panic")
		}
	}()
	Nearest(Location{}, nil)
}

func TestCoLocationAuditMatchesPaper(t *testing.T) {
	audits := AuditCoLocation(WowzaSites(), FastlySites())
	sameCity, sameCont := 0, 0
	for _, a := range audits {
		if a.SameCity {
			sameCity++
		}
		if a.SameContinent {
			sameCont++
		}
	}
	// Paper §4.1: 6/8 Wowza DCs have a co-located Fastly DC in the same
	// city, 7/8 in the same continent; the exception is South America.
	if sameCity != 6 {
		t.Fatalf("same-city pairs = %d, want 6", sameCity)
	}
	if sameCont != 7 {
		t.Fatalf("same-continent pairs = %d, want 7", sameCont)
	}
	for _, a := range audits {
		if a.WowzaID == "wowza-saopaulo" && (a.SameCity || a.SameContinent) {
			t.Fatal("São Paulo should be the uncovered exception")
		}
	}
}

// Gateway agrees with the audit on every Wowza origin: the six same-city
// pairs of Fig. 9 each resolve to a Fastly POP in the origin's own city, the
// other two to nil.
func TestGatewayMatchesCoLocatedPairs(t *testing.T) {
	withGateway := 0
	for _, a := range AuditCoLocation(WowzaSites(), FastlySites()) {
		var origin Datacenter
		for _, w := range WowzaSites() {
			if w.ID == a.WowzaID {
				origin = w
			}
		}
		gw := Gateway(origin)
		if (gw != nil) != a.SameCity {
			t.Errorf("%s: gateway %v, audit says same-city %v", a.WowzaID, gw, a.SameCity)
		}
		if gw != nil {
			withGateway++
			if gw.Provider != Fastly || !CoLocated(*gw, origin) {
				t.Errorf("%s: gateway %s (%s) is not the co-located Fastly POP", a.WowzaID, gw.ID, gw.Location.City)
			}
		}
	}
	if withGateway != 6 {
		t.Fatalf("origins with a gateway = %d, want 6 of 8", withGateway)
	}
}

func TestClassify(t *testing.T) {
	w := WowzaSites()
	f := FastlySites()
	find := func(id string, sites []Datacenter) Datacenter {
		for _, dc := range sites {
			if dc.ID == id {
				return dc
			}
		}
		t.Fatalf("site %s not found", id)
		return Datacenter{}
	}
	cases := []struct {
		a, b Datacenter
		want DistanceClass
	}{
		{find("wowza-ashburn", w), find("fastly-ashburn", f), ClassCoLocated},
		{find("wowza-ashburn", w), find("fastly-newyork", f), ClassUnder500},
		{find("wowza-ashburn", w), find("fastly-sanjose", f), ClassUnder5000},
		{find("wowza-ashburn", w), find("fastly-london", f), ClassUnder10000},
		{find("wowza-sydney", w), find("fastly-london", f), ClassOver10000},
	}
	for _, tc := range cases {
		if got := Classify(tc.a, tc.b); got != tc.want {
			t.Fatalf("Classify(%s, %s) = %v, want %v", tc.a.ID, tc.b.ID, got, tc.want)
		}
	}
}

func TestDistanceClassString(t *testing.T) {
	if ClassCoLocated.String() != "Co-located (0km)" {
		t.Fatalf("unexpected label %q", ClassCoLocated.String())
	}
	if DistanceClass(99).String() == "" {
		t.Fatal("unknown class should still render")
	}
}

func TestCityCatalogNonEmptyAndDistinct(t *testing.T) {
	cities := CityCatalog()
	if len(cities) < 20 {
		t.Fatalf("city catalog too small: %d", len(cities))
	}
	seen := map[string]bool{}
	for _, c := range cities {
		if seen[c.City] {
			t.Fatalf("duplicate city %q", c.City)
		}
		seen[c.City] = true
		if c.Lat < -90 || c.Lat > 90 || c.Lon < -180 || c.Lon > 180 {
			t.Fatalf("city %q has invalid coordinates", c.City)
		}
	}
}

// Property: Nearest always returns a site no farther than any other site.
func TestNearestOptimalProperty(t *testing.T) {
	sites := FastlySites()
	f := func(lat, lon float64) bool {
		if math.IsNaN(lat) || math.IsNaN(lon) || math.IsInf(lat, 0) || math.IsInf(lon, 0) {
			return true
		}
		loc := Location{Lat: math.Mod(lat, 90), Lon: math.Mod(lon, 180)}
		best := Nearest(loc, sites)
		bd := DistanceKm(loc, best.Location)
		for _, dc := range sites {
			if DistanceKm(loc, dc.Location) < bd-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
