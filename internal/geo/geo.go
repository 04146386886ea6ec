// Package geo models the geographic substrate of the reproduction: the
// datacenter catalog the paper mapped in Figure 9 (8 Wowza Amazon EC2 sites
// and the 23 Fastly POPs in use at measurement time), great-circle distance,
// and the nearest-datacenter (IP-anycast analog) selection Periscope uses for
// broadcasters and HLS viewers (§5.3).
package geo

import (
	"fmt"
	"math"
	"sort"
)

// Continent codes used in the catalog.
const (
	NorthAmerica = "NA"
	SouthAmerica = "SA"
	Europe       = "EU"
	Asia         = "AS"
	Oceania      = "OC"
)

// Location is a point on the globe.
type Location struct {
	City      string
	Continent string
	Lat, Lon  float64 // degrees
}

// Provider identifies which CDN a datacenter belongs to.
type Provider string

// The two CDNs in Periscope's video path (§4.1).
const (
	Wowza  Provider = "wowza"  // RTMP ingest + origin
	Fastly Provider = "fastly" // HLS edge
)

// Datacenter is one site in a CDN.
type Datacenter struct {
	ID       string
	Provider Provider
	Location Location
}

// EarthRadiusKm is the mean Earth radius.
const EarthRadiusKm = 6371.0

// DistanceKm returns the great-circle (haversine) distance between a and b.
func DistanceKm(a, b Location) float64 {
	const rad = math.Pi / 180
	lat1, lon1 := a.Lat*rad, a.Lon*rad
	lat2, lon2 := b.Lat*rad, b.Lon*rad
	dLat := lat2 - lat1
	dLon := lon2 - lon1
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// WowzaSites returns the 8 Wowza EC2 datacenters the paper located via its
// 273-node PlanetLab experiment (§4.1). The catalog is fresh on every call;
// callers may mutate their copy.
func WowzaSites() []Datacenter {
	return []Datacenter{
		{ID: "wowza-ashburn", Provider: Wowza, Location: Location{"Ashburn", NorthAmerica, 39.04, -77.49}},
		{ID: "wowza-sanjose", Provider: Wowza, Location: Location{"San Jose", NorthAmerica, 37.34, -121.89}},
		{ID: "wowza-dublin", Provider: Wowza, Location: Location{"Dublin", Europe, 53.35, -6.26}},
		{ID: "wowza-frankfurt", Provider: Wowza, Location: Location{"Frankfurt", Europe, 50.11, 8.68}},
		{ID: "wowza-tokyo", Provider: Wowza, Location: Location{"Tokyo", Asia, 35.68, 139.69}},
		{ID: "wowza-singapore", Provider: Wowza, Location: Location{"Singapore", Asia, 1.35, 103.82}},
		{ID: "wowza-sydney", Provider: Wowza, Location: Location{"Sydney", Oceania, -33.87, 151.21}},
		{ID: "wowza-saopaulo", Provider: Wowza, Location: Location{"Sao Paulo", SouthAmerica, -23.55, -46.63}},
	}
}

// FastlySites returns the 23 Fastly POPs in use during the measurement window
// (before the December 2015 Perth/Wellington/São Paulo additions, which the
// paper notes are not covered).
func FastlySites() []Datacenter {
	mk := func(id, city, cont string, lat, lon float64) Datacenter {
		return Datacenter{ID: id, Provider: Fastly, Location: Location{city, cont, lat, lon}}
	}
	return []Datacenter{
		mk("fastly-sanjose", "San Jose", NorthAmerica, 37.34, -121.89),
		mk("fastly-losangeles", "Los Angeles", NorthAmerica, 34.05, -118.24),
		mk("fastly-seattle", "Seattle", NorthAmerica, 47.61, -122.33),
		mk("fastly-denver", "Denver", NorthAmerica, 39.74, -104.99),
		mk("fastly-dallas", "Dallas", NorthAmerica, 32.78, -96.80),
		mk("fastly-chicago", "Chicago", NorthAmerica, 41.88, -87.63),
		mk("fastly-atlanta", "Atlanta", NorthAmerica, 33.75, -84.39),
		mk("fastly-miami", "Miami", NorthAmerica, 25.76, -80.19),
		mk("fastly-ashburn", "Ashburn", NorthAmerica, 39.04, -77.49),
		mk("fastly-newyork", "New York", NorthAmerica, 40.71, -74.01),
		mk("fastly-toronto", "Toronto", NorthAmerica, 43.65, -79.38),
		mk("fastly-london", "London", Europe, 51.51, -0.13),
		mk("fastly-amsterdam", "Amsterdam", Europe, 52.37, 4.90),
		mk("fastly-frankfurt", "Frankfurt", Europe, 50.11, 8.68),
		mk("fastly-paris", "Paris", Europe, 48.86, 2.35),
		mk("fastly-stockholm", "Stockholm", Europe, 59.33, 18.07),
		mk("fastly-tokyo", "Tokyo", Asia, 35.68, 139.69),
		mk("fastly-osaka", "Osaka", Asia, 34.69, 135.50),
		mk("fastly-singapore", "Singapore", Asia, 1.35, 103.82),
		mk("fastly-hongkong", "Hong Kong", Asia, 22.32, 114.17),
		mk("fastly-sydney", "Sydney", Oceania, -33.87, 151.21),
		mk("fastly-brisbane", "Brisbane", Oceania, -27.47, 153.03),
		mk("fastly-auckland", "Auckland", Oceania, -36.85, 174.76),
	}
}

// Nearest returns the datacenter in sites closest to loc, modelling both
// Periscope's broadcaster→Wowza assignment and the Fastly IP-anycast viewer
// routing (§5.3). It panics on an empty catalog.
func Nearest(loc Location, sites []Datacenter) Datacenter {
	if len(sites) == 0 {
		panic("geo: Nearest on empty catalog")
	}
	best := sites[0]
	bestD := DistanceKm(loc, best.Location)
	for _, dc := range sites[1:] {
		if d := DistanceKm(loc, dc.Location); d < bestD {
			best, bestD = dc, d
		}
	}
	return best
}

// CoLocated reports whether two datacenters are in the same city — the
// relationship driving the Figure 15 gap and the gateway relay hypothesis.
func CoLocated(a, b Datacenter) bool {
	return a.Location.City == b.Location.City
}

// Gateway returns the Fastly site co-located with a Wowza origin — the POP
// the gateway-relay hypothesis has fronting that origin (§5.3, Fig. 9/15) —
// or nil for the two of eight origins that share a city with no POP.
func Gateway(origin Datacenter) *Datacenter {
	sites := FastlySites()
	for i := range sites {
		if CoLocated(sites[i], origin) {
			return &sites[i]
		}
	}
	return nil
}

// DistanceClass buckets a datacenter pair the way Figure 15 groups them.
type DistanceClass int

// Figure 15's five distance groups.
const (
	ClassCoLocated  DistanceClass = iota // same city
	ClassUnder500                        // (0, 500 km]
	ClassUnder5000                       // (500, 5000 km]
	ClassUnder10000                      // (5000, 10000 km]
	ClassOver10000                       // > 10000 km
)

// String implements fmt.Stringer with the paper's legend labels.
func (c DistanceClass) String() string {
	switch c {
	case ClassCoLocated:
		return "Co-located (0km)"
	case ClassUnder500:
		return "(0, 500km]"
	case ClassUnder5000:
		return "(500, 5,000km]"
	case ClassUnder10000:
		return "(5,000, 10,000km]"
	case ClassOver10000:
		return ">10,000km"
	default:
		return fmt.Sprintf("DistanceClass(%d)", int(c))
	}
}

// Classify returns the Figure 15 distance class of a datacenter pair.
func Classify(a, b Datacenter) DistanceClass {
	if CoLocated(a, b) {
		return ClassCoLocated
	}
	switch d := DistanceKm(a.Location, b.Location); {
	case d <= 500:
		return ClassUnder500
	case d <= 5000:
		return ClassUnder5000
	case d <= 10000:
		return ClassUnder10000
	default:
		return ClassOver10000
	}
}

// CoLocationAudit reports, for each Wowza site, whether a Fastly POP shares
// its city and whether one shares its continent — the §4.1 observation that
// 6/8 pairs are same-city and 7/8 same-continent.
type CoLocationAudit struct {
	WowzaID       string
	City          string
	SameCity      bool
	SameContinent bool
}

// AuditCoLocation runs the §4.1 co-location check over the two catalogs.
func AuditCoLocation(wowza, fastly []Datacenter) []CoLocationAudit {
	audits := make([]CoLocationAudit, 0, len(wowza))
	for _, w := range wowza {
		a := CoLocationAudit{WowzaID: w.ID, City: w.Location.City}
		for _, f := range fastly {
			if f.Location.City == w.Location.City {
				a.SameCity = true
			}
			if f.Location.Continent == w.Location.Continent {
				a.SameContinent = true
			}
		}
		audits = append(audits, a)
	}
	sort.Slice(audits, func(i, j int) bool { return audits[i].WowzaID < audits[j].WowzaID })
	return audits
}

// CityCatalog is a pool of user locations for workload generation: major
// cities weighted roughly by the 2015 Periscope user base (US-heavy, then
// Europe, Asia, Middle East).
func CityCatalog() []Location {
	return []Location{
		{"New York", NorthAmerica, 40.71, -74.01},
		{"Los Angeles", NorthAmerica, 34.05, -118.24},
		{"Chicago", NorthAmerica, 41.88, -87.63},
		{"Houston", NorthAmerica, 29.76, -95.37},
		{"San Francisco", NorthAmerica, 37.77, -122.42},
		{"Seattle", NorthAmerica, 47.61, -122.33},
		{"Toronto", NorthAmerica, 43.65, -79.38},
		{"Mexico City", NorthAmerica, 19.43, -99.13},
		{"London", Europe, 51.51, -0.13},
		{"Paris", Europe, 48.86, 2.35},
		{"Berlin", Europe, 52.52, 13.41},
		{"Madrid", Europe, 40.42, -3.70},
		{"Rome", Europe, 41.90, 12.50},
		{"Istanbul", Europe, 41.01, 28.98},
		{"Moscow", Europe, 55.76, 37.62},
		{"Dubai", Asia, 25.20, 55.27},
		{"Riyadh", Asia, 24.71, 46.68},
		{"Tokyo", Asia, 35.68, 139.69},
		{"Seoul", Asia, 37.57, 126.98},
		{"Jakarta", Asia, -6.21, 106.85},
		{"Mumbai", Asia, 19.08, 72.88},
		{"Singapore", Asia, 1.35, 103.82},
		{"Sydney", Oceania, -33.87, 151.21},
		{"Auckland", Oceania, -36.85, 174.76},
		{"Sao Paulo", SouthAmerica, -23.55, -46.63},
		{"Buenos Aires", SouthAmerica, -34.60, -58.38},
		{"Rio de Janeiro", SouthAmerica, -22.91, -43.17},
	}
}
