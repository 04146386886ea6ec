package netsim

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/stats"

	"repro/internal/testutil"
)

func locs() (geo.Location, geo.Location, geo.Location) {
	ashburn := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}
	sanjose := geo.Location{City: "San Jose", Lat: 37.34, Lon: -121.89}
	sydney := geo.Location{City: "Sydney", Lat: -33.87, Lon: 151.21}
	return ashburn, sanjose, sydney
}

func TestPropagationScalesWithDistance(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(1))
	a, sj, syd := locs()
	near := m.Propagation(a, sj)
	far := m.Propagation(a, syd)
	if near >= far {
		t.Fatalf("near (%v) >= far (%v)", near, far)
	}
	// Ashburn–San Jose ≈ 3800 km routed → ≈19 ms + processing.
	if near < 10*time.Millisecond || near > 60*time.Millisecond {
		t.Fatalf("transcontinental propagation = %v, implausible", near)
	}
	// Ashburn–Sydney ≈ 15700 km great-circle → >100 ms one-way.
	if far < 100*time.Millisecond {
		t.Fatalf("transpacific propagation = %v, implausible", far)
	}
}

func TestPropagationSelf(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(1))
	a, _, _ := locs()
	d := m.Propagation(a, a)
	if d != DefaultParams().ProcessingDelay {
		t.Fatalf("self propagation = %v, want processing only", d)
	}
}

func TestOneWayJitterDistribution(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(2))
	a, sj, _ := locs()
	base := m.Propagation(a, sj)
	var xs []float64
	for i := 0; i < 5000; i++ {
		xs = append(xs, float64(m.OneWay(a, sj)))
	}
	s := stats.Summarize(xs)
	// Lognormal(0, 0.25) has median 1, so the sample median should sit
	// near the deterministic base.
	if ratio := s.Median / float64(base); ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("median/base = %v, want ≈1", ratio)
	}
	if s.Min <= 0 {
		t.Fatal("one-way delay must be positive")
	}
	if s.StdDev == 0 {
		t.Fatal("jitter produced no variance")
	}
}

func TestRTTGreaterThanOneWay(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(3))
	a, _, syd := locs()
	for i := 0; i < 100; i++ {
		if m.RTT(a, syd) <= m.Propagation(a, syd) {
			t.Fatal("RTT fell below one-way propagation")
		}
	}
}

func TestTransferGrowsWithSize(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{JitterSigma: 1e-9}, rng.New(4))
	a, sj, _ := locs()
	small := m.Transfer(a, sj, 1_000)
	big := m.Transfer(a, sj, 50_000_000)
	if big <= small {
		t.Fatalf("transfer(50MB)=%v <= transfer(1KB)=%v", big, small)
	}
	// 50 MB at 50 MB/s ≈ 1 s serialization.
	if big-small < 900*time.Millisecond {
		t.Fatalf("serialization delta = %v, want ≈1s", big-small)
	}
}

// slowerLinks are two access profiles each worse than WiFi in every
// parameter, the second worse than the first.
var slowerLinks = []AccessProfile{
	{
		Name: "lte", Base: 45 * time.Millisecond, JitterSigma: 0.45,
		LossBurstProb: 0.01, BurstPenalty: 200 * time.Millisecond,
		BytesPerSec: 1.5e6,
	},
	{
		Name: "congested", Base: 90 * time.Millisecond, JitterSigma: 0.7,
		LossBurstProb: 0.05, BurstPenalty: 600 * time.Millisecond,
		BytesPerSec: 400e3,
	},
}

func TestLastMileProfilesOrdered(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(5))
	mean := func(p AccessProfile) float64 {
		var sum float64
		for i := 0; i < 3000; i++ {
			sum += float64(m.LastMile(p, 1400))
		}
		return sum / 3000
	}
	wifi, lte, cong := mean(WiFi), mean(slowerLinks[0]), mean(slowerLinks[1])
	if !(wifi < lte && lte < cong) {
		t.Fatalf("profile ordering broken: wifi=%v lte=%v congested=%v", wifi, lte, cong)
	}
}

func TestLastMilePositive(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{}, rng.New(6))
	for i := 0; i < 1000; i++ {
		if m.LastMile(slowerLinks[1], 100000) <= 0 {
			t.Fatal("non-positive last-mile delay")
		}
	}
}

func TestModelDeterminism(t *testing.T) {
	testutil.CheckGoroutines(t)
	a, _, syd := locs()
	m1 := NewModel(Params{}, rng.New(9))
	m2 := NewModel(Params{}, rng.New(9))
	for i := 0; i < 100; i++ {
		if m1.OneWay(a, syd) != m2.OneWay(a, syd) {
			t.Fatal("identical seeds produced different delays")
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	testutil.CheckGoroutines(t)
	m := NewModel(Params{FiberKmPerMs: 100}, rng.New(10))
	if m.p.FiberKmPerMs != 100 {
		t.Fatal("explicit param overwritten")
	}
	if m.p.RouteInflation == 0 || m.p.JitterSigma == 0 || m.p.BackboneBytesPerSec == 0 {
		t.Fatal("zero params not defaulted")
	}
}
