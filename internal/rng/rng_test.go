package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at draw %d", i)
		}
	}
}

// TestResetMatchesNewStream pins the one seeding path: a used Source re-seeded
// in place draws what a fresh NewStream draws, without allocating, and
// NewStream's output is the same as before Reset existed.
func TestResetMatchesNewStream(t *testing.T) {
	s := New(42)
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	s.Reset(1, 2)
	fresh := NewStream(1, 2)
	for i, want := range []uint64{0xf5deba95bd7525b, 0xb2473657741c8ff9, 0x226e7b9893562bff} {
		if got, ref := s.Uint64(), fresh.Uint64(); got != want || ref != want {
			t.Fatalf("draw %d: Reset %#x, NewStream %#x, want %#x", i, got, ref, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Reset(3, 4) }); allocs != 0 {
		t.Fatalf("Reset allocates %.0f per call, want 0", allocs)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split("workload")
	parent2 := New(7)
	b := parent2.Split("workload")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic for equal seed+label")
		}
	}
	c := New(7).Split("workload")
	d := New(7).Split("netsim")
	diff := false
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("distinct labels produced identical streams")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.1 {
		t.Fatalf("exponential mean = %v, want ≈3", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(17)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("normal mean = %v, want ≈5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev = %v, want ≈2", math.Sqrt(variance))
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(23)
	for _, mean := range []float64{0.5, 4, 40, 800} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonZeroAndNegative(t *testing.T) {
	s := New(29)
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive mean should be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(31)
	z := NewZipf(s, 1000, 1.0)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Fatalf("Zipf not monotone-skewed: c0=%d c10=%d c500=%d",
			counts[0], counts[10], counts[500])
	}
	// Rank 0 should dominate: p(0) = 1/H_1000 ≈ 0.133.
	frac := float64(counts[0]) / n
	if frac < 0.10 || frac > 0.17 {
		t.Fatalf("Zipf rank-0 frequency = %v, want ≈0.133", frac)
	}
}

func TestZipfRange(t *testing.T) {
	s := New(37)
	z := NewZipf(s, 10, 2)
	for i := 0; i < 10000; i++ {
		v := z.Draw()
		if v < 0 || v >= 10 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(41)
	p := s.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

// Property: Uint64n always lands inside its bound.
func TestUint64nBoundProperty(t *testing.T) {
	s := New(43)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return s.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Bool(0) never true, Bool(1) always true.
func TestBoolExtremesProperty(t *testing.T) {
	s := New(47)
	for i := 0; i < 1000; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}
