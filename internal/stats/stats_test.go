package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 || s.Sum != 15 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("median of {0,10} = %v, want 5", q)
	}
	if q := Quantile(xs, 0); q != 0 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 10 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Quantile(0.5) != 0 || c.Points(10) != nil {
		t.Fatal("empty CDF should be all zero")
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	c := NewCDF([]float64{5, 3, 9, 1, 7, 7, 2})
	pts := c.Points(20)
	if len(pts) != 20 {
		t.Fatalf("Points(20) len = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y <= pts[i-1].Y {
			t.Fatalf("CDF points not monotone at %d: %+v", i, pts)
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("last probability = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := PearsonR(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := PearsonR(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := PearsonR([]float64{1, 1, 1}, []float64{1, 2, 3}); r != 0 {
		t.Fatalf("zero-variance r = %v", r)
	}
	if r := PearsonR([]float64{1}, []float64{1, 2}); r != 0 {
		t.Fatalf("mismatched r = %v", r)
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 10, 100, 1000}
	ys := []float64{2, 3, 50, 60}
	if rho := SpearmanRho(xs, ys); math.Abs(rho-1) > 1e-12 {
		t.Fatalf("rho = %v, want 1 for monotone data", rho)
	}
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 1, 2, 2}
	ys := []float64{1, 1, 2, 2}
	if rho := SpearmanRho(xs, ys); math.Abs(rho-1) > 1e-12 {
		t.Fatalf("rho with ties = %v, want 1", rho)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"App", "Views"}}
	tab.AddRow("Periscope", "705M")
	tab.AddRow("Meerkat", "3.8M")
	out := tab.String()
	for _, want := range []string{"T", "App", "Periscope", "705M", "Meerkat"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRendering(t *testing.T) {
	fig := &Figure{Title: "F", XLabel: "x", YLabel: "y"}
	fig.Add("s1", []Point{{1, 2}, {3, 4}})
	out := fig.String()
	for _, want := range []string{"# F", "series: s1", "1\t2", "3\t4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{999, "999"},
		{1000, "1K"},
		{164335, "164.3K"},
		{19600000, "19.6M"},
		{705000000, "705M"},
		{1500000000, "1.5B"},
	}
	for _, tc := range cases {
		if got := FormatCount(tc.n); got != tc.want {
			t.Fatalf("FormatCount(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// Property: CDF.At is monotone non-decreasing and bounded by [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 0
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			a, b = 0, 1
		}
		if a > b {
			a, b = b, a
		}
		c := NewCDF(xs)
		pa, pb := c.At(a), c.At(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and At are approximately inverse on distinct samples.
func TestQuantileInverseProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		seen := map[float64]bool{}
		var xs []float64
		for _, r := range raw {
			v := float64(r)
			if !seen[v] {
				seen[v] = true
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		sort.Float64s(xs)
		c := NewCDF(xs)
		// Interpolated quantiles invert the empirical CDF only up to a
		// 1/n discretization gap; they must also be monotone in q and
		// bounded by the sample extremes.
		slack := 1/float64(len(xs)) + 1e-9
		prev := math.Inf(-1)
		for q := 0.05; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev || v < xs[0] || v > xs[len(xs)-1] {
				return false
			}
			if c.At(v) < q-slack {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
