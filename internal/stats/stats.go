// Package stats implements the descriptive statistics and rendering helpers
// used to regenerate the paper's tables and figures: empirical CDFs,
// percentiles, summary moments, correlation, and fixed-width table/series
// printers that mirror the rows the paper reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the basic moments of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	StdDev float64
	Sum    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum, sumSq float64
	for _, x := range sorted {
		sum += x
		sumSq += x * x
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Median: quantileSorted(sorted, 0.5),
		StdDev: math.Sqrt(variance),
		Sum:    sum,
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 1 {
		return 0
	}
	m := Mean(xs)
	var sq float64
	for _, x := range xs {
		d := x - m
		sq += d * d
	}
	return math.Sqrt(sq / float64(len(xs)))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. The input is copied.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return quantileSorted(c.sorted, q)
}

// Points samples the CDF at n evenly spaced probabilities in (0, 1],
// returning (value, probability) pairs suitable for plotting a CDF curve.
func (c *CDF) Points(n int) []Point {
	if n <= 0 || len(c.sorted) == 0 {
		return nil
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		q := float64(i) / float64(n)
		pts = append(pts, Point{X: quantileSorted(c.sorted, q), Y: q})
	}
	return pts
}

// Point is a generic (x, y) pair in a rendered series.
type Point struct{ X, Y float64 }

// PearsonR returns the Pearson correlation coefficient of paired samples.
// It returns 0 when either sample has zero variance or lengths mismatch.
func PearsonR(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// SpearmanRho returns Spearman's rank correlation of paired samples,
// robust to the heavy-tailed magnitudes in follower/viewer data (Fig. 7).
func SpearmanRho(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) == 0 {
		return 0
	}
	return PearsonR(ranks(xs), ranks(ys))
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	i := 0
	for i < len(idx) {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j) / 2
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Table renders labeled rows with aligned columns, in the spirit of the
// paper's Tables 1 and 2.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as fixed-width text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c) // no trailing padding
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 2 * (len(widths) - 1)
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is a named sequence of points, one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a set of series with axis labels — the textual form of one of
// the paper's plots.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Add appends a series.
func (f *Figure) Add(name string, pts []Point) {
	f.Series = append(f.Series, Series{Name: name, Points: pts})
}

// String renders each series as "x y" rows grouped under its name, a format
// loadable by any plotting tool.
func (f *Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# x: %s, y: %s\n", f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "\n## series: %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
		}
	}
	return b.String()
}

// FormatCount renders large counts the way the paper does (e.g. 19.6M, 164K).
func FormatCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return trimZero(fmt.Sprintf("%.1fB", float64(n)/1e9))
	case n >= 1_000_000:
		return trimZero(fmt.Sprintf("%.1fM", float64(n)/1e6))
	case n >= 1_000:
		return trimZero(fmt.Sprintf("%.1fK", float64(n)/1e3))
	default:
		return fmt.Sprintf("%d", n)
	}
}

func trimZero(s string) string {
	return strings.Replace(s, ".0", "", 1)
}
