package social

import (
	"sort"
	"strings"
	"testing"
)

// smallConfig keeps unit tests fast; calibration checks use a larger graph.
func smallConfig() Config {
	return Config{Nodes: 3000, EdgesPerNode: 10, TriadProb: 0.25, CelebrityFraction: 0.001, Seed: 7}
}

func TestGenerateBasicShape(t *testing.T) {
	cfg := smallConfig()
	g := Generate(cfg)
	if g.N() != cfg.Nodes {
		t.Fatalf("N = %d", g.N())
	}
	e := g.Edges()
	expect := cfg.Nodes * cfg.EdgesPerNode
	if e < expect/2 || e > expect*2 {
		t.Fatalf("edges = %d, want ≈%d", e, expect)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallConfig())
	b := Generate(smallConfig())
	if a.Edges() != b.Edges() {
		t.Fatal("same seed produced different graphs")
	}
	ac, bc := a.FollowerCounts(), b.FollowerCounts()
	for v := 0; v < a.N(); v += 97 {
		if ac[v] != bc[v] {
			t.Fatal("same seed produced different degrees")
		}
	}
}

func TestNoSelfLoopsOrDuplicates(t *testing.T) {
	g := Generate(smallConfig())
	for u := 0; u < g.N(); u++ {
		seen := map[int32]bool{}
		for _, v := range g.out[u] {
			if v == int32(u) {
				t.Fatalf("self loop at %d", u)
			}
			if seen[v] {
				t.Fatalf("duplicate edge %d→%d", u, v)
			}
			seen[v] = true
		}
	}
}

func TestFollowerCountsHeavyTail(t *testing.T) {
	g := Generate(smallConfig())
	counts := g.FollowerCounts()
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// A hub-dominated graph: the top node has far more followers than
	// the median node (Fig. 7's celebrity effect).
	median := counts[len(counts)/2]
	if counts[0] < 20*max(median, 1) {
		t.Fatalf("top followers = %d, median = %d: no heavy tail", counts[0], median)
	}
}

// FollowerCounts (Fig. 7's x-axis) is every node's in-degree: the number
// of follow edges that point at it.
func TestFollowerCountsConsistent(t *testing.T) {
	g := Generate(Config{Nodes: 500, EdgesPerNode: 5, Seed: 3})
	want := make([]int, g.N())
	for _, outs := range g.out {
		for _, v := range outs {
			want[v]++
		}
	}
	got := g.FollowerCounts()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: FollowerCounts = %d, edges pointing at it = %d", v, got[v], want[v])
		}
	}
}

func TestMetricsMatchPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration graph too large for -short")
	}
	cfg := DefaultConfig()
	cfg.Nodes = 30_000
	cfg.Communities = 150 // keep community size ≈200 at the smaller scale
	g := Generate(cfg)
	m := ComputeMetrics(g, MetricsOptions{Seed: 2})
	// Targets from Table 2's Periscope row. Degree is structural.
	if m.AvgDegree < 30 || m.AvgDegree > 48 {
		t.Fatalf("avg degree = %v, want ≈38.6", m.AvgDegree)
	}
	// Clustering well above random (Twitter's 0.065) but near 0.13.
	if m.Clustering < 0.05 || m.Clustering > 0.30 {
		t.Fatalf("clustering = %v, want ≈0.13", m.Clustering)
	}
	// Short average paths (hub-dominated small world).
	if m.AvgPath < 2.5 || m.AvgPath > 5.5 {
		t.Fatalf("avg path = %v, want ≈3.74", m.AvgPath)
	}
	// Negative assortativity like Twitter, not positive like Facebook,
	// and mild like the paper's -0.057.
	if m.Assortativity >= 0 {
		t.Fatalf("assortativity = %v, want negative (paper: -0.057)", m.Assortativity)
	}
	if m.Assortativity < -0.25 {
		t.Fatalf("assortativity = %v, implausibly disassortative", m.Assortativity)
	}
}

func TestComputeMetricsSmall(t *testing.T) {
	g := Generate(Config{Nodes: 200, EdgesPerNode: 4, Seed: 9})
	m := ComputeMetrics(g, MetricsOptions{ClusteringSample: 100, PathSources: 8, Seed: 1})
	if m.Nodes != 200 || m.Edges == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.AvgPath <= 0 {
		t.Fatal("no path lengths measured")
	}
	if m.Clustering < 0 || m.Clustering > 1 {
		t.Fatalf("clustering out of range: %v", m.Clustering)
	}
	if m.Assortativity < -1 || m.Assortativity > 1 {
		t.Fatalf("assortativity out of range: %v", m.Assortativity)
	}
}

func TestTable2Renders(t *testing.T) {
	m := Metrics{Nodes: 120000, Edges: 2300000, AvgDegree: 38.3, Clustering: 0.12, AvgPath: 3.5, Assortativity: -0.06}
	out := Table2(m).String()
	for _, want := range []string{"Periscope (reproduced)", "Facebook [46]", "Twitter [36]", "38.3", "-0.060"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestPaperReferenceRows(t *testing.T) {
	rows := PaperReferenceRows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Assortativity >= 0 || rows[2].Assortativity >= 0 {
		t.Fatal("Periscope and Twitter must be negatively assortative")
	}
	if rows[1].Assortativity <= 0 {
		t.Fatal("Facebook must be positively assortative")
	}
}

func TestGeneratePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate(0 nodes) did not panic")
		}
	}()
	Generate(Config{})
}
