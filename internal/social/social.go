// Package social models Periscope's follow graph (§3.2, Table 2, Fig. 7).
// The paper crawled follower/followee lists for 12M users and found a graph
// of asymmetric links: average degree 38.6, clustering 0.130, average path
// 3.74, and negative assortativity (−0.057) like Twitter's.
//
// We substitute a generative model: directed preferential attachment (which
// yields the hub-dominated, negatively assortative structure of one-to-many
// follow relationships) plus triad closure (for clustering), plus a small
// celebrity cohort with enormous follower counts (Fig. 7's x-axis reaches
// 10^6 followers). Metrics are computed the standard way so Table 2's row
// can be regenerated from the synthetic graph.
package social

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Graph is a directed follow graph: an edge u→v means u follows v.
// Node IDs are dense ints in [0, N).
type Graph struct {
	out [][]int32
	in  []int32 // in-degree (follower count)
}

// Config parameterizes Generate.
type Config struct {
	// Nodes is the user count. The paper's graph has 12M; the default
	// experiment scale uses 120K (1:100).
	Nodes int
	// EdgesPerNode is the mean out-degree of a joining node (≈19 gives
	// the paper's 38.6 total average degree).
	EdgesPerNode int
	// TriadProb is the probability a new edge closes a triangle through
	// an existing followee instead of attaching preferentially, tuning
	// the clustering coefficient.
	TriadProb float64
	// CelebrityFraction of the earliest nodes get a large attachment
	// boost, producing the 10^5–10^6-follower tail of Fig. 7.
	CelebrityFraction float64
	// Communities partitions users into interest groups (see
	// communityBias). Community structure lengthens paths, raises
	// clustering, and softens disassortativity — real social graphs (and
	// Table 2's numbers) need it. Zero disables.
	Communities int
	// Seed drives generation.
	Seed uint64
}

// The attachment mix of a non-triad edge, calibrated with DefaultConfig.
const (
	// uniformMix is the probability a non-triad edge attaches to a
	// uniformly random node instead of preferentially. It tempers hub
	// dominance, lengthening paths and softening disassortativity toward
	// the paper's mild −0.057.
	uniformMix = 0.70
	// communityBias is the probability a non-triad edge stays inside the
	// node's own community, when there are communities.
	communityBias = 0.80
)

// DefaultConfig returns the calibration used for Table 2 at 1:100 scale,
// chosen so the synthetic graph reproduces the paper's measured Periscope
// row: avg degree 38.6, clustering 0.130, avg path 3.74, assortativity
// −0.057 (measured on this config: 38.5 / 0.095 / 3.27 / −0.070).
func DefaultConfig() Config {
	return Config{
		Nodes:             120_000,
		EdgesPerNode:      20,
		TriadProb:         0.50,
		CelebrityFraction: 0.0002,
		Communities:       600,
		Seed:              1,
	}
}

// Generate builds a follow graph.
func Generate(cfg Config) *Graph {
	if cfg.Nodes <= 0 {
		panic("social: Generate with no nodes")
	}
	if cfg.EdgesPerNode <= 0 {
		cfg.EdgesPerNode = 19
	}
	src := rng.New(cfg.Seed)
	g := &Graph{
		out: make([][]int32, cfg.Nodes),
		in:  make([]int32, cfg.Nodes),
	}
	// Community assignment: node v's interest group. Members arrive
	// interleaved (v mod K) so every community has early members to
	// attach to.
	commOf := func(v int32) int {
		if cfg.Communities <= 1 {
			return 0
		}
		return int(v) % cfg.Communities
	}
	commPools := make([][]int32, max(cfg.Communities, 1))
	// pool holds one entry per received follow, so uniform sampling from
	// it is preferential attachment on in-degree. Celebrities are seeded
	// with extra pool mass.
	pool := make([]int32, 0, cfg.Nodes*cfg.EdgesPerNode+16)
	nCeleb := int(float64(cfg.Nodes) * cfg.CelebrityFraction)
	if nCeleb < 1 {
		nCeleb = 1
	}
	addPool := func(t int32) {
		pool = append(pool, t)
		if cfg.Communities > 1 {
			c := commOf(t)
			commPools[c] = append(commPools[c], t)
		}
	}
	seed := cfg.EdgesPerNode + 1
	if seed > cfg.Nodes {
		seed = cfg.Nodes
	}
	if cfg.Communities > 1 && seed < 2*cfg.Communities {
		seed = 2 * cfg.Communities
		if seed > cfg.Nodes {
			seed = cfg.Nodes
		}
	}
	// Seed core so early sampling works in every community.
	for v := 0; v < seed; v++ {
		for u := 0; u < seed; u++ {
			if u != v && src.Bool(float64(cfg.EdgesPerNode)/float64(seed)) {
				g.addEdge(int32(u), int32(v))
				addPool(int32(v))
			}
		}
	}
	// Celebrity boost: early nodes get extra attachment mass, modelling
	// off-platform fame (Ellen DeGeneres with >1M followers, §3.2).
	for c := 0; c < nCeleb; c++ {
		boost := 40 + src.Intn(160)
		for i := 0; i < boost; i++ {
			addPool(int32(c % seed))
		}
	}
	for v := seed; v < cfg.Nodes; v++ {
		// Out-degree varies around the mean: many lurkers follow few,
		// a minority follows many (geometric-ish draw).
		m := 1 + int(src.Exp(float64(cfg.EdgesPerNode-1)))
		if m > 4*cfg.EdgesPerNode {
			m = 4 * cfg.EdgesPerNode
		}
		chosen := make(map[int32]bool, m)
		for len(chosen) < m {
			var target int32
			switch {
			case len(g.out[v]) > 0 && src.Bool(cfg.TriadProb):
				// Triad closure: follow a followee of a followee.
				via := g.out[v][src.Intn(len(g.out[v]))]
				if len(g.out[via]) == 0 {
					continue
				}
				target = g.out[via][src.Intn(len(g.out[via]))]
			case cfg.Communities > 1 && src.Bool(communityBias):
				// Stay inside the node's interest community.
				comm := commOf(int32(v))
				if src.Bool(uniformMix) {
					// Uniform member of the community below v.
					n := (v - 1 - comm) / cfg.Communities
					if n < 0 {
						continue
					}
					target = int32(comm + cfg.Communities*src.Intn(n+1))
				} else {
					cp := commPools[comm]
					if len(cp) == 0 {
						continue
					}
					target = cp[src.Intn(len(cp))]
				}
			case src.Bool(uniformMix):
				target = int32(src.Intn(v))
			default:
				target = pool[src.Intn(len(pool))]
			}
			if target == int32(v) || chosen[target] {
				// Fall back to a uniform node to guarantee
				// progress in degenerate corners.
				target = int32(src.Intn(cfg.Nodes))
				if target == int32(v) || chosen[target] {
					continue
				}
			}
			chosen[target] = true
			g.addEdge(int32(v), target)
			addPool(target)
		}
	}
	return g
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (g *Graph) addEdge(u, v int32) {
	g.out[u] = append(g.out[u], v)
	g.in[v]++
}

// N returns the node count.
func (g *Graph) N() int { return len(g.out) }

// Edges returns the directed edge count.
func (g *Graph) Edges() int {
	n := 0
	for _, adj := range g.out {
		n += len(adj)
	}
	return n
}

// FollowerCounts returns every node's follower count.
func (g *Graph) FollowerCounts() []int {
	out := make([]int, len(g.in))
	for i, d := range g.in {
		out[i] = int(d)
	}
	return out
}

// Metrics are the Table 2 statistics.
type Metrics struct {
	Nodes         int
	Edges         int
	AvgDegree     float64 // 2E/N, both directions as in the paper's table
	Clustering    float64 // mean local clustering on the undirected view
	AvgPath       float64 // mean shortest path on the undirected view
	Assortativity float64 // degree correlation across undirected edges
}

// MetricsOptions bound the sampling cost on large graphs.
type MetricsOptions struct {
	// ClusteringSample caps nodes used for local clustering (default 2000).
	ClusteringSample int
	// PathSources caps BFS sources for average path length (default 32).
	PathSources int
	// Seed drives sampling.
	Seed uint64
}

// ComputeMetrics measures the graph.
func ComputeMetrics(g *Graph, opts MetricsOptions) Metrics {
	if opts.ClusteringSample == 0 {
		opts.ClusteringSample = 2000
	}
	if opts.PathSources == 0 {
		opts.PathSources = 32
	}
	src := rng.New(opts.Seed)
	und := undirected(g)
	m := Metrics{Nodes: g.N(), Edges: g.Edges()}
	m.AvgDegree = 2 * float64(m.Edges) / float64(m.Nodes)
	m.Clustering = clustering(und, src, opts.ClusteringSample)
	m.AvgPath = avgPath(und, src, opts.PathSources)
	m.Assortativity = assortativity(und)
	return m
}

// undirected builds deduplicated undirected adjacency.
func undirected(g *Graph) [][]int32 {
	adj := make([][]int32, g.N())
	for u, outs := range g.out {
		for _, v := range outs {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], int32(u))
		}
	}
	for i := range adj {
		a := adj[i]
		sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
		dedup := a[:0]
		var prev int32 = -1
		for _, v := range a {
			if v != prev && v != int32(i) {
				dedup = append(dedup, v)
				prev = v
			}
		}
		adj[i] = dedup
	}
	return adj
}

func clustering(adj [][]int32, src *rng.Source, sample int) float64 {
	n := len(adj)
	idx := src.Perm(n)
	total, count := 0.0, 0
	for _, v := range idx {
		if count >= sample {
			break
		}
		neigh := adj[v]
		k := len(neigh)
		if k < 2 {
			continue
		}
		set := make(map[int32]bool, k)
		for _, u := range neigh {
			set[u] = true
		}
		links := 0
		for _, u := range neigh {
			for _, w := range adj[u] {
				if w > u && set[w] {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(k*(k-1))
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

func avgPath(adj [][]int32, src *rng.Source, sources int) float64 {
	n := len(adj)
	if n == 0 {
		return 0
	}
	var sum, cnt float64
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < sources; s++ {
		start := int32(src.Intn(n))
		for i := range dist {
			dist[i] = -1
		}
		dist[start] = 0
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for _, d := range dist {
			if d > 0 {
				sum += float64(d)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / cnt
}

func assortativity(adj [][]int32) float64 {
	var xs, ys []float64
	for u, neigh := range adj {
		du := float64(len(neigh))
		for _, v := range neigh {
			if int32(u) < v { // count each undirected edge once, both ways
				dv := float64(len(adj[v]))
				xs = append(xs, du, dv)
				ys = append(ys, dv, du)
			}
		}
	}
	return stats.PearsonR(xs, ys)
}

// ReferenceRow is a published social-graph row for Table 2 context.
type ReferenceRow struct {
	Network       string
	Nodes         string
	Edges         string
	AvgDegree     float64
	Clustering    float64
	AvgPath       float64
	Assortativity float64
}

// PaperReferenceRows returns the Facebook [46] and Twitter [36] rows the
// paper compares against, plus its measured Periscope row.
func PaperReferenceRows() []ReferenceRow {
	return []ReferenceRow{
		{Network: "Periscope (paper)", Nodes: "12M", Edges: "231M", AvgDegree: 38.6, Clustering: 0.130, AvgPath: 3.74, Assortativity: -0.057},
		{Network: "Facebook [46]", Nodes: "1.22M", Edges: "121M", AvgDegree: 199.6, Clustering: 0.175, AvgPath: 5.13, Assortativity: 0.17},
		{Network: "Twitter [36]", Nodes: "1.62M", Edges: "11.3M", AvgDegree: 13.99, Clustering: 0.065, AvgPath: 6.49, Assortativity: -0.19},
	}
}

// Table2 renders the measured metrics next to the paper's reference rows.
func Table2(m Metrics) *stats.Table {
	t := &stats.Table{
		Title:   "Table 2: Basic statistics of the social graphs",
		Headers: []string{"Network", "Nodes", "Edges", "Avg.Degree", "Cluster.Coef.", "Avg.Path", "Assort."},
	}
	t.AddRow("Periscope (reproduced)",
		stats.FormatCount(int64(m.Nodes)), stats.FormatCount(int64(m.Edges)),
		fmt.Sprintf("%.1f", m.AvgDegree), fmt.Sprintf("%.3f", m.Clustering),
		fmt.Sprintf("%.2f", m.AvgPath), fmt.Sprintf("%.3f", m.Assortativity))
	for _, r := range PaperReferenceRows() {
		t.AddRow(r.Network, r.Nodes, r.Edges,
			fmt.Sprintf("%.1f", r.AvgDegree), fmt.Sprintf("%.3f", r.Clustering),
			fmt.Sprintf("%.2f", r.AvgPath), fmt.Sprintf("%.3f", r.Assortativity))
	}
	return t
}
