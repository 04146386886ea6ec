package social

import "testing"

func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 10_000
	cfg.Communities = 50
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		Generate(cfg)
	}
}

func BenchmarkComputeMetrics(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Nodes = 10_000
	cfg.Communities = 50
	g := Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeMetrics(g, MetricsOptions{Seed: uint64(i + 1), ClusteringSample: 500, PathSources: 8})
	}
}
