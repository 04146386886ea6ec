package cdn

import (
	"context"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/media"
	"repro/internal/rng"
)

// BenchmarkOriginIngest measures the per-frame cost of the chunking path —
// the server-side work RTMP ingest adds on top of fan-out.
func BenchmarkOriginIngest(b *testing.B) {
	o := NewOrigin(OriginConfig{Site: site("o", "X")})
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(1))
	frames := make([]media.Frame, 256)
	for i := range frames {
		frames[i] = enc.Next(time.Unix(0, int64(i)))
	}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Ingest("bench", frames[i%len(frames)], now)
	}
}

// BenchmarkEdgeCacheHit measures the steady-state HLS serving cost: a poll
// answered from the edge cache (the scalable case of Fig. 14).
func BenchmarkEdgeCacheHit(b *testing.B) {
	o := NewOrigin(OriginConfig{Site: site("o", "X"), ChunkDuration: time.Second})
	e := NewEdge(EdgeConfig{
		Site:    site("e", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: o}, nil },
	})
	o.RegisterEdge(e)
	feedFrames(o, "bench", 75)
	ctx := context.Background()
	if _, err := e.ChunkList(ctx, "bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ChunkList(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgePull measures the expensive case: a poll that triggers the
// origin pull (cache invalidated every iteration).
func BenchmarkEdgePull(b *testing.B) {
	o := NewOrigin(OriginConfig{Site: site("o", "X"), ChunkDuration: time.Second})
	e := NewEdge(EdgeConfig{
		Site:    site("e", "Y"),
		Resolve: func(string) (Upstream, error) { return Upstream{Store: o}, nil },
	})
	feedFrames(o, "bench", 75)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.invalidate("bench", uint64(i+10))
		if _, err := e.ChunkList(ctx, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearestSelection measures the anycast routing decision.
func BenchmarkNearestSelection(b *testing.B) {
	topo := Build(TopologyConfig{})
	locs := make([]struct{ lat, lon float64 }, 64)
	src := rng.New(3)
	for i := range locs {
		locs[i].lat = src.Float64()*160 - 80
		locs[i].lon = src.Float64()*360 - 180
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := locs[i%len(locs)]
		topo.NearestEdge(geo.Location{Lat: l.lat, Lon: l.lon})
	}
}
