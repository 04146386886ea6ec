package player

import (
	"testing"
	"time"

	"repro/internal/rng"
)

func benchItems(n int) []Item {
	src := rng.New(1)
	items := make([]Item, n)
	for i := range items {
		jitter := time.Duration(src.Exp(float64(500 * time.Millisecond)))
		items[i] = Item{
			Seq:      uint64(i),
			Duration: 3 * time.Second,
			ArriveAt: t0.Add(time.Duration(i)*3*time.Second + jitter),
		}
	}
	return items
}

func BenchmarkSimulate(b *testing.B) {
	items := benchItems(1200) // a one-hour broadcast of 3s chunks
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(items, Config{PreBuffer: 6 * time.Second})
	}
}
