package player

import (
	"testing"
	"time"

	"repro/internal/rng"
)

func BenchmarkPlayer(b *testing.B) {
	src := rng.New(1)
	items := jittered(1200, 3*time.Second, func() time.Duration { // a one-hour broadcast of 3s chunks
		return time.Duration(src.Exp(float64(500 * time.Millisecond)))
	})
	var p Player
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reset(6 * time.Second)
		for _, it := range items {
			p.Add(it.arr, it.dur)
		}
		p.Result()
	}
}
