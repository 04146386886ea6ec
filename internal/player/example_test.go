package player_test

import (
	"fmt"
	"time"

	"repro/internal/player"
)

// ExampleSimulate replays the §6 buffering strategy over a jittery chunk
// stream and shows the smoothness/latency trade-off of the pre-buffer.
func ExampleSimulate() {
	start := time.Date(2015, 5, 15, 0, 0, 0, 0, time.UTC)
	var items []player.Item
	for i := 0; i < 10; i++ {
		late := time.Duration(0)
		if i == 5 {
			late = 7 * time.Second // one chunk arrives far too late
		}
		items = append(items, player.Item{
			Seq:      uint64(i),
			Duration: 3 * time.Second,
			ArriveAt: start.Add(time.Duration(i)*3*time.Second + late),
		})
	}
	for _, p := range []time.Duration{0, 9 * time.Second} {
		r := player.Simulate(items, player.Config{PreBuffer: p})
		fmt.Printf("P=%v: stall=%.2f delay=%v\n", p, r.StallRatio, r.MeanBufferingDelay)
	}
	// Output:
	// P=0s: stall=0.10 delay=0s
	// P=9s: stall=0.00 delay=5.4s
}
