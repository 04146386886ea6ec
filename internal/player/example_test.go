package player_test

import (
	"fmt"
	"time"

	"repro/internal/player"
)

// ExamplePlayer replays the §6 buffering strategy over a chunk stream whose
// sixth chunk is held up for 7 s, delaying every chunk behind it (TCP
// delivers in order), and shows the smoothness/latency trade-off of the
// pre-buffer.
func ExamplePlayer() {
	var p player.Player
	for _, pre := range []time.Duration{0, 9 * time.Second} {
		p.Reset(pre)
		var arrival time.Duration
		for i := 0; i < 10; i++ {
			arrival = max(arrival, time.Duration(i)*3*time.Second)
			if i == 5 {
				arrival += 7 * time.Second
			}
			p.Add(arrival, 3*time.Second)
		}
		r := p.Result()
		fmt.Printf("P=%v: stall=%.2f delay=%v\n", pre, r.StallRatio, r.MeanBufferingDelay)
	}
	// Output:
	// P=0s: stall=0.20 delay=0s
	// P=9s: stall=0.00 delay=4.9s
}
