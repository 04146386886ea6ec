package delay_test

import (
	"fmt"

	"repro/internal/delay"
)

// ExampleRunControlled reproduces the paper's §4.3 controlled experiment
// and prints the Figure 11 headline: HLS pays roughly an order of magnitude
// more end-to-end delay than RTMP, dominated by client buffering.
func ExampleRunControlled() {
	rtmp, hls := delay.RunControlled(delay.ControlledConfig{Seed: 42})
	fmt.Printf("RTMP total ≈ %.0fs, HLS total ≈ %.0fs\n",
		rtmp.Total().Seconds(), hls.Total().Seconds())
	fmt.Printf("HLS dominated by buffering: %v\n",
		hls.Buffering > hls.Chunking && hls.Chunking > hls.Polling)
	// Output:
	// RTMP total ≈ 1s, HLS total ≈ 11s
	// HLS dominated by buffering: true
}
