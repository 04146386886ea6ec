package main

import (
	"flag"
	"fmt"
	"syscall"
	"time"

	"repro/internal/viewersim"
)

// simday flags. The mode replays a full simulated day of the paper's
// workload through the million-viewer event engine — at -simday-scale 1 that
// is the paper's own volume (~200K broadcasts) on one machine.
var (
	simday         = flag.Bool("simday", false, "run one simulated day through the viewer event engine and exit")
	simdayScale    = flag.Float64("simday-scale", 100, "workload scale divisor (1 = full paper scale)")
	simdayFraction = flag.Float64("simday-fraction", 1, "fraction of the day to simulate (0,1]")
	simdayCap      = flag.Int("viewer-cap", 0, "max simulated viewers per broadcast (0 = uncapped)")
	realHLS        = flag.Int("real-hls", 0, "real-socket HLS viewers watching a concurrent loopback broadcast")
	realRTMP       = flag.Int("real-rtmp", 0, "real-socket RTMP viewers watching a concurrent loopback broadcast")
)

func runSimday(seed uint64, chunk time.Duration, rtmpCap int) error {
	cfg := viewersim.Config{
		Seed:          seed,
		Scale:         *simdayScale,
		DayFraction:   *simdayFraction,
		ViewerCap:     *simdayCap,
		ChunkDuration: chunk,
		RTMPCap:       rtmpCap,
		RealHLS:       *realHLS,
		RealRTMP:      *realRTMP,
	}
	fmt.Printf("simday: scale 1:%g, %.0f%% of the day\n", cfg.Scale, *simdayFraction*100)
	start := time.Now()
	sum, err := viewersim.Run(cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	fmt.Println(sum)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	fmt.Printf("simulated %v of platform time in %v wall (%.0f events/sec on %d partitions, peak RSS %.0f MB)\n",
		sum.End.Sub(sum.Start).Round(time.Second), wall.Round(time.Millisecond),
		float64(sum.Events)/wall.Seconds(), viewersim.Partitions(sum.Broadcasts),
		float64(ru.Maxrss)/1024) // Linux reports ru_maxrss in KB
	if sum.RealHLS > 0 || sum.RealRTMP > 0 {
		fmt.Printf("real-socket slice: %d hls viewers (%d polls), %d rtmp viewers (%d frames)\n",
			sum.RealHLS, sum.RealPolls, sum.RealRTMP, sum.RealFrames)
	}
	return nil
}
