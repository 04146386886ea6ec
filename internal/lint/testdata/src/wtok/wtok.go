// Fixture for the walltime analyzer, negative case: a main package picks the
// clock it injects, so wall-clock reads are fine here.
package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/clock"
)

func main() {
	_ = time.Now()
	time.Sleep(time.Millisecond)
	_ = rand.Float64()
	_ = clock.Real{}.Sleep(context.Background(), time.Millisecond)
}
