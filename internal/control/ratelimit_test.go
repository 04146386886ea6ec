package control

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/testutil"
)

func TestRateLimiterBurstThenThrottle(t *testing.T) {
	vc := clock.NewWheel(clock.WheelConfig{})
	rl := NewRateLimiter(RateLimiterConfig{RequestsPerSecond: 2, Burst: 3, Clock: vc})
	for i := 0; i < 3; i++ {
		if !rl.Allow("1.2.3.4") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if rl.Allow("1.2.3.4") {
		t.Fatal("request beyond burst allowed")
	}
	// Half a second refills one token at 2 rps.
	vc.Advance(500 * time.Millisecond)
	if !rl.Allow("1.2.3.4") {
		t.Fatal("refilled token denied")
	}
	if rl.Allow("1.2.3.4") {
		t.Fatal("second token appeared from nowhere")
	}
}

func TestRateLimiterPerClientIsolation(t *testing.T) {
	vc := clock.NewWheel(clock.WheelConfig{})
	rl := NewRateLimiter(RateLimiterConfig{RequestsPerSecond: 1, Burst: 1, Clock: vc})
	if !rl.Allow("a") || rl.Allow("a") {
		t.Fatal("client a bucket broken")
	}
	if !rl.Allow("b") {
		t.Fatal("client b throttled by client a")
	}
}

func TestRateLimiterWhitelist(t *testing.T) {
	vc := clock.NewWheel(clock.WheelConfig{})
	rl := NewRateLimiter(RateLimiterConfig{
		RequestsPerSecond: 1, Burst: 1, Clock: vc,
		Whitelist: []string{"10.0.0.9"},
	})
	// The paper's whitelisted crawler range: unlimited.
	for i := 0; i < 100; i++ {
		if !rl.Allow("10.0.0.9") {
			t.Fatalf("whitelisted client throttled at request %d", i)
		}
	}
}

func TestRateLimiterTokensCapAtBurst(t *testing.T) {
	vc := clock.NewWheel(clock.WheelConfig{})
	rl := NewRateLimiter(RateLimiterConfig{RequestsPerSecond: 100, Burst: 2, Clock: vc})
	rl.Allow("c")
	vc.Advance(time.Hour) // would refill millions without the cap
	for i := 0; i < 2; i++ {
		if !rl.Allow("c") {
			t.Fatalf("token %d denied after refill", i)
		}
	}
	if rl.Allow("c") {
		t.Fatal("bucket exceeded burst cap")
	}
}

func TestRateLimiterSweep(t *testing.T) {
	vc := clock.NewWheel(clock.WheelConfig{})
	rl := NewRateLimiter(RateLimiterConfig{Clock: vc})
	rl.Allow("old")
	vc.Advance(2 * time.Hour)
	rl.Allow("fresh")
	if n := rl.Sweep(time.Hour); n != 1 {
		t.Fatalf("swept %d buckets, want 1", n)
	}
}

func TestRateLimiterHTTPMiddleware(t *testing.T) {
	testutil.CheckGoroutines(t)
	rl := NewRateLimiter(RateLimiterConfig{RequestsPerSecond: 0.001, Burst: 2})
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	srv := httptest.NewServer(rl.Wrap(inner))
	defer srv.Close()
	codes := []int{}
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		codes = append(codes, resp.StatusCode)
	}
	if codes[0] != 200 || codes[1] != 200 {
		t.Fatalf("burst requests rejected: %v", codes)
	}
	if codes[2] != http.StatusTooManyRequests || codes[3] != http.StatusTooManyRequests {
		t.Fatalf("over-limit requests not throttled: %v", codes)
	}
}
