package resilience

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
)

// ErrOpen is returned by Breaker.Allow while the circuit is open: the
// upstream has failed repeatedly and callers should fail fast (or serve
// stale) instead of queueing more doomed requests behind it.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerState is the classic three-state circuit model.
type BreakerState int

// Breaker states.
const (
	Closed BreakerState = iota
	Open
	HalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. The zero value opens after 5 consecutive
// failures and probes again after 1 s.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// circuit. Zero means 5.
	FailureThreshold int
	// OpenFor is how long the circuit stays open before a half-open
	// probe is admitted. Zero means 1 s.
	OpenFor time.Duration
	// Now is the time base the cool-down is measured on; nil means
	// clock.Real's. An owner with an injected clock passes that clock's Now.
	Now func() time.Time
}

// Breaker is a concurrency-safe circuit breaker guarding one upstream.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
}

// NewBreaker builds a Breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenFor == 0 {
		cfg.OpenFor = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = clock.Real{}.Now
	}
	return &Breaker{cfg: cfg}
}

// State returns the current state (advancing open→half-open on timeout).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.state
}

func (b *Breaker) advanceLocked() {
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.OpenFor {
		b.state = HalfOpen
		b.probing = false
	}
}

// Allow reports whether a request may proceed. In half-open state exactly
// one probe is admitted at a time; its Report decides the next state.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	switch b.state {
	case Open:
		return ErrOpen
	case HalfOpen:
		if b.probing {
			return ErrOpen
		}
		b.probing = true
	}
	return nil
}

// Report records the outcome of a request admitted by Allow.
func (b *Breaker) Report(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = Closed
		b.failures = 0
		b.probing = false
		return
	}
	switch b.state {
	case HalfOpen:
		b.trip()
	default:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.probing = false
}
