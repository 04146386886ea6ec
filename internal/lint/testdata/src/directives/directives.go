// Fixture for the //lint:allow driver: one properly suppressed finding, one
// directive naming an unknown analyzer, one directive with no reason, two
// stale ones. The driver test asserts on lint.Check's post-suppression
// findings directly.
package directives

import "sync"

type hub struct {
	mu sync.Mutex
	ch chan int
}

// allowedSend carries a reasoned directive: the locksend finding on the
// send must be suppressed.
func (h *hub) allowedSend() {
	h.mu.Lock()
	defer h.mu.Unlock()
	//lint:allow locksend fixture exercises suppression of a known analyzer
	h.ch <- 1
}

// unknownAnalyzer misspells the analyzer name: the directive itself must be
// flagged AND the send must still be reported.
func (h *hub) unknownAnalyzer() {
	h.mu.Lock()
	defer h.mu.Unlock()
	//lint:allow locksnd typo'd analyzer name
	h.ch <- 2
}

// missingReason gives no reason: the directive must be flagged and the send
// still reported.
func (h *hub) missingReason() {
	h.mu.Lock()
	defer h.mu.Unlock()
	//lint:allow locksend
	h.ch <- 3
}

// staleAllow suppresses nothing — no lock is held here — so the directive
// itself must be flagged as stale.
func (h *hub) staleAllow() {
	//lint:allow locksend the finding this once covered was fixed
	h.ch <- 4
}

// staleEscapeAllow names the compiler-assisted check: a valid name under
// the same contract, so with no escape diagnostic here (the function is not
// a hotpath one) the directive is stale like any other.
func staleEscapeAllow() []byte {
	//lint:allow hotpathescape deliberate fixture allocation
	return make([]byte, 1)
}
