// Fixture for the locksend analyzer: blocking operations under a held
// sync.Mutex. Mirrors the rtmp fan-out shapes from DESIGN.md §5a.
package locksend

import (
	"net/http"
	"sync"
	"time"
)

type hub struct {
	mu      sync.Mutex
	viewers []chan int
}

type other struct {
	mu sync.Mutex
}

// badSend is the original fan-out bug: per-viewer sends inside the
// membership lock serialize every viewer behind the slowest one.
func (h *hub) badSend(v int) {
	h.mu.Lock()
	for _, ch := range h.viewers {
		ch <- v // want `channel send while h\.mu is held`
	}
	h.mu.Unlock()
}

// goodSnapshot is the fix: copy membership under the lock, send after.
func (h *hub) goodSnapshot(v int) {
	h.mu.Lock()
	snap := make([]chan int, len(h.viewers))
	copy(snap, h.viewers)
	h.mu.Unlock()
	for _, ch := range snap {
		ch <- v
	}
}

// badDefer holds the lock to function end, so the send is still under it.
func (h *hub) badDefer(ch chan int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch <- 1 // want `channel send while h\.mu is held`
}

func (h *hub) badSleep() {
	h.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while h\.mu is held`
	h.mu.Unlock()
}

func (h *hub) badHTTP(url string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	resp, err := http.Get(url) // want `network I/O \(http\.Get\) while h\.mu is held`
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

func (h *hub) badNested(o *other) {
	h.mu.Lock()
	o.mu.Lock() // want `acquiring o\.mu while h\.mu is held`
	o.mu.Unlock()
	h.mu.Unlock()
}

// badSelect blocks in a comm clause: even with a default the send case is a
// send attempt under the lock.
func (h *hub) badSelect(ch chan int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	select {
	case ch <- 1: // want `channel send while h\.mu is held`
	default:
	}
}

// goodSelect sends after the unlock.
func (h *hub) goodSelect(ch chan int) {
	h.mu.Lock()
	h.mu.Unlock()
	select {
	case ch <- 1:
	default:
	}
}

// goodGoroutine: the spawned body runs after this function returns the
// lock; function literals are separate analysis roots.
func (h *hub) goodGoroutine(ch chan int) {
	h.mu.Lock()
	go func() {
		ch <- 1
	}()
	h.mu.Unlock()
}

type rwhub struct {
	mu      sync.RWMutex
	viewers []chan int
}

// badReadSend: a read lock still blocks writers, so sends under RLock
// serialize the fan-out behind the slowest viewer exactly like Lock does.
func (h *rwhub) badReadSend(v int) {
	h.mu.RLock()
	for _, ch := range h.viewers {
		ch <- v // want `channel send while h\.mu is held`
	}
	h.mu.RUnlock()
}

// goodReadSnapshot releases the read lock before sending.
func (h *rwhub) goodReadSnapshot(v int) {
	h.mu.RLock()
	snap := make([]chan int, len(h.viewers))
	copy(snap, h.viewers)
	h.mu.RUnlock()
	for _, ch := range snap {
		ch <- v
	}
}

type embedded struct {
	sync.Mutex
	ch chan int
}

// badEmbedded: the promoted e.Lock() and the explicit e.Mutex path are the
// same lock — both normalize to the embedded field — so the send is under
// it however the pair is spelled.
func (e *embedded) badEmbedded() {
	e.Lock()
	e.ch <- 1 // want `channel send while e\.Mutex is held`
	e.Mutex.Unlock()
}

// goodEmbedded: the explicit unlock releases the promoted lock before the
// send; without normalization the mismatched spellings would leave a
// phantom held lock.
func (e *embedded) goodEmbedded() {
	e.Lock()
	e.Mutex.Unlock()
	e.ch <- 1
}

// badInvoked: a literal invoked on the spot runs in place, under h.mu.
func (h *hub) badInvoked(ch chan int) {
	h.mu.Lock()
	func() {
		ch <- 1 // want `channel send while h\.mu is held`
	}()
	h.mu.Unlock()
}

// goodStored: a stored literal runs later, from nothing held.
func (h *hub) goodStored(ch chan int) func() {
	h.mu.Lock()
	defer h.mu.Unlock()
	return func() { ch <- 1 }
}

// badSwitchInit: a switch init runs under the lock like any statement.
func (h *hub) badSwitchInit(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch resp, err := http.Get(url); { // want `network I/O \(http\.Get\) while h\.mu is held`
	case err == nil:
		resp.Body.Close()
	}
}

// badSwitchInitTag: the same, with a tag.
func (h *hub) badSwitchInitTag(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch resp, err := http.Get(url); err { // want `network I/O \(http\.Get\) while h\.mu is held`
	case nil:
		resp.Body.Close()
	}
}

// badForPost: a for post statement runs under the lock on every iteration.
func (h *hub) badForPost(o *other) {
	h.mu.Lock()
	for i := 0; i < 1; o.mu.Lock() { // want `acquiring o\.mu while h\.mu is held`
		i++
	}
	h.mu.Unlock()
}
