package lockshapes

import "sync"

type revA struct{ mu sync.Mutex }
type revB struct{ mu sync.Mutex }

// nestAB and nestBA nest the same two classes in opposite orders, each in
// its own body: locksend 2, lockorder 1.
func nestAB(a *revA, b *revB) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func nestBA(a *revA, b *revB) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}
