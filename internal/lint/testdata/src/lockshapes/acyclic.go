package lockshapes

import "sync"

type acyA struct{ mu sync.Mutex }
type acyB struct{ mu sync.Mutex }

func lockAcyB(b *acyB) {
	b.mu.Lock()
	b.mu.Unlock()
}

// holdAcallAcyB orders A before B through one helper, and nothing reverses
// it: locksend 0, lockorder 0.
func holdAcallAcyB(a *acyA, b *acyB) {
	a.mu.Lock()
	lockAcyB(b)
	a.mu.Unlock()
}
