package lockshapes

import "sync"

type helpA struct{ mu sync.Mutex }
type helpB struct{ mu sync.Mutex }

func lockHelpA(a *helpA) {
	a.mu.Lock()
	a.mu.Unlock()
}

func lockHelpB(b *helpB) {
	b.mu.Lock()
	b.mu.Unlock()
}

// holdAcallB and holdBcallA order A and B oppositely, but only through
// helper calls, so no body nests two Locks: locksend 0, lockorder 1.
func holdAcallB(a *helpA, b *helpB) {
	a.mu.Lock()
	lockHelpB(b)
	a.mu.Unlock()
}

func holdBcallA(a *helpA, b *helpB) {
	b.mu.Lock()
	lockHelpA(a)
	b.mu.Unlock()
}
