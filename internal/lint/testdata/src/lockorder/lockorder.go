// Fixture for the lockorder analyzer: acquisition-order cycles within one
// package. Classes are named by field identity, so the want patterns match
// on the type and field names.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }
type C struct{ mu sync.RWMutex }
type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }
type F struct{ mu sync.Mutex }
type G struct{ mu sync.Mutex }

// orderAB and orderBA acquire the same two classes in opposite orders: the
// classic AB/BA inversion. The cycle is reported once, at the first edge
// that closes it.
func orderAB(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock() // want `lock-order cycle: .*lockorder\.A\.mu → .*lockorder\.B\.mu → .*lockorder\.A\.mu`
	b.mu.Unlock()
	a.mu.Unlock()
}

func orderBA(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}

// nestedSameClass locks two instances of one class: whichever runtime pair
// the instances are, the classes alias, so this deadlocks the moment x and
// y are the same object (or two goroutines hold them in opposite roles).
func nestedSameClass(x, y *A) {
	x.mu.Lock()
	y.mu.Lock() // want `acquired while an instance of it is already held`
	y.mu.Unlock()
	x.mu.Unlock()
}

// lockE acquires E internally; holdDcallE orders D before E through the
// call, holdEcallD orders them directly the other way. The cycle closes at
// the call site — an interprocedural edge, not a visible Lock.
func lockE(e *E) {
	e.mu.Lock()
	e.mu.Unlock()
}

func holdDcallE(d *D, e *E) {
	d.mu.Lock()
	lockE(e) // want `lock-order cycle: .*lockorder\.D\.mu → .*lockorder\.E\.mu → .*lockorder\.D\.mu`
	d.mu.Unlock()
}

func holdEcallD(d *D, e *E) {
	e.mu.Lock()
	d.mu.Lock()
	d.mu.Unlock()
	e.mu.Unlock()
}

// consistent1 and consistent2 nest F before G on every path: an edge, but
// no cycle, so no diagnostic.
func consistent1(f *F, g *G) {
	f.mu.Lock()
	g.mu.Lock()
	g.mu.Unlock()
	f.mu.Unlock()
}

func consistent2(f *F, g *G) {
	f.mu.Lock()
	g.mu.Lock()
	g.mu.Unlock()
	f.mu.Unlock()
}

// sequentialRev acquires G then F — the reverse of consistent1/2 — but only
// after releasing G: no overlap, no edge, no cycle.
func sequentialRev(f *F, g *G) {
	g.mu.Lock()
	g.mu.Unlock()
	f.mu.Lock()
	f.mu.Unlock()
}

// readNested read-locks two instances of one RWMutex class: readers share,
// so the self-edge is not a deadlock and is not reported.
func readNested(x, y *C) {
	x.mu.RLock()
	y.mu.RLock()
	y.mu.RUnlock()
	x.mu.RUnlock()
}

type H struct {
	mu sync.Mutex
	fn func()
}

func (h *H) lockH() {
	h.mu.Lock()
	h.mu.Unlock()
}

// register stores a callback that will acquire h.mu — later, on another
// stack. Constructing the closure while holding the lock orders nothing;
// without escaping-closure handling this would be a phantom self-cycle.
func (h *H) register() {
	h.mu.Lock()
	h.fn = func() { h.lockH() }
	h.mu.Unlock()
}

type I struct{ mu sync.Mutex }
type J struct{ mu sync.Mutex }

func (j *J) ready() chan int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return nil
}

// holdIselectJ orders I before J through a call in a select comm clause,
// which is evaluated under i.mu; holdJlockI orders them the other way.
func holdIselectJ(i *I, j *J) {
	i.mu.Lock()
	defer i.mu.Unlock()
	select {
	case <-j.ready(): // want `lock-order cycle: .*lockorder\.I\.mu → .*lockorder\.J\.mu → .*lockorder\.I\.mu`
	default:
	}
}

func holdJlockI(i *I, j *J) {
	j.mu.Lock()
	i.mu.Lock()
	i.mu.Unlock()
	j.mu.Unlock()
}

type K struct{ mu sync.Mutex }
type L struct{ mu sync.Mutex }

func (l *L) state() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return 0
}

// holdKswitchL orders K before L through a call in a switch tag;
// holdLlockK orders them the other way.
func holdKswitchL(k *K, l *L) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch l.state() { // want `lock-order cycle: .*lockorder\.K\.mu → .*lockorder\.L\.mu → .*lockorder\.K\.mu`
	case 0:
	}
}

func holdLlockK(k *K, l *L) {
	l.mu.Lock()
	k.mu.Lock()
	k.mu.Unlock()
	l.mu.Unlock()
}
