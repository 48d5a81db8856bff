// Package lockfix exercises waitcycle's lock-order edges (W4): a
// two-class inversion, both direct and through a callee; one only a
// may-held set sees (the first lock taken on one branch); a
// three-class cycle with no pairwise inversion; plus clean patterns
// (nested order used consistently, defer-unlock, RWMutex).
package lockfix

import "sync"

type alpha struct {
	mu    sync.Mutex
	state int
}

type beta struct {
	mu    sync.RWMutex
	state int
}

// nestAB establishes the order alpha.mu -> beta.mu.
func nestAB(a *alpha, b *beta) {
	a.mu.Lock()
	b.mu.Lock()
	b.state = a.state
	b.mu.Unlock()
	a.mu.Unlock()
}

// nestBA acquires the same pair in the opposite order: inversion.
func nestBA(a *alpha, b *beta) {
	b.mu.Lock()
	a.mu.Lock() // want "lock order cycle"
	a.state = b.state
	a.mu.Unlock()
	b.mu.Unlock()
}

// lockBeta only takes beta.mu.
func lockBeta(b *beta) {
	b.mu.Lock()
	b.state++
	b.mu.Unlock()
}

// nestIndirect repeats the alpha->beta order through a callee; it is
// consistent with nestAB, so only the nestBA inversion is reported.
func nestIndirect(a *alpha, b *beta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lockBeta(b)
}

// deferUnlock is clean: branches under a deferred unlock never leave
// the lock held inconsistently.
func deferUnlock(a *alpha, n int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > 0 {
		return a.state + n
	}
	return a.state
}

// readThenWrite is clean: sequential (non-nested) acquisitions impose
// no order.
func readThenWrite(a *alpha, b *beta) int {
	b.mu.RLock()
	n := b.state
	b.mu.RUnlock()
	a.mu.Lock()
	a.state = n
	a.mu.Unlock()
	return n
}

type gamma struct {
	mu    sync.Mutex
	state int
}

type delta struct {
	mu    sync.Mutex
	state int
}

// maybeNest holds gamma.mu only when both is set, so gamma.mu is not
// held on every path to delta.mu.Lock(): a must-held set sees no
// order here, a may-held set sees gamma.mu -> delta.mu.
func maybeNest(g *gamma, d *delta, both bool) {
	if both {
		g.mu.Lock()
	}
	d.mu.Lock()
	d.state++
	d.mu.Unlock()
	if both {
		g.mu.Unlock()
	}
}

// nestDG takes the pair in the opposite order: inversion.
func nestDG(g *gamma, d *delta) {
	d.mu.Lock()
	g.mu.Lock() // want "lock order cycle"
	g.state = d.state
	g.mu.Unlock()
	d.mu.Unlock()
}

type ringA struct{ mu sync.Mutex }
type ringB struct{ mu sync.Mutex }
type ringC struct{ mu sync.Mutex }

// Three classes taken pairwise as A -> B, B -> C and C -> A: no pair
// is ever inverted, but the three together can deadlock.
func nestRingAB(a *ringA, b *ringB) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func nestRingBC(b *ringB, c *ringC) {
	b.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
	b.mu.Unlock()
}

func nestRingCA(c *ringC, a *ringA) {
	c.mu.Lock()
	a.mu.Lock() // want "lock order cycle"
	a.mu.Unlock()
	c.mu.Unlock()
}
