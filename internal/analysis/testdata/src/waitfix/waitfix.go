// Package waitfix exercises the waitcycle analyzer: lost-wakeup
// hazards (W3) and mixed mutex/channel/cond wait cycles (W4).
package waitfix

import "sync"

// ---------------------------------------------------------------------
// W3: Signal must run under the cond's associated mutex, or the
// predicate store and the wakeup race (lost wakeup).

type noisy struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready bool
}

func newNoisy() *noisy {
	n := &noisy{}
	n.cond = sync.NewCond(&n.mu)
	return n
}

func (n *noisy) WaitN() {
	n.mu.Lock()
	for !n.ready {
		n.cond.Wait()
	}
	n.mu.Unlock()
}

// Fail: predicate store and Signal outside the mutex.
func (n *noisy) SignalBad() {
	n.ready = true
	n.cond.Signal() // want "without holding its associated mutex"
}

// Pass: the same signal under the lock.
func (n *noisy) SignalGood() {
	n.mu.Lock()
	n.ready = true
	n.cond.Signal()
	n.mu.Unlock()
}

// The obligation crosses call boundaries: signalInner needs the lock
// from whoever calls it.
func (n *noisy) signalInner() {
	n.ready = true
	n.cond.Signal()
}

// Fail: caller provides no lock.
func (n *noisy) SignalViaHelper() {
	n.signalInner() // want "without holding its associated mutex"
}

// Pass: caller holds the lock across the helper.
func (n *noisy) SignalViaHelperLocked() {
	n.mu.Lock()
	n.signalInner()
	n.mu.Unlock()
}

// lockIfReady is an accessor that reports with its final bool whether
// it returns holding n.mu; its callers hold the lock where ok is true.
func (n *noisy) lockIfReady() (*noisy, bool) {
	n.mu.Lock()
	if !n.ready {
		n.mu.Unlock()
		return nil, false
	}
	return n, true
}

// Pass: the accessor handed the lock over.
func (n *noisy) SignalViaAccessor() {
	m, ok := n.lockIfReady()
	if !ok {
		return
	}
	m.cond.Signal()
	m.mu.Unlock()
}

// Fail: where ok is false the accessor released the lock.
func (n *noisy) SignalWhenNotReady() {
	if _, ok := n.lockIfReady(); !ok {
		n.cond.Signal() // want "without holding its associated mutex"
	}
}

// ---------------------------------------------------------------------
// W4: a mixed wait cycle — an unbuffered channel rendezvous where each
// side holds the mutex the other needs.

type pipe struct {
	mu  sync.Mutex
	mu2 sync.Mutex
	ch  chan int
}

func newPipe() *pipe {
	return &pipe{ch: make(chan int)}
}

func (p *pipe) produce() {
	p.mu.Lock()
	p.ch <- 1
	p.mu.Unlock()
}

func (p *pipe) consume() {
	p.mu2.Lock()
	v := <-p.ch // want "possible wait cycle"
	_ = v
	p.mu2.Unlock()
}

// Pass: the same shape over a buffered channel cannot rendezvous-block.
type bufPipe struct {
	mu  sync.Mutex
	mu2 sync.Mutex
	ch  chan int
}

func newBufPipe() *bufPipe {
	return &bufPipe{ch: make(chan int, 8)}
}

func (p *bufPipe) produce() {
	p.mu.Lock()
	p.ch <- 1
	p.mu.Unlock()
}

func (p *bufPipe) consume() {
	p.mu2.Lock()
	v := <-p.ch
	_ = v
	p.mu2.Unlock()
}

// ---------------------------------------------------------------------
// W3 for conds made as values: the mutex is the literal's L, whether
// the literal is assigned, declared, taken the address of, or the value
// of a keyed field in an enclosing struct literal.

type condSide struct {
	cond sync.Cond
}

type valueCond struct {
	mu    sync.Mutex
	side  *condSide
	ptr   *sync.Cond
	ready bool
}

func newValueCond() *valueCond {
	v := &valueCond{}
	v.side = &condSide{cond: sync.Cond{L: &v.mu}}
	v.ptr = &sync.Cond{L: &v.mu}
	return v
}

// Fail: a value cond broadcast without its mutex.
func (v *valueCond) BroadcastBad() {
	v.ready = true
	v.side.cond.Broadcast() // want "without holding its associated mutex"
}

// Pass: the same broadcast under the lock.
func (v *valueCond) BroadcastGood() {
	v.mu.Lock()
	v.ready = true
	v.side.cond.Broadcast()
	v.mu.Unlock()
}

// Fail: a cond made by &sync.Cond{L: &m}, signalled without m.
func (v *valueCond) SignalPtrBad() {
	v.ready = true
	v.ptr.Signal() // want "without holding its associated mutex"
}

var (
	globalMu   sync.Mutex
	globalCond = sync.Cond{L: &globalMu}
)

// Fail: a declared value cond, signalled without its mutex.
func SignalGlobalBad() {
	globalCond.Signal() // want "without holding its associated mutex"
}

// Pass: under its mutex.
func SignalGlobalGood() {
	globalMu.Lock()
	globalCond.Signal()
	globalMu.Unlock()
}
