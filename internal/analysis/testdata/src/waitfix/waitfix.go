// Package waitfix exercises the waitcycle analyzer: cond.Wait
// discipline (W1), signal liveness (W2), lost-wakeup hazards (W3),
// and mixed mutex/channel/cond wait cycles (W4).
package waitfix

import "sync"

// ---------------------------------------------------------------------
// W1: cond.Wait belongs in a predicate loop.

type once struct {
	mu   sync.Mutex
	cond *sync.Cond
	done bool
}

func newOnce() *once {
	o := &once{}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// Fail: a spawned goroutine waiting outside a loop misses wakeups
// whose predicate is still false.
func (o *once) badWaiter() {
	o.mu.Lock()
	if !o.done {
		o.cond.Wait()
	}
	o.mu.Unlock()
}

func (o *once) Launch() {
	go o.badWaiter() // want "calls cond.Wait outside a predicate loop"
}

// Fail: a top-level entry point with a bare Wait has no looping
// caller to re-check the predicate for it.
func (o *once) BadWaitTop() {
	o.mu.Lock()
	o.cond.Wait() // want "no looping caller"
	o.mu.Unlock()
}

// Pass: the chanCore.wait idiom — a wait-like wrapper whose callers
// all loop.
func (o *once) waitOne() {
	o.cond.Wait()
}

func (o *once) WaitDone() {
	o.mu.Lock()
	for !o.done {
		o.waitOne()
	}
	o.mu.Unlock()
}

func (o *once) Finish() {
	o.mu.Lock()
	o.done = true
	o.cond.Broadcast()
	o.mu.Unlock()
}

// ---------------------------------------------------------------------
// W2: a cond that is waited on but never signaled anywhere.

type silent struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready bool
}

func newSilent() *silent {
	s := &silent{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *silent) WaitReady() {
	s.mu.Lock()
	for !s.ready {
		s.cond.Wait() // want "never signaled"
	}
	s.mu.Unlock()
}

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
