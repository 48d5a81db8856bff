// Package core seeds the second-gate mutant: the pull face grows a
// wait loop of its own beside the engine's.  The model checks one gate;
// a face that brings another has left the proof, so the copy is a
// finding whatever it says.
package core

import "sync"

// engine is the shared windowed exchange: the one gate, and the limit
// rule with its floor and clamp.
type engine struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active int
	limit  int
	window int
	batch  int
}

func (l *engine) enter() {
	l.mu.Lock()
	for l.active >= l.limit {
		l.cond.Wait()
	}
	l.active++
	l.mu.Unlock()
}

func (l *engine) leave(grant int) {
	l.mu.Lock()
	l.active--
	l.limit = min(l.window, 1+grant/l.batch)
	l.cond.Broadcast()
	l.mu.Unlock()
}

// puller embeds the engine and then gates its Transfers again.
type puller struct {
	engine
	cap int
}

func (p *puller) enterAgain() {
	p.mu.Lock()
	for p.active >= p.limit || p.active >= p.cap { // want "window gate stated 2 times"
		p.cond.Wait()
	}
	p.active++
	p.mu.Unlock()
}
