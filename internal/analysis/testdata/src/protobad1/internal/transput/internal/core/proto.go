// Package core seeds the dropped-credit-grant mutant: the limit
// update lacks the 1+credits/batch floor, so a zero-credit reply
// drives the limit to zero with nothing in flight to raise it — the
// model proves the stall (I3).
package core

import "sync"

// AbortedError mirrors the real sticky abort status.
type AbortedError struct{ Msg string }

// wchan is the chanCore-family sink channel: it has the wait()
// helper and an abortErr field, which is what puts it in protomodel's
// scope.
type wchan struct {
	mu       sync.Mutex
	cond     *sync.Cond
	buf      [][]byte
	capacity int
	abortErr *AbortedError
	expected int
}

func newWchan(capacity int) *wchan {
	ch := &wchan{capacity: capacity}
	ch.cond = sync.NewCond(&ch.mu)
	return ch
}

func (ch *wchan) wait() {
	ch.cond.Wait()
}

// deliver is the sink side: the per-writer sequence gate and the
// capacity wait both re-check abortErr so parked deliveries drain on
// abort, and the reply carries the remaining capacity as credits.
func (ch *wchan) deliver(seq int, item []byte) (int, *AbortedError) {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for ch.expected != seq && ch.abortErr == nil {
		ch.wait()
	}
	for len(ch.buf) >= ch.capacity && ch.abortErr == nil {
		ch.wait()
	}
	if ch.abortErr != nil {
		return 0, ch.abortErr
	}
	ch.buf = append(ch.buf, item)
	ch.expected++
	ch.cond.Broadcast()
	credits := ch.capacity - len(ch.buf)
	if credits < 0 {
		credits = 0
	}
	return credits, nil
}

// abort drops the backlog and wakes every parked waiter.
func (ch *wchan) abort(msg string) {
	ch.mu.Lock()
	if ch.abortErr == nil {
		ch.abortErr = &AbortedError{Msg: msg}
	}
	ch.buf = ch.buf[:0]
	ch.cond.Broadcast()
	ch.mu.Unlock()
}

// sender is the client side: K workers share a credit-adjusted window.
type sender struct {
	mu       sync.Mutex
	credCond *sync.Cond
	sendNext int
	active   int
	limit    int
	window   int
	batch    int
}

func newSender(window, batch int) *sender {
	w := &sender{window: window, limit: window, batch: batch}
	w.credCond = sync.NewCond(&w.mu)
	return w
}

// acquire is the window gate: strictly fewer than limit deliveries in
// flight, in sequence order.
func (w *sender) acquire(seq int) {
	w.mu.Lock()
	for w.sendNext != seq || w.active >= w.limit {
		w.credCond.Wait()
	}
	w.sendNext++
	w.active++
	w.credCond.Broadcast()
	w.mu.Unlock()
}

// release folds a reply's credits into the limit: floored at one so a
// zero-credit reply cannot park the stream forever, clamped to the
// window.
func (w *sender) release(credits int) {
	w.mu.Lock()
	w.active--
	if credits >= 0 {
		lim := credits / w.batch
		if lim > w.window {
			lim = w.window
		}
		w.limit = lim // want "lacks the 1\\+credits/batch floor" "I3 violated"
	}
	w.credCond.Broadcast()
	w.mu.Unlock()
}
