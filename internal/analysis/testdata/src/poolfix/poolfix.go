// Package poolfix exercises the poolhygiene analyzer: records drawn
// from a sync.Pool must go back (or be handed off), and must not be
// touched after they do.  The producer/consumer pair below matches the
// structural classification the analyzer uses for the real module's
// acquireInvocation/releaseInvocation and friends; the generic cases
// at the end draw from a pool shaped like wire.Pool.
package poolfix

import "sync"

type record struct {
	n    int
	next *record
}

var pool = sync.Pool{New: func() any { return new(record) }}

// acquire is classified as a producer: draws from a pool, returns a
// pointer.
func acquire() *record {
	r := pool.Get().(*record)
	r.n = 0
	return r
}

// release is classified as a consumer: puts its parameter back.
func release(r *record) {
	r.next = nil
	pool.Put(r)
}

// releaseMethod is the receiver-consumer form, like (*Call).release.
func (r *record) release() {
	r.next = nil
	pool.Put(r)
}

// missingPut leaks the record on the early return.
func missingPut(fail bool) int {
	r := acquire() // want "pooled record r may reach the return"
	if fail {
		return -1
	}
	n := r.n
	release(r)
	return n
}

// useAfterPut reads a field after the record went back to the pool.
func useAfterPut() int {
	r := acquire()
	release(r)
	return r.n // want "use of pooled record r after it was released"
}

// useAfterMethodPut is the receiver-release form of the same bug.
func useAfterMethodPut() int {
	r := acquire()
	r.release()
	return r.n // want "use of pooled record r after it was released"
}

// doubleRelease releases the same record twice.
func doubleRelease() {
	r := acquire()
	release(r)
	release(r) // want "use of pooled record r after it was released"
}

// balanced is clean: acquired, used, released on every path.
func balanced(fail bool) int {
	r := acquire()
	if fail {
		release(r)
		return -1
	}
	n := r.n
	release(r)
	return n
}

// handoff is clean: passing the record to a callee transfers
// ownership.
func handoff(sink func(*record)) {
	r := acquire()
	sink(r)
}

// deferred is clean: the deferred consumer covers all exits, and a
// deferred release does not make earlier uses stale.
func deferred() int {
	r := acquire()
	defer release(r)
	return r.n
}

// nilCheckAfterHandoffIsFine: comparing against nil is not a use.
func nilCheckAfterHandoffIsFine() bool {
	r := acquire()
	release(r)
	return r == nil
}

// reassigned is clean: the variable is rebound to a fresh record after
// the release, so later uses refer to the new one.
func reassigned() int {
	r := acquire()
	release(r)
	r = acquire()
	n := r.n
	release(r)
	return n
}

// genPool is wire.Pool's shape: a producer and a consumer that are the
// methods of a generic type, called on its instantiations.
type genPool[T any] struct{ p sync.Pool }

func (g *genPool[T]) Get() *T {
	r, _ := g.p.Get().(*T)
	if r == nil {
		r = new(T)
	}
	return r
}

func (g *genPool[T]) Put(r *T) { g.p.Put(r) }

var recs genPool[record]

// genericMissingPut leaks a generic pool's record on the early return.
func genericMissingPut(fail bool) int {
	r := recs.Get() // want "pooled record r may reach the return"
	if fail {
		return -1
	}
	n := r.n
	recs.Put(r)
	return n
}

// genericUseAfterPut reads a generic pool's record after it went back.
func genericUseAfterPut() int {
	r := recs.Get()
	recs.Put(r)
	return r.n // want "use of pooled record r after it was released"
}

type reader interface{ read() error }

// decodeStep is wire's decode step without its release on error: the
// record's type is a type parameter, and calling a method through the
// conversion P(r) does not hand r off.
func decodeStep[T any, P interface {
	*T
	reader
}](pool *genPool[T]) (*T, error) {
	r := pool.Get() // want "pooled record r may reach the return"
	if err := P(r).read(); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeStepBalanced is clean: the record goes back on the error path.
func decodeStepBalanced[T any, P interface {
	*T
	reader
}](pool *genPool[T]) (*T, error) {
	r := pool.Get()
	if err := P(r).read(); err != nil {
		pool.Put(r)
		return nil, err
	}
	return r, nil
}
