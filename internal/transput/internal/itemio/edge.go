package itemio

import (
	"io"
	"iter"

	"asymstream/internal/wire"
)

// fusedEdge is the in-stack link between two composed bodies: the
// upstream member's primary output and the downstream member's primary
// input share it.  The coroutine hand-off of iter.Pull orders every
// field access — the two sides never run concurrently.
type fusedEdge struct {
	yield  func([]byte) bool
	upErr  error // upstream body's return value, set before next() reports done
	abort  error // upstream CloseWithError reason
	closed bool
	arena  *wire.Arena // Put's copies; set by the first, dropped by Close
}

// fusedEdgeWriter is the upstream side: an ItemWriter whose Put is a
// coroutine switch instead of an invocation.
type fusedEdgeWriter struct{ e *fusedEdge }

// Put hands a copy of item downstream.  The copy preserves the
// ItemWriter contract — the caller may reuse item's backing array the
// moment Put returns, while the consumer owns what Next returned.
func (w *fusedEdgeWriter) Put(item []byte) error {
	if w.e.closed {
		return ErrClosed
	}
	if !w.e.yield(CopyItem(&w.e.arena, item)) {
		return &AbortedError{Msg: "fused consumer stopped"}
	}
	return nil
}

// PutOwned hands item downstream without copying; ownership transfers
// even on failure (a dropped slab view is released here).
func (w *fusedEdgeWriter) PutOwned(item []byte) error {
	if w.e.closed {
		wire.Release(item)
		return ErrClosed
	}
	if !w.e.yield(item) {
		wire.Release(item)
		return &AbortedError{Msg: "fused consumer stopped"}
	}
	return nil
}

// Close marks normal end of stream; later Puts fail with ErrClosed.
func (w *fusedEdgeWriter) Close() error {
	w.e.closed, w.e.arena = true, nil
	return nil
}

// CloseWithError records the abort reason the downstream reader will
// surface once the upstream body returns.
func (w *fusedEdgeWriter) CloseWithError(err error) error {
	w.e.closed, w.e.arena = true, nil
	if err != nil && w.e.abort == nil {
		w.e.abort = err
	}
	return nil
}

// fusedEdgeReader is the downstream side.  next resumes the upstream
// coroutine; when it reports done the upstream body has returned
// (iter.Pull guarantees the ordering), so upErr/abort are settled.
type fusedEdgeReader struct {
	e    *fusedEdge
	next func() ([]byte, bool)
	err  error
}

func (r *fusedEdgeReader) Next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	item, ok := r.next()
	if ok {
		return item, nil
	}
	switch {
	case r.e.upErr != nil:
		r.err = r.e.upErr
	case r.e.abort != nil:
		r.err = r.e.abort
	default:
		r.err = io.EOF
	}
	if r.err == io.EOF {
		return nil, io.EOF
	}
	return nil, r.err
}

// fuse2 composes up | down into one body.  up runs as a coroutine
// (iter.Pull) producing items on a fusedEdge; down consumes them on
// the caller's own stack.  The composed body's inputs go to up, its
// outputs to down.
//
// Error semantics mirror the unfused wiring: an upstream failure
// surfaces on the downstream reader (the stage harness would have
// aborted the link); a downstream body that returns early unwinds the
// upstream via stop(), whose induced abort is discarded — exactly as
// Pipeline.Wait prefers a clean sink exit over the cancellation it
// caused.  stop() can never hang: when down has control, up is
// suspended at a yield (or unstarted, or finished), never blocked
// elsewhere.
func fuse2(up, down Body) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		e := &fusedEdge{}
		next, stop := iter.Pull(func(yield func([]byte) bool) {
			e.yield = yield
			e.upErr = up(ins, []ItemWriter{&fusedEdgeWriter{e: e}})
		})
		defer stop()
		return down([]ItemReader{&fusedEdgeReader{e: e, next: next}}, outs)
	}
}

// ComposeBodies folds a fusion group into one body, first member
// outermost: bodies[0]'s inputs are the group's inputs, the last
// member's outputs are the group's outputs.
func ComposeBodies(bodies []Body) Body {
	composed := bodies[len(bodies)-1]
	for i := len(bodies) - 2; i >= 0; i-- {
		composed = fuse2(bodies[i], composed)
	}
	return composed
}
