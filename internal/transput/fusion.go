//transput:fusable

// Stage fusion — the pipeline builder's answer to §6's cost model.
// Invocation is dear *because* it is location-independent; between two
// stages that share a node the port hop (frame codec, windowed link,
// mailbox bounce) buys nothing.  Fusion partitions the pipeline's chain
// of elements into groups of adjacent co-located stages at Build time and
// compiles each group into a single element — one Eject — whose body is
// the direct composition of the member bodies: items flow from member to
// member through an in-stack coroutine edge, with no frame, no port and
// no invocation.  The pass takes the chain and returns the chain; the
// walk in pipeline.go wires a group exactly as it wires any element, and
// learns what it is from the element itself (its node, its fused mark).
//
// Boundaries stay real.  A shard split (an element of several shards),
// an explicit Filter.NoFuse, a cross-node edge, and every
// buffered-discipline PassiveBuffer remain genuine windowed links —
// fusion only elides hops that are provably unobservable, which is what
// the discipline tags guarantee (cf. Palamidessi's encodings between the
// synchronous and asynchronous π-calculi: semantics-preserving exactly
// when no observable choice depends on the intermediate link).
//
// This file is tagged //transput:fusable: the `fusable` analyzer in
// internal/analysis proves that nothing reachable from the fusion
// plumbing touches a port-side symbol of either discipline or a kernel
// invocation — the fused edge is pure function composition.
package transput

import (
	"io"
	"iter"
	"runtime"
	"strings"

	"asymstream/internal/wire"
)

// FusionMode selects whether BuildPipeline runs the fusion pass.
type FusionMode int

const (
	// FusionOff (the zero value) builds one Eject per stage, the
	// paper's exact accounting: n+2 Ejects and n+1 invocations per
	// datum in the asymmetric disciplines.
	FusionOff FusionMode = iota
	// FusionOn fuses adjacent co-located sequential stages into single
	// Ejects.  Counts drop below the paper's figures; the elision is
	// recorded in the FusionGroups/FusedStages metrics.
	FusionOn
)

// String names the mode for logs and benchmark labels.
func (m FusionMode) String() string {
	if m == FusionOn {
		return "on"
	}
	return "off"
}

// fusedEdge is the in-stack link between two composed bodies: the
// upstream member's primary output and the downstream member's primary
// input share it.  The coroutine hand-off of iter.Pull orders every
// field access — the two sides never run concurrently.
type fusedEdge struct {
	yield  func([]byte) bool
	upErr  error // upstream body's return value, set before next() reports done
	abort  error // upstream CloseWithError reason
	closed bool
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
	if !w.e.yield(append([]byte(nil), item...)) {
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
	w.e.closed = true
	return nil
}

// CloseWithError records the abort reason the downstream reader will
// surface once the upstream body returns.
func (w *fusedEdgeWriter) CloseWithError(err error) error {
	w.e.closed = true
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

// composeBodies folds a fusion group into one body, first member
// outermost: bodies[0]'s inputs are the group's inputs, the last
// member's outputs are the group's outputs.
func composeBodies(bodies []Body) Body {
	composed := bodies[len(bodies)-1]
	for i := len(bodies) - 2; i >= 0; i-- {
		composed = fuse2(bodies[i], composed)
	}
	return composed
}

// fuseChain is the fusion pass: it takes the chain BuildPipeline is about
// to wire and returns it with every maximal run of adjacent, co-located,
// fusion-eligible elements collapsed into one element whose body is the
// direct composition of the members', reporting how many groups it
// compiled and how many members they hold.  A filter is eligible when it
// is sequential (effective shard count 1) and not NoFuse.  In the
// read-only discipline the source is eligible too and folds into a leading
// group (the sink remains the separate pump that drives the pipeline); in
// the write-only discipline the sink folds into a trailing group (the
// source remains the driver).  The buffered discipline refuses fusion
// outright: every one of its links is an explicit PassiveBuffer boundary.
//
// With everything co-located the asymmetric pipelines collapse to two
// Ejects — driver plus fused chain — and one stream invocation per
// datum, against the paper's n+2 and n+1.
func fuseChain(d Discipline, chain []element, mode FusionMode) (fused []element, groups, stages int) {
	if mode != FusionOn || d == Buffered {
		return chain, 0, 0
	}
	eligible := func(e element) bool {
		switch e.role {
		case RoleSource:
			return d == ReadOnly
		case RoleSink:
			return d == WriteOnly
		}
		return e.shards == 1 && !e.noFuse
	}
	for i := 0; i < len(chain); {
		j := i + 1
		if eligible(chain[i]) {
			for j < len(chain) && eligible(chain[j]) && chain[j].node == chain[i].node {
				j++
			}
		}
		run := chain[i:j]
		i = j
		if len(run) < 2 {
			// No neighbour to join: there is no hop to elide, so the element
			// stays an ordinary stage.
			fused = append(fused, run[0])
			continue
		}
		bodies := make([]Body, len(run))
		names := make([]string, len(run))
		for m, e := range run {
			bodies[m], names[m] = e.body, e.name
		}
		// The group is a filter unless it swallowed the source or the sink,
		// whose place in the chain (and name) it then takes.
		g := element{
			role: RoleFilter, name: strings.Join(names, "+"), body: composeBodies(bodies),
			shards: 1, node: run[0].node, fused: true,
		}
		switch first, end := run[0], run[len(run)-1]; {
		case first.role == RoleSource:
			g.role, g.name = RoleSource, first.name
		case end.role == RoleSink:
			g.role, g.name = RoleSink, end.name
		}
		fused = append(fused, g)
		groups++
		stages += len(run)
	}
	return fused, groups, stages
}

// fusedPoolWorkers sizes a fused stage's kernel worker pool: enough
// for the link's in-flight window plus control traffic (Channels,
// Abort), small enough that dedicated OS threads stay scarce when the
// pool is pinned.
func fusedPoolWorkers(opt Options) int {
	w := opt.Window
	if w < 1 {
		w = 1
	}
	if w+2 > 8 {
		return w + 2
	}
	return 8
}

// fusedPoolPinned decides whether a fused group's workers (and its
// body goroutine) lock their OS threads so a datum runs its whole
// chain without migrating cores.  Pinning only pays when there are
// cores to pin to: on a single-CPU host every locked thread turns each
// coroutine yield and invocation handoff into a full OS context
// switch, which is exactly the cost fusion exists to elide.
func fusedPoolPinned() bool {
	return runtime.NumCPU() > 1
}
