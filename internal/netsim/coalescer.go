package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"asymstream/internal/wire"
)

// Coalescer is the write side of one connection, shared by the socket
// links (one per node direction) and internal/transport's bridge (one
// per connection).
// Senders append encoded pooled frames under one mutex, and the writer
// is caller-driven: the sender that finds no write in flight claims the
// connection and drains the whole queue with one vectored write
// (writev); senders that arrive while a writev is on the wire just
// append, and the incumbent's next pass carries them all.  N concurrent
// senders cost one syscall, not N, and a lone sender pays no scheduler
// handoff between itself and the syscall.
//
// A frame that borrows (wire.Frame.Borrows) puts the sender's own item
// memory on the iovec, and the sender gets it back when its waiter
// completes.  The invariant that makes that safe: no waiter completes
// while an iovec entry of its frame can still reach writev.  A waiter
// completes either from the read loop, which has then read the whole
// frame, so the kernel is done with every byte of it; or from drain,
// which runs only where no pass is in WriteTo and none can start — in
// the pass itself once its WriteTo has returned, or under a dead
// connection whose claim nobody holds (fail).
type Coalescer struct {
	conn net.Conn

	mu      sync.Mutex
	pending net.Buffers
	owners  []*wire.Frame // pooled frames backing pending, same order
	// waiters is the completion FIFO for senders that wait on the far
	// side (socket links): frame and waiter are appended in one critical
	// section and the socket preserves order, so the k-th frame read
	// back completes the k-th waiter.
	waiters []*xfer
	writing bool // a sender owns conn and is draining pending
	err     error

	// The sender holding the writing claim owns these: the emptied
	// arrays of the generation last written, which the next swap installs
	// as the queues, and the slice header WriteTo consumes (a field, so
	// taking its address allocates nothing).
	sparePending net.Buffers
	spareOwners  []*wire.Frame
	inflight     net.Buffers
}

// enqueue takes ownership of an encoded frame and queues it (with its
// waiter, if any) for the next writev, draining the queue itself when
// no other sender owns the connection.  It fails only on a connection
// already dead, in which case x was not queued.
func (c *Coalescer) enqueue(f *wire.Frame, x *xfer) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		wire.PutFrame(f)
		return err
	}
	if x != nil {
		c.waiters = append(c.waiters, x)
	}
	c.pending = f.Segments(c.pending)
	c.owners = append(c.owners, f)
	claim := !c.writing
	c.writing = true
	c.mu.Unlock()
	if claim {
		c.writeOut()
	}
	return nil
}

// popWaiter removes and returns the oldest waiter, nil if there is
// none.  It copies the rest down rather than reslicing: `waiters[1:]`
// gives the popped slot's capacity away, and at a window of one every
// enqueue would then allocate a new queue.
func (c *Coalescer) popWaiter() *xfer {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.waiters) == 0 {
		return nil
	}
	x := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	return x
}

// ErrEncode marks a send that failed because v has no wire form: the
// connection is as alive as it was and nothing was queued.
var ErrEncode = errors.New("netsim: encode")

// NewCoalescer is the write side of conn.
func NewCoalescer(conn net.Conn) *Coalescer { return &Coalescer{conn: conn} }

// Send encodes v contiguously — a frame with no waiter has no moment
// at which borrowed memory could be handed back — and enqueues it (the
// bridge matches replies by id, not by order).  Its error wraps
// ErrEncode or is the dead connection's.
func (c *Coalescer) Send(v any) error {
	f := wire.GetFrame()
	var err error
	if f.Buf, err = wire.Append(f.Buf[:0], v); err != nil {
		wire.PutFrame(f)
		return fmt.Errorf("%w: %w", ErrEncode, err)
	}
	return c.enqueue(f, nil)
}

// writeOut drains the queue, one writev per pass.  The claim is
// released under the same lock that proves the queue empty, so a frame
// enqueued after the release always finds writing == false and becomes
// the writer itself.  The queues are double-buffered: a pass swaps the
// filled arrays for the ones the pass before emptied, so in steady
// state neither enqueue nor writeOut allocates.
func (c *Coalescer) writeOut() {
	for {
		c.mu.Lock()
		if c.err != nil {
			// Dead, by this pass's write or by a fail that left the
			// queues to the claim's holder.
			c.writing = false
			c.mu.Unlock()
			c.drain()
			return
		}
		bufs := c.pending
		// Every frame in owners put its segments in pending under c.mu,
		// so an empty bufs means an empty owners.
		owners := c.owners
		if len(bufs) == 0 {
			c.writing = false
			c.mu.Unlock()
			return
		}
		c.pending, c.owners = c.sparePending, c.spareOwners
		c.mu.Unlock()
		c.inflight = bufs
		_, err := c.inflight.WriteTo(c.conn)
		for i, f := range owners {
			wire.PutFrame(f)
			owners[i] = nil // a parked array must not pin pooled frames
		}
		if err != nil {
			c.kill(fmt.Errorf("netsim: write: %w", err))
			continue // to drain under the claim
		}
		// A complete write has consumed, and so cleared, every entry of bufs.
		c.sparePending, c.spareOwners = bufs[:0], owners[:0]
	}
}

// kill marks the connection dead and closes it, which also wakes a pass
// blocked in WriteTo, and reports whether a sender holds the write
// claim.  Only the first error sticks.
func (c *Coalescer) kill(err error) (claimed bool) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	claimed = c.writing
	c.mu.Unlock()
	c.conn.Close()
	return claimed
}

// fail kills the connection and sees every queued frame and waiter
// drained: by the sender holding the write claim once its WriteTo has
// returned (the invariant above), and by fail itself when there is
// none, since then nobody is writing or can start.  Idempotent.
func (c *Coalescer) fail(err error) {
	if !c.kill(err) {
		c.drain()
	}
}

// drain releases every queued frame and completes every waiter with the
// connection's error.  Only for a dead connection with no pass in
// WriteTo.
func (c *Coalescer) drain() {
	c.mu.Lock()
	err := c.err
	ws, obs := c.waiters, c.owners
	c.waiters, c.owners, c.pending = nil, nil, nil
	c.mu.Unlock()
	for _, f := range obs {
		wire.PutFrame(f)
	}
	for _, x := range ws {
		x.done <- xres{err: err}
	}
}

// Close fails whatever is queued and closes the connection.
func (c *Coalescer) Close() { c.fail(errors.New("netsim: connection closed")) }
