package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"asymstream/internal/wire"
)

// coalescer is the write side of one connection, shared by the socket
// links (one per node direction) and the bridge (one per connection).
// Senders append encoded pooled frames under one mutex, and the writer
// is caller-driven: the sender that finds no write in flight claims the
// connection and drains the whole queue with one vectored write
// (writev); senders that arrive while a writev is on the wire just
// append, and the incumbent's next pass carries them all.  N concurrent
// senders cost one syscall, not N, and a lone sender pays no scheduler
// handoff between itself and the syscall.
type coalescer struct {
	conn net.Conn

	mu      sync.Mutex
	pending net.Buffers
	owners  []*[]byte // pooled buffers backing pending, same order
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
	spareOwners  []*[]byte
	inflight     net.Buffers
}

// encodeFrame encodes v as one wire frame into a pooled buffer, which
// the caller owns until it hands it to enqueue.
func encodeFrame(v any) (*[]byte, error) {
	buf := wire.GetBuf()
	enc, err := wire.Append((*buf)[:0], v)
	if err != nil {
		wire.PutBuf(buf)
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	*buf = enc
	return buf, nil
}

// enqueue takes ownership of an encoded frame and queues it (with its
// waiter, if any) for the next writev, draining the queue itself when
// no other sender owns the connection.  It fails only on a connection
// already dead, in which case x was not queued.
func (c *coalescer) enqueue(buf *[]byte, x *xfer) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		wire.PutBuf(buf)
		return err
	}
	if x != nil {
		c.waiters = append(c.waiters, x)
	}
	c.pending = append(c.pending, *buf)
	c.owners = append(c.owners, buf)
	claim := !c.writing
	c.writing = true
	c.mu.Unlock()
	if claim {
		c.writeOut()
	}
	return nil
}

// send encodes v and enqueues it with no waiter (the bridge matches
// replies by id, not by order).
func (c *coalescer) send(v any) error {
	buf, err := encodeFrame(v)
	if err != nil {
		return err
	}
	return c.enqueue(buf, nil)
}

// writeOut drains the queue, one writev per pass.  The claim is
// released under the same lock that proves the queue empty, so a frame
// enqueued after the release always finds writing == false and becomes
// the writer itself.  The queues are double-buffered: a pass swaps the
// filled arrays for the ones the pass before emptied, so in steady
// state neither enqueue nor writeOut allocates.
func (c *coalescer) writeOut() {
	for {
		c.mu.Lock()
		bufs := c.pending
		//vet:ok sendown -- empty-queue exit: len(bufs)==0 under c.mu implies owners is empty too
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
		for i, b := range owners {
			wire.PutBuf(b)
			owners[i] = nil // a parked array must not pin pooled buffers
		}
		if err != nil {
			c.fail(fmt.Errorf("transport: write: %w", err))
			return
		}
		// A complete write has consumed, and so cleared, every entry of bufs.
		c.sparePending, c.spareOwners = bufs[:0], owners[:0]
	}
}

// fail marks the connection dead and drains every queued frame and
// waiter.  Idempotent; only the first error sticks.
func (c *coalescer) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	} else {
		err = c.err
	}
	ws, obs := c.waiters, c.owners
	c.waiters, c.owners, c.pending = nil, nil, nil
	c.mu.Unlock()
	for _, b := range obs {
		wire.PutBuf(b)
	}
	for _, x := range ws {
		x.done <- xres{err: err}
	}
}

// close fails whatever is queued and closes the connection.
func (c *coalescer) close() {
	c.fail(errors.New("transport: connection closed"))
	c.conn.Close()
}
