// Package sendfix exercises the sendown analyzer: appending a pooled
// frame to a coalescer queue is the ownership handoff (no touching it
// after), and a queue swapped out of its field must be drained on
// every path.
package sendfix

import (
	"sync"

	"asymstream/internal/wire"
)

type coal struct {
	mu     sync.Mutex
	owners []*wire.Frame
}

// enqueueOK fills the frame first, then hands it off.
func (c *coal) enqueueOK(payload []byte) {
	buf := wire.GetFrame()
	buf.Buf = append(buf.Buf[:0], payload...)
	c.mu.Lock()
	c.owners = append(c.owners, buf)
	c.mu.Unlock()
}

// enqueueBad touches the frame after the handoff: the drainer may
// already have released it on another goroutine.
func (c *coal) enqueueBad(payload []byte) {
	buf := wire.GetFrame()
	c.mu.Lock()
	c.owners = append(c.owners, buf)
	c.mu.Unlock()
	n := len(buf.Buf) // want "touched after it was handed"
	_ = n
}

// drainOK swaps the queue out and releases every frame.
func (c *coal) drainOK() {
	c.mu.Lock()
	owners := c.owners
	c.owners = nil
	c.mu.Unlock()
	for _, b := range owners {
		wire.PutFrame(b)
	}
}

// drainBad has an exit between the swap and the drain: those frames
// are gone.
func (c *coal) drainBad(fail bool) {
	c.mu.Lock()
	owners := c.owners // want "may drop its frames"
	c.owners = nil
	c.mu.Unlock()
	if fail {
		return
	}
	for _, b := range owners {
		wire.PutFrame(b)
	}
}
