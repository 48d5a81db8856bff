// Adaptive per-link batching.  The paper's accounting fixes one datum
// per invocation; Options.Batch generalised that to a fixed batch, and
// Options.BatchMin/BatchMax generalise it again to a runtime-tuned one.
// Each active link (link.go, under InPort and Pusher alike) owns an AIMD
// controller that sizes the next Transfer Max or Deliver batch: additive
// increase while exchanges come back full, multiplicative decrease when
// the observed latency per item rises well above the best this link has
// seen — fuller batches are only worth having while they keep amortising
// the invocation overhead.
//
// With BatchMin == BatchMax the size is pinned, no controller is built
// and the link is the fixed-batch engine itself, so the per-datum
// invocation counts are exactly its counts — what `transput-bench
// -check` asserts for BatchMin=BatchMax=1 against the paper's figures.
package transput

import (
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/metrics"
)

// batchController is one link's AIMD batch-size governor.
type batchController struct {
	min, max int
	hw       *metrics.HighWater

	// size is the batch size in force.  record moves it under mu; the
	// link reads it on every Put and every reply without the lock.
	size atomic.Int64

	mu   sync.Mutex
	ewma float64 // smoothed ns per item
	best float64 // lowest smoothed ns/item observed at the current level
}

// aimd tuning constants.
const (
	batchEwmaAlpha   = 0.25 // weight of the newest latency sample
	batchBackoffOver = 1.5  // decrease when ewma exceeds best by this factor
)

// newBatchController resolves a port's batch configuration into the
// size it starts at and, if that size is free to move, the controller
// that moves it.  max <= 0 means no adaptation: the size is the fixed
// batch (at least 1).  Otherwise the bounds, clamped to 1 <= min <= max,
// override it: the port starts at min, observed on hw.  Bounds that pin
// the size to a single value leave nothing to govern, so the controller
// is nil and the port runs fixed at that size, paying no clock reads or
// controller locking per exchange.
func newBatchController(fixed, min, max int, hw *metrics.HighWater) (*batchController, int) {
	if max <= 0 {
		if fixed < 1 {
			fixed = 1
		}
		return nil, fixed
	}
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if hw != nil {
		hw.Observe(int64(min))
	}
	if min == max {
		return nil, min
	}
	c := &batchController{min: min, max: max, hw: hw}
	c.size.Store(int64(min))
	return c, min
}

// next returns the batch size to use for the next exchange.
func (c *batchController) next() int { return int(c.size.Load()) }

// record folds in one completed exchange: asked is the batch size that
// was requested, got how many items actually moved, elapsed the
// round-trip time of the exchange (including any blocking — a link that
// is waiting on its peer gains nothing from fatter batches).
func (c *batchController) record(asked, got int, elapsed time.Duration) {
	if got <= 0 {
		return
	}
	per := float64(elapsed.Nanoseconds()) / float64(got)
	c.mu.Lock()
	if c.ewma == 0 {
		c.ewma = per
	} else {
		c.ewma = (1-batchEwmaAlpha)*c.ewma + batchEwmaAlpha*per
	}
	if c.best == 0 || c.ewma < c.best {
		c.best = c.ewma
	}
	size := int(c.size.Load())
	switch {
	case c.ewma > c.best*batchBackoffOver && size > c.min:
		size = max(size/2, c.min)
		// Re-anchor so a transient spike does not pin the link at the
		// floor forever; the controller re-probes upward from here.
		c.best = c.ewma
	case got >= asked && size < c.max:
		size++
	}
	c.size.Store(int64(size))
	if c.hw != nil {
		c.hw.Observe(int64(size))
	}
	c.mu.Unlock()
}
