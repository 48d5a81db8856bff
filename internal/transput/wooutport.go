//transput:discipline writeonly

package transput

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// WOOutPort is the windowed active-output port: the write-only
// discipline's dual of the windowed InPort.  Where a Pusher keeps at
// most one Deliver invocation outstanding (blocking on each reply is
// its back pressure), a WOOutPort keeps up to Window Deliver
// invocations in flight at once, overlapping round-trip latency the
// same way the InPort's puller window overlaps Transfer latency.
//
// Order is preserved by the protocol, not by the port: every delivery
// carries the port's Writer UID and a sequence number, and the passive
// side (WOInPort or PassiveBuffer) holds a delivery until its Seq is
// the writer's next expected one.  Concurrency therefore cannot
// reorder the stream, and the End mark — carrying the final sequence
// number — is applied after every data delivery.
//
// Flow control is credit-based: each DeliverReply reports how many
// more items the sink could buffer (Credits).  The port shrinks its
// effective window when credits run low, so it does not park sink
// workers on a full buffer; at least one delivery is always allowed,
// which is how the window re-learns the credit level.
type WOOutPort struct {
	k       *kernel.Kernel
	met     *metrics.Set
	caller  *kernel.Caller
	self    uid.UID
	target  uid.UID
	channel ChannelID
	batch   int
	window  int
	writer  uid.UID
	// ctrl, when non-nil, sizes batches adaptively (AIMD) instead of
	// the fixed batch.
	ctrl *batchController

	// Producer state.  Producers (Put/Flush/Close) hold mu, and may
	// block on sendq while holding it; sender workers never take mu, so
	// that block always drains.
	mu      sync.Mutex
	pending [][]byte
	seq     uint64
	closed  bool

	sendq chan deliverJob
	free  chan [][]byte // recycled batch backing arrays
	wg    sync.WaitGroup

	// Credit gate.  active counts deliveries currently on the wire;
	// limit is the credit-adjusted window (1..window); sendNext forces
	// wire slots to be acquired in sequence order, which guarantees the
	// lowest in-flight seq is never held by the server's sequencing
	// gate (its predecessors have all been applied) — without it, a
	// shrunken window could give its only slot to an out-of-order
	// delivery whose reply the server withholds, deadlocking the port.
	credMu   sync.Mutex
	credCond *sync.Cond
	active   int
	limit    int
	sendNext uint64

	errMu sync.Mutex
	err   error // first delivery failure, sticky

	inflight       atomic.Int64
	deliversIssued atomic.Int64
	itemsOut       atomic.Int64
}

// deliverJob is one batch moving from the producer to a sender worker.
type deliverJob struct {
	items [][]byte
	seq   uint64
	end   bool
	asked int // batch size the producer was aiming for (adaptive feedback)
}

// WOOutPortConfig parameterises a WOOutPort.
type WOOutPortConfig struct {
	// Batch is the number of items per Deliver; <=0 means 1.
	Batch int
	// Window is the number of Deliver invocations kept in flight;
	// clamped to [1, MaxWindow].
	Window int
	// BatchMax > 0 makes the batch size adaptive within
	// [max(1, BatchMin), BatchMax], overriding Batch (see InPortConfig).
	BatchMin int
	BatchMax int
}

// NewWOOutPort creates a windowed active-output port delivering to
// target's channel.  Each sender worker issues synchronous Deliver
// invocations, so Window workers yield Window overlapped round trips.
func NewWOOutPort(k *kernel.Kernel, self, target uid.UID, channel ChannelID, cfg WOOutPortConfig) *WOOutPort {
	if k == nil {
		panic("transput: NewWOOutPort requires a kernel")
	}
	window := cfg.Window
	if window < 1 {
		window = 1
	}
	if window > MaxWindow {
		window = MaxWindow
	}
	met := k.Metrics()
	ctrl, batch := newBatchController(cfg.Batch, cfg.BatchMin, cfg.BatchMax, &met.BatchSizeHighWater)
	w := &WOOutPort{
		k:       k,
		met:     met,
		caller:  k.Caller(self),
		self:    self,
		target:  target,
		channel: channel,
		batch:   batch,
		window:  window,
		ctrl:    ctrl,
		writer:  k.NewUID(),
		sendq:   make(chan deliverJob, window),
		free:    make(chan [][]byte, window+1),
		limit:   window,
	}
	w.credCond = sync.NewCond(&w.credMu)
	w.wg.Add(window)
	for i := 0; i < window; i++ {
		go w.sender()
	}
	return w
}

// Target returns the UID this port delivers to.
func (w *WOOutPort) Target() uid.UID { return w.target }

// Channel returns the channel identifier this port delivers on.
func (w *WOOutPort) Channel() ChannelID { return w.channel }

// Writer returns the UID the passive side sequences this port's
// deliveries under.
func (w *WOOutPort) Writer() uid.UID { return w.writer }

// loadErr returns the sticky first delivery failure.
func (w *WOOutPort) loadErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

func (w *WOOutPort) setErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
}

// recycle returns a drained batch backing array to the freelist.
func (w *WOOutPort) recycle(items [][]byte) {
	for i := range items {
		items[i] = nil
	}
	select {
	case w.free <- items[:0]:
	default:
	}
}

// sender is one of Window worker goroutines: it takes batches off
// sendq and keeps one synchronous Deliver on the wire, gated by the
// sink's credits.
func (w *WOOutPort) sender() {
	defer w.wg.Done()
	req := DeliverRequest{Channel: w.channel, Writer: w.writer}
	for job := range w.sendq {
		if w.loadErr() != nil {
			// The stream already failed; later batches (and the End
			// mark) are dropped — the sink's abort released any gated
			// deliveries.  The slot sequence still advances so workers
			// parked on seq order do not stall.
			wire.ReleaseAll(job.items)
			w.recycle(job.items)
			w.credMu.Lock()
			for w.sendNext != job.seq {
				w.credCond.Wait()
			}
			w.sendNext++
			w.credCond.Broadcast()
			w.credMu.Unlock()
			continue
		}
		w.credMu.Lock()
		for w.sendNext != job.seq || w.active >= w.limit {
			w.credCond.Wait()
		}
		w.sendNext++
		w.active++
		w.credCond.Broadcast() // the next seq may proceed concurrently
		w.credMu.Unlock()

		depth := w.inflight.Add(1)
		w.met.WindowDepthHighWater.Observe(depth)
		req.Items = job.items
		req.Seq = job.seq
		req.End = job.end
		w.deliversIssued.Add(1)
		w.itemsOut.Add(int64(len(job.items)))
		var start time.Time
		if w.ctrl != nil {
			start = time.Now()
		}
		raw, err := w.caller.Invoke(w.target, OpDeliver, &req)
		w.inflight.Add(-1)
		req.Items = nil
		if err != nil {
			// The invocation never reached the sink; the batch dies with
			// this sender.  (On a non-OK reply the sink owns the cleanup
			// of whatever it did not absorb.)
			wire.ReleaseAll(job.items)
		}
		credits := -1
		if err == nil {
			if rep, ok := raw.(*DeliverReply); ok {
				if rep.Status != StatusOK {
					err = statusErr(rep.Status, rep.AbortMsg)
				} else {
					credits = rep.Credits
					releaseDeliverReply(rep)
					if w.ctrl != nil && len(job.items) > 0 {
						w.ctrl.record(job.asked, len(job.items), time.Since(start))
					}
				}
			} else {
				err = fmt.Errorf("transput: bad Deliver reply type %T", raw)
			}
		}
		w.recycle(job.items)

		w.credMu.Lock()
		w.active--
		if credits >= 0 {
			// Credit rule: leave the sink at least one batch of slack
			// per in-flight delivery; never stall completely, so the
			// next reply can raise the limit again.
			bsz := w.batch
			if w.ctrl != nil {
				bsz = w.ctrl.next()
			}
			lim := 1 + credits/bsz
			if lim > w.window {
				lim = w.window
			}
			w.limit = lim
		}
		w.credCond.Broadcast()
		w.credMu.Unlock()

		if err != nil {
			w.setErr(err)
		}
	}
}

// enqueueLocked hands the pending batch to the sender pool.  Caller
// holds w.mu.  The send blocks when Window batches are already in
// flight — that is the port's back pressure.  asked is the batch size
// the producer was filling toward (the adaptive controller's feedback
// signal; equal to the batch for fixed-size ports).
func (w *WOOutPort) enqueueLocked(end bool, asked int) {
	job := deliverJob{items: w.pending, seq: w.seq, end: end, asked: asked}
	w.seq++
	select {
	case w.pending = <-w.free:
	default:
		w.pending = nil
	}
	w.sendq <- job
}

// threshold returns the batch size currently in force.
func (w *WOOutPort) threshold() int {
	if w.ctrl != nil {
		return w.ctrl.next()
	}
	return w.batch
}

// Put queues one item, handing off a full batch to the send window.
// The item is copied.  A delivery failure anywhere in the window is
// reported on the next Put.
func (w *WOOutPort) Put(item []byte) error { return w.put(item, false) }

// PutOwned queues the item slice itself, taking ownership (see
// OwnedItemWriter).
func (w *WOOutPort) PutOwned(item []byte) error { return w.put(item, true) }

func (w *WOOutPort) put(item []byte, owned bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		if owned {
			wire.Release(item)
		}
		return ErrClosed
	}
	if err := w.loadErr(); err != nil {
		if owned {
			wire.Release(item)
		}
		return err
	}
	if owned {
		w.met.WireBytesSaved.Add(int64(len(item)))
		w.pending = append(w.pending, item)
	} else {
		w.pending = append(w.pending, append([]byte(nil), item...))
	}
	if t := w.threshold(); len(w.pending) >= t {
		w.enqueueLocked(false, t)
	}
	return nil
}

// Flush hands any partial batch to the send window.  It does not wait
// for the delivery to be acknowledged.
func (w *WOOutPort) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if len(w.pending) > 0 {
		w.enqueueLocked(false, w.threshold())
	}
	return w.loadErr()
}

// Close sends the final delivery (any partial batch plus the End mark,
// carrying the last sequence number), waits for the whole window to
// drain, and reports the first delivery failure, if any.
func (w *WOOutPort) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.enqueueLocked(true, w.threshold())
	close(w.sendq)
	w.mu.Unlock()
	w.wg.Wait()
	return w.loadErr()
}

// CloseWithError drains the window and aborts the target channel.
func (w *WOOutPort) CloseWithError(err error) error {
	if err == nil {
		return w.Close()
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	wire.ReleaseAll(w.pending) // the abort drops the partial batch
	w.pending = nil
	close(w.sendq)
	w.mu.Unlock()
	w.wg.Wait()
	_, aerr := w.caller.Invoke(w.target, OpAbort, &AbortRequest{Channel: w.channel, Msg: err.Error()})
	return aerr
}

// DeliversIssued reports how many Deliver invocations this port has
// sent.
func (w *WOOutPort) DeliversIssued() int64 { return w.deliversIssued.Load() }

// ItemsWritten reports how many items have been handed to the wire.
func (w *WOOutPort) ItemsWritten() int64 { return w.itemsOut.Load() }

var _ ItemWriter = (*WOOutPort)(nil)
