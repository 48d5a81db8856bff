//transput:discipline writeonly

package transput

import (
	"fmt"
	"sync"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// This file implements the "write only" discipline of §5 — the exact
// dual of read-only transput.  "Data sources would continually attempt
// to perform write invocations, and sinks would always be ready to
// accept them. ... Within an Eject, a conventional Read routine could
// be implemented by extracting data from an internal buffer; another
// process would respond to incoming Write invocations and use the data
// thus obtained to fill the same buffer."
//
// WOInPort is that internal buffer plus the responder (passive input);
// Pusher is the active-output client that issues Deliver invocations.
//
// The duality of fan-in/fan-out is visible directly in the code: a
// WOInPort channel cannot tell its writers apart (deliveries merge
// indistinguishably — "F cannot distinguish this from one Eject making
// the same total number of invocations", dualised), while one Eject
// may hold any number of Pushers (arbitrary fan-out).

// WOInPort is the passive-input half: a registry of channels that
// accept Deliver invocations into bounded buffers, read locally by the
// owning Eject through ChannelReader.
type WOInPort struct {
	chanRegistry
}

// WOInPortConfig parameterises a WOInPort.
type WOInPortConfig struct {
	// Capacity bounds each channel's buffer in items; 0 means
	// DefaultCapacity, negative means 1 (Deliver-at-a-time handoff —
	// a zero-capacity passive input could never accept anything).
	Capacity int
	// CapabilityMode requires Deliver requests to quote a minted UID.
	CapabilityMode bool
}

// NewWOInPort creates a passive-input port.  k may be nil in unit
// tests.
func NewWOInPort(k *kernel.Kernel, cfg WOInPortConfig) *WOInPort {
	p := new(WOInPort)
	p.init(k, cfg.CapabilityMode, true)
	return p
}

// inputCapacity is the passive-input faces' capacity rule: 0 selects
// DefaultCapacity and a negative value selects single-item handoff.
func inputCapacity(capacity int) int {
	switch {
	case capacity < 0:
		return 1
	case capacity == 0:
		return DefaultCapacity
	}
	return capacity
}

// Declare creates a channel accepting deliveries and returns the
// reader the owning Eject uses to consume it.  writers is the number
// of End marks that complete the stream (the fan-in degree; minimum
// 1).  capacity <= -1 selects single-item handoff; 0 selects
// DefaultCapacity.
func (p *WOInPort) Declare(name string, num ChannelNum, capacity, writers int) *ChannelReader {
	ch, gen := p.declare(name, num, inputCapacity(capacity), writers)
	return &ChannelReader{ch: ch, gen: gen}
}

// Retire tears down a channel: parked Deliver workers are released
// with StatusAborted, stale handles fail their generation checks, the
// backlog is dropped with slab views released, and the record returns
// to the pool.  It reports whether this call performed the teardown.
func (p *WOInPort) Retire(r *ChannelReader) bool { return p.retire(r.ch, r.gen) }

// ServeDeliver handles one Deliver invocation, withholding the reply
// until every item fits in the channel's buffer (see channel.absorb).
func (p *WOInPort) ServeDeliver(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*DeliverRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	p.met.DeliverInvocations.Inc()
	ch, gen, st := p.lookup(req.Channel)
	var rep *DeliverReply
	if st == StatusOK {
		if rep = ch.absorb(gen, req); rep == nil {
			st = p.missStatus() // a retire won the race between lookup and lock
		}
	}
	if rep == nil {
		wire.ReleaseAll(req.Items) // never absorbed
		rep = &DeliverReply{Status: st}
	}
	inv.Reply(rep)
}

// deliverReplyPool recycles successful Deliver replies.  The server
// acquires one per delivery (replies now carry per-delivery Credits so
// a shared immutable record no longer works); the client releases it
// after reading Status and Credits.  Replies that cross a
// gob-encoding node boundary fall to the GC — the pool is best-effort.
var deliverReplyPool = sync.Pool{New: func() any { return new(DeliverReply) }}

// acquireDeliverReply takes a recycled (or fresh) OK reply.
func acquireDeliverReply() *DeliverReply {
	rep := deliverReplyPool.Get().(*DeliverReply)
	rep.Status = StatusOK
	rep.AbortMsg = ""
	rep.Credits = 0
	return rep
}

// releaseDeliverReply recycles a reply the client has absorbed.
func releaseDeliverReply(rep *DeliverReply) {
	deliverReplyPool.Put(rep)
}

// Serve dispatches the transput operations a WOInPort understands,
// returning false for non-transput ops.
func (p *WOInPort) Serve(inv *kernel.Invocation) bool {
	if inv.Op == OpDeliver {
		p.ServeDeliver(inv)
		return true
	}
	return p.serveControl(inv)
}

// DeliversServed reports total Deliver invocations accepted.
func (p *WOInPort) DeliversServed() int64 {
	return p.sum(func(c *channel) int64 { return c.deliversServed })
}

// ChannelReader is the owning Eject's local consumer for one
// passive-input channel: §5's "conventional Read routine ...
// extracting data from an internal buffer".  It implements ItemReader.
// The reader is bound to one incarnation of the channel record; after
// Retire, Next reports io.EOF and Cancel is a no-op.
type ChannelReader struct {
	ch  *channel
	gen uint64
}

// ID returns the channel's identifier.
func (r *ChannelReader) ID() ChannelID { return r.ch.id }

// Next returns the next delivered item, or io.EOF once every expected
// writer has sent End and the buffer has drained.
func (r *ChannelReader) Next() ([]byte, error) { return r.ch.next(r.gen) }

// Cancel aborts the channel locally (consumer going away), releasing
// parked Deliver workers with StatusAborted.  The undrained backlog is
// dropped — nothing will ever read it — releasing any slab views.
func (r *ChannelReader) Cancel(msg string) {
	r.ch.abort(&AbortedError{Msg: msg}, r.gen, true)
}

var _ ItemReader = (*ChannelReader)(nil)

// Pusher is the active-output client: it issues Deliver invocations
// against a target Eject's input channel.  It implements ItemWriter.
// One Eject may hold many Pushers — that is the write-only
// discipline's arbitrary fan-out (Figure 3).
type Pusher struct {
	k       *kernel.Kernel
	met     *metrics.Set
	caller  *kernel.Caller
	self    uid.UID
	target  uid.UID
	channel ChannelID
	batch   int
	// ctrl, when non-nil, sizes batches adaptively (AIMD) instead of
	// the fixed batch.
	ctrl *batchController

	mu      sync.Mutex
	pending [][]byte
	closed  bool

	// req is the pusher's reusable Deliver request record.  At most
	// one Deliver is outstanding per Pusher (flushLocked runs under
	// w.mu) and the server copies items into its buffer before
	// replying, so the record and the pending backing array are both
	// safe to reuse once Invoke returns.
	req DeliverRequest

	deliversIssued int64
	itemsOut       int64
}

// PusherConfig parameterises a Pusher.
type PusherConfig struct {
	// Batch is the number of items per Deliver; <=0 means 1 (the
	// paper-faithful count of one datum per invocation).
	Batch int
	// BatchMax > 0 makes the batch size adaptive within
	// [max(1, BatchMin), BatchMax], overriding Batch (see InPortConfig).
	BatchMin int
	BatchMax int
}

// NewPusher creates an active-output port pushing to target's channel.
func NewPusher(k *kernel.Kernel, self, target uid.UID, channel ChannelID, cfg PusherConfig) *Pusher {
	if k == nil {
		panic("transput: NewPusher requires a kernel")
	}
	met := k.Metrics()
	ctrl, batch := newBatchController(cfg.Batch, cfg.BatchMin, cfg.BatchMax, &met.BatchSizeHighWater)
	return &Pusher{
		k:       k,
		met:     met,
		caller:  k.Caller(self),
		self:    self,
		target:  target,
		channel: channel,
		batch:   batch,
		ctrl:    ctrl,
		req:     DeliverRequest{Channel: channel},
	}
}

// Target returns the UID this pusher delivers to.
func (w *Pusher) Target() uid.UID { return w.target }

// Channel returns the channel identifier this pusher delivers on.
func (w *Pusher) Channel() ChannelID { return w.channel }

// flushLocked sends pending items (and optionally End).  Caller holds
// w.mu; the invocation itself runs without the lock is NOT needed —
// blocking here is exactly the back pressure the protocol intends.
func (w *Pusher) flushLocked(end bool) error {
	if len(w.pending) == 0 && !end {
		return nil
	}
	asked := w.batch
	var start time.Time
	if w.ctrl != nil {
		asked = w.ctrl.next()
		start = time.Now()
	}
	n := len(w.pending)
	w.deliversIssued++
	w.itemsOut += int64(n)
	w.req.Items = w.pending
	w.req.End = end
	raw, err := w.caller.Invoke(w.target, OpDeliver, &w.req)
	// On success the sink has absorbed the item references (or, across
	// an encoded node hop, the decoded copies superseded them and netsim
	// released any views).  Drop our pointers but keep the backing array
	// for the next batch.  An invocation that never reached the sink
	// leaves the items to die here.
	if err != nil {
		wire.ReleaseAll(w.pending)
	}
	for i := range w.pending {
		w.pending[i] = nil
	}
	w.pending = w.pending[:0]
	w.req.Items = nil
	if err != nil {
		return err
	}
	rep, ok := raw.(*DeliverReply)
	if !ok {
		return fmt.Errorf("transput: bad Deliver reply type %T", raw)
	}
	if rep.Status != StatusOK {
		return statusErr(rep.Status, rep.AbortMsg) // copies the message
	}
	if w.ctrl != nil && n > 0 {
		w.ctrl.record(asked, n, time.Since(start))
	}
	releaseDeliverReply(rep)
	return nil
}

// Put queues one item, delivering when a full batch accumulates.  The
// item is copied.
func (w *Pusher) Put(item []byte) error { return w.put(item, false) }

// PutOwned queues the item slice itself, taking ownership (see
// OwnedItemWriter).
func (w *Pusher) PutOwned(item []byte) error { return w.put(item, true) }

func (w *Pusher) put(item []byte, owned bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		if owned {
			wire.Release(item)
		}
		return ErrClosed
	}
	if owned {
		w.met.WireBytesSaved.Add(int64(len(item)))
		w.pending = append(w.pending, item)
	} else {
		w.pending = append(w.pending, append([]byte(nil), item...))
	}
	threshold := w.batch
	if w.ctrl != nil {
		threshold = w.ctrl.next()
	}
	if len(w.pending) >= threshold {
		return w.flushLocked(false)
	}
	return nil
}

// Flush forces out any partial batch.
func (w *Pusher) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.flushLocked(false)
}

// Close flushes and sends this writer's End mark.
func (w *Pusher) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.flushLocked(true)
}

// CloseWithError aborts the target channel.
func (w *Pusher) CloseWithError(err error) error {
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
	w.mu.Unlock()
	_, aerr := w.caller.Invoke(w.target, OpAbort, &AbortRequest{Channel: w.channel, Msg: err.Error()})
	return aerr
}

// DeliversIssued reports how many Deliver invocations this pusher has
// sent.
func (w *Pusher) DeliversIssued() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.deliversIssued
}

var _ ItemWriter = (*Pusher)(nil)

// MultiWriter duplicates every item to all of ws; Close/CloseWithError
// fan out likewise.  It is the simplest fan-out device for disciplines
// that permit it.
type MultiWriter struct {
	ws []ItemWriter
}

// NewMultiWriter returns an ItemWriter that duplicates to all ws.
func NewMultiWriter(ws ...ItemWriter) *MultiWriter { return &MultiWriter{ws: ws} }

// Put fans the item out to every writer, stopping at the first error.
func (m *MultiWriter) Put(item []byte) error {
	for _, w := range m.ws {
		if err := w.Put(item); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every writer, returning the first error.
func (m *MultiWriter) Close() error {
	var first error
	for _, w := range m.ws {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CloseWithError aborts every writer, returning the first error.
func (m *MultiWriter) CloseWithError(err error) error {
	var first error
	for _, w := range m.ws {
		if e := w.CloseWithError(err); e != nil && first == nil {
			first = e
		}
	}
	return first
}

var _ ItemWriter = (*MultiWriter)(nil)
