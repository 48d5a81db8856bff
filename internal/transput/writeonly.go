//transput:discipline writeonly

package transput

import (
	"fmt"
	"sync"

	"asymstream/internal/kernel"
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
// WOInPort is that internal buffer plus the responder (passive input),
// a face over the one channel record (channel.go); Pusher is the
// active-output client that issues Deliver invocations, a face over the
// one active engine (link.go) — stop-and-wait at Window 1, a credit-gated
// send window above it.
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
	releaseDeliverRequest(req)
	inv.Reply(rep)
}

// deliverRequestPool recycles the DeliverRequest records decoded off an
// encoded hop, with their item vectors — the dual of transferRequestPool.
// The serving face (WOInPort, PassiveBuffer) releases one once absorb has
// taken its items, or released those it did not take; a windowed
// delivery parked at the sink's sequence gate keeps its record until
// then.
var deliverRequestPool = sync.Pool{New: func() any { return new(DeliverRequest) }}

// acquireDeliverRequest takes a recycled (or fresh) request, marked as
// the pool's, with an empty item vector.
func acquireDeliverRequest() *DeliverRequest {
	req := deliverRequestPool.Get().(*DeliverRequest)
	req.pooled = true
	return req
}

// releaseDeliverRequest recycles a request whose items its server has
// absorbed or released, if the pool issued it.  The vector goes with it,
// emptied: the items are no longer the record's.
func releaseDeliverRequest(req *DeliverRequest) {
	if !req.pooled {
		return
	}
	clear(req.Items)
	*req = DeliverRequest{Items: req.Items[:0]}
	deliverRequestPool.Put(req)
}

// deliverReplyPool recycles successful Deliver replies.  The server
// acquires one per delivery (replies now carry per-delivery Credits so
// a shared immutable record no longer works); the client releases it
// after reading Status and Credits.  Across an encoded hop the decoder
// acquires the client's copy and the link returns the server's original
// (ReleaseWirePayload), as for transferReplyPool.
var deliverReplyPool = sync.Pool{New: func() any { return new(DeliverReply) }}

// acquireDeliverReply takes a recycled (or fresh) OK reply.
func acquireDeliverReply() *DeliverReply {
	rep := deliverReplyPool.Get().(*DeliverReply)
	rep.Status = StatusOK
	rep.AbortMsg = ""
	rep.Credits = 0
	rep.pooled = true
	return rep
}

// releaseDeliverReply recycles a reply the client has absorbed.
func releaseDeliverReply(rep *DeliverReply) {
	rep.pooled = false
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
// discipline's arbitrary fan-out (Figure 3).  It is the face of the
// active engine (link.go) whose data rides the *request*, and adds only
// what that needs: the per-writer sequence ticket and the batch
// freelist.
//
// At Window 1 (the default) the producer's own goroutine runs every
// Deliver inline and blocks on the reply — that is its back pressure —
// so Put, Flush and Close report the delivery's own error.  Deliveries
// carry no Writer and the sink sequences nothing.
//
// At Window K>1 up to K Deliver invocations are in flight at once, one
// per helper, overlapping round-trip latency the same way the InPort's
// window overlaps Transfer latency.  Order is preserved by the protocol,
// not by the port: every delivery carries the port's Writer UID and a
// sequence number, and the passive side (WOInPort or PassiveBuffer)
// holds a delivery until its Seq is the writer's next expected one.
// Concurrency therefore cannot reorder the stream, and the End mark —
// carrying the final sequence number — is applied after every data
// delivery.  A delivery failure anywhere in the window is reported on
// the next Put, and by Close, which drains the window.
//
// Flow control in the window is the link's gate, granted in credits: each
// DeliverReply reports how many more items the sink could buffer
// (Credits).  The window shrinks when credits run low, so it does not
// park sink workers on a full buffer; at least one delivery is always
// allowed, which is how the window re-learns the credit level.
type Pusher struct {
	link
	k *kernel.Kernel // mints Writer UIDs

	// Producer state.  Producers (Put/Flush/Close/Redirect) hold mu across
	// an inline delivery — blocking there is exactly the back pressure the
	// protocol intends — and may block on sendq while holding it; helpers
	// never take mu, so that block always drains.
	mu      sync.Mutex
	pending [][]byte
	closed  bool
	arena   *wire.Arena // Put's copies; set by the first, dropped by Close

	// req is the producer's own Deliver request record, reused by every
	// exchange it runs inline.  Only one is outstanding (flushLocked runs
	// under mu) and the server copies the item references into its buffer
	// before replying, so the record and the pending backing array are
	// both safe to reuse once the exchange returns.  Its Writer is nil.
	req DeliverRequest

	// Send window (window > 1).  sendq is nil while no helpers are
	// attached: they start with the first delivery and leave at a drain.
	writer uid.UID
	seq    uint64
	sendq  chan deliverJob
	free   chan [][]byte // recycled batch backing arrays

	// sendNext is the sequence ticket on top of the link's window gate,
	// guarded by gateMu: wire slots are acquired in sequence order, which
	// guarantees the lowest in-flight seq is never held by the server's
	// sequencing gate (its predecessors have all been applied) — without
	// it, a shrunken window could give its only slot to an out-of-order
	// delivery whose reply the server withholds, deadlocking the port.
	// With one slot the gate is vacuous and the inline path skips it.
	sendNext uint64
}

// deliverJob is one batch on its way to the sink.
type deliverJob struct {
	items [][]byte
	seq   uint64
	end   bool
	asked int // batch size the producer was aiming for (adaptive feedback)
}

// PusherConfig parameterises a Pusher.
type PusherConfig struct {
	// Batch is the number of items per Deliver; <=0 means 1 (the
	// paper-faithful count of one datum per invocation).
	Batch int
	// Window is the number of Deliver invocations kept in flight;
	// clamped to [1, MaxWindow].
	Window int
	// BatchMax > 0 makes the batch size adaptive within
	// [max(1, BatchMin), BatchMax], overriding Batch (see InPortConfig).
	BatchMin int
	BatchMax int
}

// NewPusher creates an active-output port pushing to target's channel.
func NewPusher(k *kernel.Kernel, self, target uid.UID, channel ChannelID, cfg PusherConfig) *Pusher {
	w := &Pusher{k: k, req: DeliverRequest{Channel: channel}}
	w.init(k, self, target, channel, OpDeliver, cfg.Batch, cfg.BatchMin, cfg.BatchMax, cfg.Window)
	if w.window > 1 {
		w.writer = k.NewUID()
		w.free = make(chan [][]byte, w.window+1) // every helper's array, and the producer's
	}
	return w
}

// Target returns the UID this pusher delivers to.
func (w *Pusher) Target() uid.UID { return w.peer }

// Channel returns the channel identifier this pusher delivers on.
func (w *Pusher) Channel() ChannelID { return w.channel }

// deliver runs one Deliver exchange carrying job, using the given
// request record, and returns the sink's credit grant (-1 with an
// error, which is also recorded as the stream's).
func (w *Pusher) deliver(req *DeliverRequest, job deliverJob) (int, error) {
	req.Items, req.Seq, req.End = job.items, job.seq, job.end
	raw, start, err := w.exchange(req)
	req.Items = nil
	rep, ok := raw.(*DeliverReply)
	switch {
	case err != nil:
		// The invocation never reached the sink; the batch dies here.
		// (On a non-OK reply the sink owns the cleanup of whatever it did
		// not absorb; on success it has absorbed the item references — or,
		// across an encoded node hop, the decoded copies superseded them
		// and the link released any views.)
		wire.ReleaseAll(job.items)
	case !ok:
		err = fmt.Errorf("transput: bad Deliver reply type %T", raw)
	case rep.Status != StatusOK:
		err = statusErr(rep.Status, rep.AbortMsg) // copies the message
	default:
		credits := rep.Credits
		releaseDeliverReply(rep)
		w.settle(start, job.asked, len(job.items))
		return credits, nil
	}
	w.fail(err)
	return -1, err
}

// send is one of the window's helpers: it takes batches off q and keeps
// one synchronous Deliver on the wire, its slot taken at the link's gate
// in sequence order.
func (w *Pusher) send(q <-chan deliverJob) {
	req := DeliverRequest{Channel: w.channel, Writer: w.writer}
	for job := range q {
		// Once the stream has failed, later batches (and the End mark) are
		// dropped — the sink's abort released any gated deliveries.  The
		// slot sequence still advances so helpers parked on seq order do
		// not stall.
		live := w.failed() == nil
		w.gateMu.Lock()
		for w.sendNext != job.seq {
			w.gateCond.Wait()
		}
		if live {
			w.enterLocked() // never shut: a Pusher's helpers leave when their queue closes
		}
		w.sendNext++
		w.gateCond.Broadcast() // the next seq may proceed concurrently
		w.gateMu.Unlock()
		if !live {
			wire.ReleaseAll(job.items)
			w.recycle(job.items)
			continue
		}

		credits, _ := w.deliver(&req, job)
		w.recycle(job.items)
		w.leave(credits)
	}
}

// recycle returns a drained batch backing array to the freelist.
func (w *Pusher) recycle(items [][]byte) {
	clear(items)
	select {
	case w.free <- items[:0]:
	default:
	}
}

// flushLocked delivers the pending items (and optionally End); asked is
// the batch size the producer was filling toward.  Caller holds w.mu.
// With one slot the delivery runs here, on the producer, and its error
// is returned; with a window the batch is handed to the helpers — the
// hand-off blocks when Window batches are already in flight, which is
// the port's back pressure — and the error returned is whatever the
// stream has already suffered.
func (w *Pusher) flushLocked(end bool, asked int) error {
	if len(w.pending) == 0 && !end {
		return nil
	}
	job := deliverJob{items: w.pending, end: end, asked: asked}
	if w.window == 1 {
		_, err := w.deliver(&w.req, job)
		// Drop our pointers but keep the backing array for the next batch.
		clear(w.pending)
		w.pending = w.pending[:0]
		return err
	}
	job.seq = w.seq
	w.seq++
	select {
	case w.pending = <-w.free:
	default:
		w.pending = nil
	}
	if w.sendq == nil {
		q := make(chan deliverJob, w.window) // one batch queued behind each one in flight
		w.sendq = q
		w.start(w.window, func() { w.send(q) }, nil)
	}
	w.sendq <- job
	return w.failed()
}

// drainLocked waits until every delivery handed to the window has been
// made (or dropped, on a failed stream) and reports the stream's first
// failure.  The helpers leave; the next delivery starts new ones.
// Caller holds w.mu.
func (w *Pusher) drainLocked() error {
	if w.sendq != nil {
		close(w.sendq)
		w.sendq = nil
		w.helpers.Wait()
	}
	return w.failed()
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
	err := w.failed()
	if w.closed {
		err = ErrClosed
	}
	if err != nil {
		if owned {
			wire.Release(item)
		}
		return err
	}
	if owned {
		w.met.WireBytesSaved.Add(int64(len(item)))
	} else {
		item = copyItem(&w.arena, item)
	}
	w.pending = append(w.pending, item)
	if t := w.size(); len(w.pending) >= t {
		return w.flushLocked(false, t)
	}
	return nil
}

// Flush forces out any partial batch.  On a windowed pusher it does not
// wait for the delivery to be acknowledged.
func (w *Pusher) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.flushLocked(false, w.size())
}

// Close sends the final delivery (any partial batch plus this writer's
// End mark), drains the window, and reports the stream's first delivery
// failure, if any.
func (w *Pusher) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed, w.arena = true, nil
	_ = w.flushLocked(true, w.size()) // a failure here is the stream's: the drain reports it
	return w.drainLocked()
}

// CloseWithError aborts the target channel — which also releases any of
// the window's deliveries parked at the sink — and drains the window.
func (w *Pusher) CloseWithError(err error) error {
	if err == nil {
		return w.Close()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed, w.arena = true, nil
	wire.ReleaseAll(w.pending) // the abort drops the partial batch
	w.pending = nil
	aerr := w.abort(err.Error())
	_ = w.drainLocked()
	return aerr
}

// DeliversIssued reports how many Deliver invocations this pusher has
// sent.
func (w *Pusher) DeliversIssued() int64 { return w.issued.Load() }

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
