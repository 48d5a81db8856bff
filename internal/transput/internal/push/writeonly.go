// Package push is the write-only discipline's pair of faces: Pusher
// (active output) and WOInPort with its ChannelReader (passive input).
// It imports core and never pull, and names none of core's Transfer-side
// names (transput's TestPackageLayout checks both).
package push

import (
	"fmt"
	"sync"

	"asymstream/internal/kernel"
	"asymstream/internal/uid"
	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
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
	chanRegistry core.ChanRegistry
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
	p.chanRegistry.Init(k, cfg.CapabilityMode, true)
	return p
}

// Declare creates a channel accepting deliveries and returns the
// reader the owning Eject uses to consume it.  writers is the number
// of End marks that complete the stream (the fan-in degree; minimum
// 1).  capacity <= -1 selects single-item handoff; 0 selects
// DefaultCapacity.
func (p *WOInPort) Declare(name string, num core.ChannelNum, capacity, writers int) *ChannelReader {
	return &ChannelReader{p.chanRegistry.Declare(name, num, core.InputCapacity(capacity), writers)}
}

// Retire tears down a channel: parked Deliver workers are released
// with StatusAborted, stale handles fail cleanly, the
// backlog is dropped with slab views released, and the record returns
// to the pool.  It reports whether this call performed the teardown.
func (p *WOInPort) Retire(r *ChannelReader) bool { return p.chanRegistry.Retire(r.ch) }

// ServeDeliver handles one Deliver invocation, withholding the reply
// until every item fits in the channel's buffer (see ChanRef.Absorb).
func (p *WOInPort) ServeDeliver(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*core.DeliverRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	p.chanRegistry.Met.DeliverInvocations.Inc()
	ch, st := p.chanRegistry.Lookup(req.Channel)
	var rep *core.DeliverReply
	if st == core.StatusOK {
		if rep = ch.Absorb(req); rep == nil {
			st = p.chanRegistry.MissStatus() // a retire won the race between lookup and lock
		}
	}
	if rep == nil {
		wire.ReleaseAll(req.Items) // never absorbed
		rep = &core.DeliverReply{Status: st}
	}
	core.DeliverRequests.Put(req)
	inv.Reply(rep)
}

// Serve dispatches the transput operations a WOInPort understands,
// returning false for non-transput ops.
func (p *WOInPort) Serve(inv *kernel.Invocation) bool {
	if inv.Op == core.OpDeliver {
		p.ServeDeliver(inv)
		return true
	}
	return p.chanRegistry.ServeControl(inv)
}

// Adverts lists the port's channels for OpChannels.
func (p *WOInPort) Adverts() []core.ChannelAdvert { return p.chanRegistry.Adverts() }

// ServeAbort handles OpAbort: it aborts the named channel (or all).
func (p *WOInPort) ServeAbort(inv *kernel.Invocation) { p.chanRegistry.ServeAbort(inv) }

// ChannelReader is the owning Eject's local consumer for one
// passive-input channel: §5's "conventional Read routine ...
// extracting data from an internal buffer".  It implements ItemReader.
// The reader is bound to one incarnation of the channel record; after
// Retire, Next reports io.EOF, Cancel is a no-op and ID is zero.
type ChannelReader struct {
	ch core.ChanRef
}

// ID returns the channel's identifier.
func (r *ChannelReader) ID() core.ChannelID { id, _ := r.ch.Ident(); return id }

// Next returns the next delivered item, or io.EOF once every expected
// writer has sent End and the buffer has drained.
func (r *ChannelReader) Next() ([]byte, error) { return r.ch.Next() }

// Cancel aborts the channel locally (consumer going away), releasing
// parked Deliver workers with StatusAborted.  The undrained backlog is
// dropped — nothing will ever read it — releasing any slab views.
func (r *ChannelReader) Cancel(msg string) {
	r.ch.Abort(&itemio.AbortedError{Msg: msg}, true)
}

var _ itemio.ItemReader = (*ChannelReader)(nil)

// Pusher is the active-output client: it issues Deliver invocations
// against a target Eject's input channel.  It implements ItemWriter.
// One Eject may hold many Pushers — that is the write-only
// discipline's arbitrary fan-out (Figure 3).  It is the face of the
// active engine (link.go) whose data rides the *request*, and adds only
// what that needs: the next batch's item offset and the batch freelist.
//
// At Window 1 (the default) the producer's own goroutine runs every
// Deliver inline and blocks on the reply — that is its back pressure —
// so Put, Flush and Close report the delivery's own error.  Deliveries
// carry no Writer and the sink orders nothing.
//
// At Window K>1 each batch is handed straight to a free helper, so up to
// K Deliver invocations are in flight at once, overlapping round trips as
// the InPort's window does, and Put blocks once K batches are out: the
// sink's channel is the window's only buffer.  Order is kept by the one
// rule, at both ends: every delivery carries the port's Writer UID and
// its first item's offset in this writer's stream (Base); a helper takes
// its slot at the link's gate only in its batch's turn, and the passive
// side (WOInPort or PassiveBuffer) holds a delivery until its Base is
// the writer's turn there.  Concurrency therefore cannot reorder the
// stream, and the End mark — the last batch — is applied after every
// data delivery.  A delivery failure anywhere in the window is reported
// on the next Put, and by Close, which drains the window.
//
// Flow control in the window is the link's gate, granted in credits: each
// DeliverReply reports how many more items the sink could buffer
// (Credits).  The window shrinks when credits run low, so it does not
// park sink workers on a full buffer; at least one delivery is always
// allowed, which is how the window re-learns the credit level.  So the
// window stays open only if the sink's channel holds Window × batch, as
// a pipeline's walk declares a windowed write-only input
// (Options.Anticipation).
type Pusher struct {
	link core.Link
	k    *kernel.Kernel // mints Writer UIDs

	// Producer state.  Producers (Put/Flush/Close/Redirect) hold mu across
	// an inline delivery or a hand-off on sendq — blocking there is exactly
	// the back pressure the protocol intends; helpers never take mu, so a
	// blocked hand-off waits on the sink alone.
	mu      sync.Mutex
	pending [][]byte
	owned   bool // pending holds an item Put did not copy (PutOwned)
	closed  bool
	arena   *wire.Arena // Put's copies; set by the first, dropped by Close

	// req is the producer's own Deliver request record, reused by every
	// exchange it runs inline.  Only one is outstanding (flushLocked runs
	// under mu) and the server copies the item references into its buffer
	// before replying, so the record and the pending backing array are
	// both safe to reuse once the exchange returns.  Its Writer is nil.
	// rep is its reply record (req.Reply), read before the next exchange.
	req core.DeliverRequest
	rep core.DeliverReply

	// Send window (window > 1).  sendq, unbuffered, is nil while no helpers
	// are attached: they start with the first delivery and leave at a
	// drain.  base is the item offset of the next batch handed to them.
	writer uid.UID
	base   int64
	sendq  chan deliverJob
	free   chan [][]byte // recycled batch backing arrays
}

// deliverJob is one batch on its way to the sink.
type deliverJob struct {
	items  [][]byte
	copies *wire.Arena // the Pusher's arena when every item is its copy
	base   int64       // item offset of items[0] in this writer's stream
	end    bool
	asked  int // batch size the producer was aiming for (adaptive feedback)
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
func NewPusher(k *kernel.Kernel, self, target uid.UID, channel core.ChannelID, cfg PusherConfig) *Pusher {
	w := &Pusher{k: k}
	w.req = core.DeliverRequest{Channel: channel, Reply: &w.rep}
	w.link.Init(k, self, target, channel, core.OpDeliver, cfg.Batch, cfg.BatchMin, cfg.BatchMax, cfg.Window)
	if w.link.Window > 1 {
		w.writer = k.NewUID()
		w.free = make(chan [][]byte, w.link.Window+1) // every helper's array, and the producer's
	}
	return w
}

// Target returns the UID this pusher delivers to.
func (w *Pusher) Target() uid.UID { return w.link.Peer }

// Channel returns the channel identifier this pusher delivers on.
func (w *Pusher) Channel() core.ChannelID { return w.link.Channel }

// deliver runs one Deliver exchange carrying job, using the given
// request record, and returns the sink's credit grant (-1 with an
// error, which is also recorded as the stream's).
func (w *Pusher) deliver(req *core.DeliverRequest, job deliverJob) (int, error) {
	req.Items, req.Copies, req.Base, req.End = job.items, job.copies, job.base, job.end
	raw, rtt, err := w.link.Exchange(req)
	req.Items, req.Copies = nil, nil
	rep, ok := raw.(*core.DeliverReply)
	switch {
	case err != nil:
		// The invocation never reached the sink; the batch dies here.
		// (On a non-OK reply the sink owns the cleanup of whatever it did
		// not absorb; on success it has absorbed the item references — or,
		// across an encoded node hop, the decoded copies superseded them
		// and the link released any views and handed a batch of copies
		// back to the arena.)
		wire.ReleaseAll(job.items)
	case !ok:
		err = fmt.Errorf("transput: bad Deliver reply type %T", raw)
	case rep.Status != core.StatusOK:
		err = core.StatusErr(rep.Status, rep.AbortMsg) // copies the message
	default:
		credits := rep.Credits
		core.DeliverReplies.Put(rep)
		w.link.Settle(rtt, job.asked, len(job.items))
		return credits, nil
	}
	w.link.Fail(err)
	return -1, err
}

// send is one of the window's helpers: it takes batches off q and keeps
// one synchronous Deliver on the wire, its slot taken at the link's gate
// in its batch's turn.  Taking slots in stream order means the lowest
// delivery in flight is never the one the sink holds back (its
// predecessors have all been taken): without that, a shrunken window
// could give its only slot to a delivery whose reply the sink withholds,
// deadlocking the port.
func (w *Pusher) send(q <-chan deliverJob) {
	var rep core.DeliverReply // deliver reads it before the next exchange
	req := core.DeliverRequest{Channel: w.link.Channel, Writer: w.writer, Reply: &rep}
	for job := range q {
		if !w.link.AwaitTurn(job.base) {
			// Once the stream has failed, later batches (and the End mark)
			// are dropped — the sink's abort released any it held back.
			wire.ReleaseAll(job.items)
			w.recycle(job.items)
			continue
		}
		w.link.Enter() // never refused: a Pusher's helpers leave when their queue closes
		w.link.Pass(len(job.items))
		credits, _ := w.deliver(&req, job)
		w.recycle(job.items)
		w.link.Leave(credits)
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
// is returned; with a window the batch is handed straight to a free
// helper — the hand-off blocks while all Window helpers hold one, which
// is the port's back pressure — and the error returned is whatever the
// stream has already suffered.
func (w *Pusher) flushLocked(end bool, asked int) error {
	if len(w.pending) == 0 && !end {
		return nil
	}
	job := deliverJob{items: w.pending, end: end, asked: asked}
	if !w.owned {
		job.copies = w.arena
	}
	w.owned = false
	if w.link.Window == 1 {
		_, err := w.deliver(&w.req, job)
		// Drop our pointers but keep the backing array for the next batch.
		clear(w.pending)
		w.pending = w.pending[:0]
		return err
	}
	job.base = w.base
	w.base += int64(len(job.items))
	if w.sendq == nil {
		q := make(chan deliverJob)
		w.sendq = q
		w.link.OpenGate(job.base)
		w.link.Start(w.link.Window, func() { w.send(q) }, nil)
	}
	w.sendq <- job // the helper that takes it has recycled its previous array
	select {
	case w.pending = <-w.free:
	default:
		w.pending = nil
	}
	return w.link.Failed()
}

// drainLocked waits until every delivery handed to the window has been
// made (or dropped, on a failed stream) and reports the stream's first
// failure.  The helpers leave; the next delivery starts new ones.
// Caller holds w.mu.
func (w *Pusher) drainLocked() error {
	if w.sendq != nil {
		close(w.sendq)
		w.sendq = nil
		w.link.Helpers.Wait()
	}
	return w.link.Failed()
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
	err := w.link.Failed()
	if w.closed {
		err = itemio.ErrClosed
	}
	if err != nil {
		if owned {
			wire.Release(item)
		}
		return err
	}
	if owned {
		w.link.Met.WireBytesSaved.Add(int64(len(item)))
		w.owned = true
	} else {
		item = itemio.CopyItem(&w.arena, item)
	}
	w.pending = append(w.pending, item)
	if t := w.link.Size(); len(w.pending) >= t {
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
		return itemio.ErrClosed
	}
	return w.flushLocked(false, w.link.Size())
}

// Redirect retargets a Pusher at a new sink/channel.  Everything written
// so far goes to the OLD target first (those items were written before
// the redirection): the partial batch is flushed and, on a windowed
// pusher, the send window drained.  The old channel is left open — in
// the write-only discipline a sink must expect its writers to come and
// go; End is only sent by Close.  The new stream numbers its items from
// offset 0 under a fresh Writer UID.  A closed pusher cannot be
// redirected, nor one whose stream has failed.
func (w *Pusher) Redirect(target uid.UID, channel core.ChannelID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return itemio.ErrClosed
	}
	_ = w.flushLocked(false, w.link.Size()) // a failure here is the stream's: the drain reports it
	if err := w.drainLocked(); err != nil {
		return err
	}
	w.link.Retarget(target, channel)
	w.req.Channel = channel // the reused request must follow the retarget
	if w.link.Window > 1 {
		w.writer, w.base = w.k.NewUID(), 0
	}
	return nil
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
	_ = w.flushLocked(true, w.link.Size()) // a failure here is the stream's: the drain reports it
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
	aerr := w.link.Abort(err.Error())
	_ = w.drainLocked()
	return aerr
}

// DeliversIssued reports how many Deliver invocations this pusher has
// sent.
func (w *Pusher) DeliversIssued() int64 { return w.link.Issued.Load() }

var _ itemio.ItemWriter = (*Pusher)(nil)

// Registry is the port's channel registry, for code that inspects the
// records under the face.
func (p *WOInPort) Registry() *core.ChanRegistry { return &p.chanRegistry }

// Ref is the record reference the reader holds.
func (r *ChannelReader) Ref() core.ChanRef { return r.ch }

// Link is the exchange engine under the pusher, for code that inspects it.
func (w *Pusher) Link() *core.Link { return &w.link }
