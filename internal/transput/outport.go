//transput:discipline readonly

package transput

import (
	"sync"

	"asymstream/internal/kernel"
)

// OutPort is the passive-output half of the read-only discipline: the
// machinery an Eject embeds so that it can *respond to* Transfer
// invocations.
//
// It realises §4's "standard IO module": "The standard IO module
// obtained from a library would implement the usual Write operations
// that put characters into a buffer.  However, that buffer would be
// shared with a process that receives invocations which request data
// and services them."  Here the application side writes through
// ChannelWriter (a conventional-looking Put/Close API) into a bounded
// per-channel buffer, and the Eject's Serve method hands Transfer
// invocations to ServeTransfer, which blocks until data is available —
// the kernel's worker pool provides "the process that services
// requests".
//
// The buffer bound is the anticipatory-computation limit: a filter
// runs ahead of its consumer until the buffer fills, then suspends —
// "each Eject in a pipeline should read some input and buffer-up some
// output, and then suspend processing pending a request for output"
// (§4).  Capacity 0 is legal and gives fully synchronous handoff
// (pure laziness: the producer cannot even compute one item ahead).
type OutPort struct {
	chanRegistry
}

// OutPortConfig parameterises an OutPort.
type OutPortConfig struct {
	// Capacity bounds each channel's anticipatory buffer in items.
	// Negative means 0 (synchronous); zero means DefaultCapacity.
	Capacity int
	// CapabilityMode mints a UID per channel and requires Transfer
	// requests to quote it (§5's unforgeable channel identifiers).
	CapabilityMode bool
}

// DefaultCapacity is the per-channel anticipatory buffer bound used
// when the config does not specify one.
const DefaultCapacity = 64

// NewOutPort creates an OutPort.  k supplies UID minting (capability
// mode) and the metric set; it may be nil in unit tests, in which case
// capability mode mints from the global generator and metering is
// dropped on a private set.
func NewOutPort(k *kernel.Kernel, cfg OutPortConfig) *OutPort {
	p := new(OutPort)
	p.init(k, cfg.CapabilityMode, false)
	return p
}

// Declare creates a channel and returns the writer the Eject's
// application code uses to fill it.  In capability mode the channel's
// unforgeable identifier is minted here; callers obtain it from the
// writer's ID (or via OpChannels) to hand to authorised readers.
// capacity < 0 selects a synchronous (capacity 0) channel, capacity
// == 0 selects DefaultCapacity.
func (p *OutPort) Declare(name string, num ChannelNum, capacity int) *ChannelWriter {
	switch {
	case capacity < 0:
		capacity = 0
	case capacity == 0:
		capacity = DefaultCapacity
	}
	ch, gen := p.declare(name, num, capacity, 1)
	return &ChannelWriter{ch: ch, gen: gen}
}

// Retire tears down a channel: stale handles and in-flight Transfers
// fail cleanly (generation check / StatusAborted), the backlog is
// dropped with its slab views released, and the record returns to the
// pool for the next Declare.  It reports whether this call performed
// the teardown (false if the writer's channel was already retired).
func (p *OutPort) Retire(w *ChannelWriter) bool { return p.retire(w.ch, w.gen) }

// ServeTransfer handles one Transfer invocation, parking the kernel
// worker until the channel has something to answer with (see
// channel.take).
func (p *OutPort) ServeTransfer(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*TransferRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	p.met.TransferInvocations.Inc()
	ch, gen, st := p.lookup(req.Channel)
	var rep *TransferReply
	if st == StatusOK {
		if rep = ch.take(gen, req.Max); rep == nil {
			st = p.missStatus() // a retire won the race between lookup and lock
		}
	}
	releaseTransferRequest(req)
	if rep == nil {
		rep = &TransferReply{Status: st}
	}
	inv.Reply(rep)
}

// transferReplyPool recycles TransferReply records and their Items
// slices across warm hops.  Servers acquire and hand ownership to the
// invoker with the reply; the read-only client (InPort) releases once
// the item pointers are absorbed.  Across an encoded hop the decoder
// acquires the client's copy and the link returns the server's original
// it supersedes (ReleaseWirePayload).  Replies that never reach a
// releasing client — abandoned pulls — simply fall to the GC; the pool
// is best-effort.
var transferReplyPool = sync.Pool{New: func() any { return new(TransferReply) }}

// acquireTransferReply takes a recycled (or fresh) OK reply with Items
// sized to n.
func acquireTransferReply(n int) *TransferReply {
	rep := transferReplyPool.Get().(*TransferReply)
	if cap(rep.Items) >= n {
		rep.Items = rep.Items[:n]
	} else {
		rep.Items = make([][]byte, n)
	}
	rep.Status = StatusOK
	rep.AbortMsg = ""
	rep.Base = 0
	rep.Backlog = 0
	rep.pooled = true
	return rep
}

// releaseTransferReply recycles a reply whose items have been absorbed
// by the consumer.
func releaseTransferReply(rep *TransferReply) {
	for i := range rep.Items {
		rep.Items[i] = nil
	}
	rep.Items = rep.Items[:0]
	rep.AbortMsg = ""
	rep.pooled = false
	transferReplyPool.Put(rep)
}

// transferRequestPool recycles the TransferRequest records decoded off an
// encoded hop.  The serving face (OutPort, PassiveBuffer) releases one
// once take has read it; a server that does not (device.ClockSource)
// leaves it to the GC.
var transferRequestPool = sync.Pool{New: func() any { return new(TransferRequest) }}

// acquireTransferRequest takes a recycled (or fresh) request, marked as
// the pool's.
func acquireTransferRequest() *TransferRequest {
	req := transferRequestPool.Get().(*TransferRequest)
	req.pooled = true
	return req
}

// releaseTransferRequest recycles a request its server has read, if the
// pool issued it: a port's own request is left to the port.
func releaseTransferRequest(req *TransferRequest) {
	if !req.pooled {
		return
	}
	*req = TransferRequest{}
	transferRequestPool.Put(req)
}

// Serve dispatches the transput operations an OutPort understands.
// Eject types embed an OutPort and call this from their Serve for the
// transput op names, handling their own ops otherwise.  It returns
// false if the op is not a transput operation this port handles.
func (p *OutPort) Serve(inv *kernel.Invocation) bool {
	if inv.Op == OpTransfer {
		p.ServeTransfer(inv)
		return true
	}
	return p.serveControl(inv)
}

// TransfersServed reports the total Transfer invocations served across
// all live (undeclared-to-retired) channels.  The laziness experiment
// (E5) asserts this is zero before any sink is connected.
func (p *OutPort) TransfersServed() int64 {
	return p.sum(func(c *channel) int64 { return c.transfersServed })
}

// Buffered reports the total items currently buffered (anticipated but
// not yet pulled) across all channels.
func (p *OutPort) Buffered() int {
	return int(p.sum(func(c *channel) int64 { return int64(c.buffered()) }))
}

// ChannelWriter is the application-side writer for one OutPort
// channel: the conventional Write interface of §4's standard IO
// module.  It implements ItemWriter.  The writer is bound to one
// incarnation of the channel record; after Retire every method fails
// with ErrClosed (the generation check).
type ChannelWriter struct {
	ch  *channel
	gen uint64
}

// ID returns the channel's identifier (including its capability, when
// in capability mode).
func (w *ChannelWriter) ID() ChannelID { return w.ch.id }

// Name returns the channel's advertised name.
func (w *ChannelWriter) Name() string { return w.ch.name }

// Put appends one item, blocking while the anticipatory buffer is at
// capacity.  The item is copied.
func (w *ChannelWriter) Put(item []byte) error { return w.ch.put(item, false, w.gen) }

// PutOwned appends the item slice itself, taking ownership (see
// OwnedItemWriter).  The zero-copy handoff on every intra-node link.
func (w *ChannelWriter) PutOwned(item []byte) error { return w.ch.put(item, true, w.gen) }

// Close marks normal end of stream.  Buffered items drain first;
// readers then see StatusEnd.
func (w *ChannelWriter) Close() error { return w.ch.end(w.gen) }

// CloseWithError aborts the channel: readers see StatusAborted with
// the error's message, and further Puts fail.
func (w *ChannelWriter) CloseWithError(err error) error {
	if err == nil {
		return w.Close()
	}
	w.ch.abort(&AbortedError{Msg: err.Error()}, w.gen, false)
	return nil
}
