package pull

import (
	"asymstream/internal/kernel"

	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
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
	chanRegistry core.ChanRegistry
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

// NewOutPort creates an OutPort.  k supplies UID minting (capability
// mode) and the metric set; it may be nil in unit tests, in which case
// capability mode mints from the global generator and metering is
// dropped on a private set.
func NewOutPort(k *kernel.Kernel, cfg OutPortConfig) *OutPort {
	p := new(OutPort)
	p.chanRegistry.Init(k, cfg.CapabilityMode, false)
	return p
}

// Declare creates a channel and returns the writer the Eject's
// application code uses to fill it.  In capability mode the channel's
// unforgeable identifier is minted here; callers obtain it from the
// writer's ID (or via OpChannels) to hand to authorised readers.
// capacity < 0 selects a synchronous (capacity 0) channel, capacity
// == 0 selects DefaultCapacity.
func (p *OutPort) Declare(name string, num core.ChannelNum, capacity int) *ChannelWriter {
	switch {
	case capacity < 0:
		capacity = 0
	case capacity == 0:
		capacity = core.DefaultCapacity
	}
	return &ChannelWriter{p.chanRegistry.Declare(name, num, capacity, 1)}
}

// Retire tears down a channel: stale handles and in-flight Transfers
// fail cleanly (ErrClosed / StatusAborted), the backlog is
// dropped with its slab views released, and the record returns to the
// pool for the next Declare.  It reports whether this call performed
// the teardown (false if the writer's channel was already retired).
func (p *OutPort) Retire(w *ChannelWriter) bool { return p.chanRegistry.Retire(w.ch) }

// ServeTransfer handles one Transfer invocation, parking the kernel
// worker until the channel has something to answer with (see
// ChanRef.Take).
func (p *OutPort) ServeTransfer(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*core.TransferRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	p.chanRegistry.Met.TransferInvocations.Inc()
	ch, st := p.chanRegistry.Lookup(req.Channel)
	var rep *core.TransferReply
	if st == core.StatusOK {
		if rep = ch.Take(req.Max); rep == nil {
			st = p.chanRegistry.MissStatus() // a retire won the race between lookup and lock
		}
	}
	core.TransferRequests.Put(req)
	if rep == nil {
		rep = &core.TransferReply{Status: st}
	}
	inv.Reply(rep)
}

// Serve dispatches the transput operations an OutPort understands.
// Eject types embed an OutPort and call this from their Serve for the
// transput op names, handling their own ops otherwise.  It returns
// false if the op is not a transput operation this port handles.
func (p *OutPort) Serve(inv *kernel.Invocation) bool {
	if inv.Op == core.OpTransfer {
		p.ServeTransfer(inv)
		return true
	}
	return p.chanRegistry.ServeControl(inv)
}

// TransfersServed reports the total Transfer invocations served across
// all live (undeclared-to-retired) channels.  The laziness experiment
// (E5) asserts this is zero before any sink is connected.
func (p *OutPort) TransfersServed() int64 {
	return p.chanRegistry.Sum(func(c *core.Channel) int64 { return c.TransfersServed })
}

// Buffered reports the total items currently buffered (anticipated but
// not yet pulled) across all channels.
func (p *OutPort) Buffered() int {
	return int(p.chanRegistry.Sum(func(c *core.Channel) int64 { return int64(c.Buffered()) }))
}

// Adverts lists the port's channels for OpChannels.
func (p *OutPort) Adverts() []core.ChannelAdvert { return p.chanRegistry.Adverts() }

// ChannelWriter is the application-side writer for one OutPort
// channel: the conventional Write interface of §4's standard IO
// module.  It implements ItemWriter.  The writer is bound to one
// incarnation of the channel record; after Retire every method fails
// with ErrClosed, and ID and Name report the zero identifier and "".
type ChannelWriter struct {
	ch core.ChanRef
}

// ID returns the channel's identifier (including its capability, when
// in capability mode).
func (w *ChannelWriter) ID() core.ChannelID { id, _ := w.ch.Ident(); return id }

// Name returns the channel's advertised name.
func (w *ChannelWriter) Name() string { _, name := w.ch.Ident(); return name }

// Put appends one item, blocking while the anticipatory buffer is at
// capacity.  The item is copied.
func (w *ChannelWriter) Put(item []byte) error { return w.ch.Put(item, false) }

// PutOwned appends the item slice itself, taking ownership (see
// OwnedItemWriter).  The zero-copy handoff on every intra-node link.
func (w *ChannelWriter) PutOwned(item []byte) error { return w.ch.Put(item, true) }

// Close marks normal end of stream.  Buffered items drain first;
// readers then see StatusEnd.
func (w *ChannelWriter) Close() error { return w.ch.End() }

// CloseWithError aborts the channel: readers see StatusAborted with
// the error's message, and further Puts fail.
func (w *ChannelWriter) CloseWithError(err error) error {
	if err == nil {
		return w.Close()
	}
	w.ch.Abort(&itemio.AbortedError{Msg: err.Error()}, false)
	return nil
}

// Discard aborts the channel with err even after its normal end, so a
// backlog no reader will drain is dropped with its slab views: the
// stage harness's rule for an Eject that is going away.
func (w *ChannelWriter) Discard(err *itemio.AbortedError) { w.ch.Abort(err, true) }

// Registry is the port's channel registry, for code that inspects the
// records under the face.
func (p *OutPort) Registry() *core.ChanRegistry { return &p.chanRegistry }

// Ref is the record reference the writer holds.
func (w *ChannelWriter) Ref() core.ChanRef { return w.ch }
