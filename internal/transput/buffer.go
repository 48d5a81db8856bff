package transput

import (
	"fmt"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/core"
)

// PassiveBuffer is a Unix-pipe-like Eject: it performs passive input
// in response to Deliver and passive output in response to Transfer,
// buffering in between.  §3: "Because entities like Unix pipes perform
// both buffering and passive transput, I will refer to them as passive
// buffers. ... The passive buffer provides the active transput
// operations with the necessary correspondents."
//
// It exists for the conventional-discipline baseline (Figure 1
// transliterated into Eden): connecting two active filters requires
// one of these between them, which is precisely the Eject and
// invocation overhead the read-only discipline eliminates.  It also
// reappears in the paper's §5 as the pragmatic fix for secondary
// streams under a single-pair discipline.
//
// It is one channel record (channel.go) with both served faces: Deliver
// fills it as on a WOInPort, Transfer drains it as on an OutPort, and
// abort follows the passive-input rule.
type PassiveBuffer struct {
	name string
	port core.ChanPort // the record's spares are its own
	ch   core.ChanRef
}

// PassiveBufferConfig parameterises a PassiveBuffer.
type PassiveBufferConfig struct {
	Name string
	// Capacity bounds the buffer in items; 0 means DefaultCapacity,
	// negative means 1.
	Capacity int
	// Writers is the number of End marks that complete the stream
	// (fan-in degree); minimum 1.
	Writers int
}

// NewPassiveBuffer creates a passive buffer Eject.  k may be nil in
// unit tests (metering is then dropped).
func NewPassiveBuffer(k *kernel.Kernel, cfg PassiveBufferConfig) *PassiveBuffer {
	b := &PassiveBuffer{name: cfg.Name, port: core.ChanPort{Met: &metrics.Set{}}}
	if k != nil {
		b.port.Met = k.Metrics()
	}
	b.ch = core.AcquireChannel(&b.port, cfg.Name, Chan(0), core.InputCapacity(cfg.Capacity), cfg.Writers)
	return b
}

// EdenType implements kernel.Eject.
func (b *PassiveBuffer) EdenType() string { return "transput.PassiveBuffer" }

// errDeactivated is what a deactivated buffer answers.  Shared:
// AbortedError is immutable once published.
var errDeactivated = &AbortedError{Msg: "buffer deactivated"}

// Serve implements kernel.Eject, answering both stream directions on
// channel 0 (a pipe has exactly one stream).  A nil reply from the
// record means OnDeactivate already retired it.
func (b *PassiveBuffer) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case OpDeliver:
		req, ok := inv.Payload.(*DeliverRequest)
		if !ok {
			break
		}
		b.port.Met.DeliverInvocations.Inc()
		rep := b.ch.Absorb(req)
		if rep == nil {
			wire.ReleaseAll(req.Items) // never absorbed
			rep = &DeliverReply{Status: StatusAborted, AbortMsg: errDeactivated.Msg}
		}
		core.DeliverRequests.Put(req)
		inv.Reply(rep)
		return
	case OpTransfer:
		req, ok := inv.Payload.(*TransferRequest)
		if !ok {
			break
		}
		b.port.Met.TransferInvocations.Inc()
		rep := b.ch.Take(req.Max, req.Reply)
		core.TransferRequests.Put(req)
		if rep == nil {
			rep = &TransferReply{Status: StatusAborted, AbortMsg: errDeactivated.Msg}
		}
		inv.Reply(rep)
		return
	case OpAbort:
		req, ok := inv.Payload.(*AbortRequest)
		if !ok {
			break
		}
		b.ch.Abort(&AbortedError{Msg: req.Msg}, true)
		inv.Reply(&AbortReply{})
		return
	case OpChannels:
		inv.Reply(&ChannelsReply{Channels: []ChannelAdvert{
			{Name: "Input", ID: Chan(0), Dir: "in"},
			{Name: "Output", ID: Chan(0), Dir: "out"},
		}})
		return
	}
	inv.Fail(fmt.Errorf("%w: %q on passive buffer %q", kernel.ErrNoSuchOperation, inv.Op, b.name))
}

// OnDeactivate retires the buffer's record, releasing parked workers.
// The Eject is going away, so the backlog is unreachable: it is
// dropped, releasing any slab views among the items.
func (b *PassiveBuffer) OnDeactivate() {
	if _, ok := b.ch.Retire(errDeactivated); ok {
		b.ch.Release()
	}
}

// Buffered reports the items currently queued.
func (b *PassiveBuffer) Buffered() (n int) {
	if c, ok := b.ch.Lock(); ok {
		n = c.Buffered()
		c.Mu.Unlock()
	}
	return n
}

// Ref is the buffer's record reference, for code that inspects it.
func (b *PassiveBuffer) Ref() core.ChanRef { return b.ch }
