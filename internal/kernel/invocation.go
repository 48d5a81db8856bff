package kernel

import (
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// Invocation is one request delivered to an Eject.  Per §1 an
// invocation "is a request to perform some named operation, and may be
// thought of as a kind of remote procedure call".
//
// The Eject's Serve method receives the Invocation while holding one
// of the Eject's worker slots — on a pool worker's goroutine, or on the
// goroutine of a synchronous same-node invoker — and must complete it
// exactly once, with Reply or Fail, before Serve returns.  Serve is free
// to block first — that is how "passive output" parks an incoming Read
// until data is available (§4) — because each Eject has a pool of
// worker slots, mirroring Eden's multi-process Ejects.
//
// Invocations are pooled — the kernel recycles them once Serve has
// returned and the reply has been handed off — or, on the caller-runs
// path, the invoking Caller's own, so a warm hop performs no Invocation
// allocation.  Ejects must not retain the *Invocation
// beyond Serve: the kernel fails unreplied invocations when Serve
// returns, and a late Reply panics as a double reply — or, once the
// record is recycled, finds neither of its reply destinations (both are
// nil) and hangs; that is no guard, on either dispatch path.
type Invocation struct {
	// MsgID is unique per kernel and never 0, for tracing.  It is not a
	// sequence: ids are drawn per stripe of the metrics ledger, a
	// Caller's in blocks (metrics.Set.NextID, DrawID), so of two
	// invocations the later may carry the smaller id.
	MsgID uint64
	// From is the invoking Eject (uid.Nil for external drivers such as
	// test harnesses).  The paper (§5) is emphatic that user code must
	// NOT use this for authorisation — "the effect of a particular
	// invocation ought to depend only on its parameters" — and the
	// transput package honours that; it is exposed only because the
	// kernel needs it to return the reply, exactly as in the paper.
	From uid.UID
	// Target is the Eject being invoked.
	Target uid.UID
	// Op names the operation, e.g. "Transput.Transfer".
	Op string
	// Payload is the operation's argument record (already transported
	// across the simulated network, i.e. gob round-tripped when the
	// network is configured to encode).
	Payload any

	fromNode netsim.NodeID
	toNode   netsim.NodeID
	replied  atomic.Bool
	// The reply goes to exactly one of two places.  slot is set when the
	// invoker itself holds the worker slot (send claimed it): it points
	// into the invoker's Call, which reads it once Serve has returned on
	// its own goroutine.  Otherwise the reply is sent on replyc, the
	// Call's channel, and whoever collects the Call receives it.
	slot   *reply
	replyc chan reply
	pooled bool
}

type reply struct {
	payload any
	err     error
}

// invocations recycles Invocations: send takes one, and whoever sends
// its reply puts it back (serveInvocation, the quit drain), or send
// itself if nothing took it.  Put passes over a Caller's own.
var invocations = wire.NewPool(func(inv *Invocation) *bool { return &inv.pooled }, nil)

// Reply completes the invocation successfully with the given result
// payload.  Calling Reply or Fail more than once panics: a double
// reply is always a programming error in the Eject.
func (inv *Invocation) Reply(payload any) { inv.complete(reply{payload: payload}) }

// Fail completes the invocation with an error.
func (inv *Invocation) Fail(err error) {
	if err == nil {
		panic("kernel: Fail(nil)")
	}
	inv.complete(reply{err: ToWire(err)})
}

// complete delivers the reply, once.  It may run on any goroutine Serve
// joins before it returns: the inline invoker reads the slot only after
// Serve has.
func (inv *Invocation) complete(r reply) {
	if !inv.replied.CompareAndSwap(false, true) {
		panic("kernel: double reply to invocation " + inv.Op)
	}
	if inv.slot != nil {
		*inv.slot = r
		return
	}
	inv.replyc <- r
}

// Replied reports whether the invocation has been completed.
func (inv *Invocation) Replied() bool { return inv.replied.Load() }

// Call is the invoker's handle on an outstanding invocation.  §1: "The
// sending of an invocation does not suspend the execution of the
// sending Eject: the sender is free to perform other tasks."  Call is
// that freedom: the invoker may Wait immediately (synchronous style)
// or keep the Call and collect the reply later, possibly selecting on
// Done.
//
// Calls are pooled on the synchronous Invoke path (where the caller
// provably drops the handle before it is recycled), or a Caller's own
// there; AsyncInvoke returns an unpooled view of the same machinery.
// The done channel is allocated lazily — only when Done is used or a
// second goroutine Waits concurrently — so a plain Invoke round trip
// allocates nothing for its Call.
type Call struct {
	k        *Kernel
	op       string
	target   uid.UID
	fromNode netsim.NodeID
	toNode   netsim.NodeID

	replyc chan reply // capacity 1, reused across pooled lives

	// msgID is the invocation's message id, set by send once it is on its
	// way to a slot or a mailbox.  A Call left at 0 (refuse) answers an
	// invocation no Eject received, and ticks no reply meter.  stripe is
	// the ledger stripe send metered the invocation on; the reply is
	// metered there too — one line an invocation, whoever collects it.
	msgID  uint64
	stripe metrics.Stripe

	mu    sync.Mutex
	state callState
	done  chan struct{} // lazily allocated
	// res is the settled reply Wait and Done publish (state == callDone).
	// On the synchronous path, whose Call nothing else can see, it is
	// instead the slot an inline-served Invocation's reply is written to.
	res reply

	// tracing (set only when the kernel's Trace hook is installed)
	traced     bool
	traceFrom  uid.UID
	traceStart time.Time

	pooled bool
}

type callState uint8

const (
	callPending    callState = iota // reply not yet collected
	callCollecting                  // one goroutine is in finish
	callDone                        // res is valid
)

// calls recycles the Calls of the synchronous Invoke path.  A Call keeps
// its reply channel across lives.
var calls = wire.NewPool(func(c *Call) *bool { return &c.pooled },
	func(c *Call) { *c = Call{replyc: c.replyc} })

// arm readies a fresh Call — a recycled one, or a Caller's own, reset.
func (c *Call) arm(k *Kernel, op string, target uid.UID, from netsim.NodeID) {
	if c.replyc == nil {
		c.replyc = make(chan reply, 1)
	}
	c.k = k
	c.op = op
	c.target = target
	c.fromNode = from
}

// release recycles a Call.  Only the synchronous Invoke path calls it,
// once the reply is collected and before the Call could escape; the
// reply channel is empty at that point (its single send, if the mailbox
// path made one, has been received), so the channel itself is reused.
func (c *Call) release() { calls.Put(c) }

// settle runs the reply path: the reply payload crosses the network
// from the target's node back to the invoker's node, and the reply
// meters tick — unless the invocation was refused, which no Eject
// answered.  It returns the settled reply.
func (c *Call) settle(r reply) reply {
	if c.msgID != 0 {
		k := c.k
		if r.err == nil {
			payload, _, terr := k.link.Transmit(c.toNode, c.fromNode, r.payload)
			if terr != nil {
				r = reply{err: ToWire(terr)}
			} else {
				r.payload = payload
			}
		}
		st := c.stripe
		k.met.Replies.AddAt(st, 1)
		if r.err == nil {
			if sz, ok := r.payload.(Sizer); ok {
				k.met.BytesMoved.AddAt(st, int64(sz.PayloadSize()))
			}
		}
	}
	c.traceFinish(r)
	return r
}

// finish settles the reply and publishes it to Wait/Done observers.
func (c *Call) finish(r reply) {
	r = c.settle(r)
	c.mu.Lock()
	c.res = r
	c.state = callDone
	if c.done != nil {
		close(c.done)
	}
	c.mu.Unlock()
}

// result is a settled reply as Invoke and Wait return it.
func (c *Call) result(r reply) (any, error) {
	if r.err != nil {
		return nil, &OpError{Op: c.op, Target: c.target.String(), Err: r.err}
	}
	return r.payload, nil
}

// doneChanLocked returns the done channel, allocating it on first use.
// Caller holds c.mu.
func (c *Call) doneChanLocked() chan struct{} {
	if c.done == nil {
		c.done = make(chan struct{})
		if c.state == callDone {
			close(c.done)
		}
	}
	return c.done
}

// Done returns a channel that is closed when the reply is available.
// The first call arms a background collector.
func (c *Call) Done() <-chan struct{} {
	c.mu.Lock()
	d := c.doneChanLocked()
	if c.state == callPending {
		c.state = callCollecting
		go func() { c.finish(<-c.replyc) }()
	}
	c.mu.Unlock()
	return d
}

// Wait blocks until the reply arrives and returns it.  Safe to call
// from multiple goroutines; all observe the same result.
func (c *Call) Wait() (any, error) {
	c.mu.Lock()
	switch c.state {
	case callPending:
		// Collect inline: no collector goroutine, no done channel.
		c.state = callCollecting
		c.mu.Unlock()
		c.finish(<-c.replyc)
	case callCollecting:
		d := c.doneChanLocked()
		c.mu.Unlock()
		<-d
	case callDone:
		c.mu.Unlock()
	}
	return c.result(c.res)
}

// Sizer lets a payload report its size in bytes so the kernel can
// meter BytesMoved without reflection on the hot path.
type Sizer interface {
	PayloadSize() int
}
