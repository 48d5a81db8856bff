// Package pull is the read-only discipline's pair of faces: InPort
// (active input) and OutPort with its ChannelWriter (passive output).
// It imports core and never push, and names none of core's Deliver-side
// names (transput's TestPackageLayout checks both).
package pull

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"asymstream/internal/kernel"
	"asymstream/internal/uid"
	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
)

// InPort is the active-input half of the read-only discipline: it
// issues Transfer invocations against a source Eject's channel and
// hands the resulting items to the application through the
// conventional-looking Next (Read) interface.  It is the face of the
// active engine (link.go) whose data rides the *reply*, and adds only
// what that needs: the pending items and the read-ahead queue.
//
// Three knobs correspond to the paper's ablations:
//
//   - Batch is the Max parameter on each Transfer (how many items one
//     invocation may return).  Batch 1 reproduces the paper's
//     one-datum-per-invocation accounting.
//
//   - Prefetch enables anticipatory pulling: a helper (a goroutine —
//     one of the Eject's "worker processes") pulls ahead of the
//     consumer into a local queue of the given number of batches.
//     Prefetch 0 at Window 1 is the demand-driven (lazy) limit: a
//     Transfer is issued only when the consumer actually needs data,
//     on the consumer's own goroutine.
//
//   - Window is how many Transfers are kept in flight, one per helper —
//     as many of them as the source's backlog could fill (the link's
//     gate, granted in TransferReply.Backlog), one at least.
//
// Stream order is preserved in both regimes, and the consumer only ever
// sees batches in arrival order.  At Window 1 at most one Transfer is
// outstanding per InPort at any instant, so arrival order is stream
// order and no offset is consulted; overlap comes from pulling *ahead*,
// never from pulling *concurrently*.  At Window K>1 the helper that
// fetched a reply waits at the port until its TransferReply.Base (the
// server-stamped stream offset) is the link's turn before it queues the
// reply, so the read-ahead queue is in stream order too.  A windowed
// port must be its channel's sole consumer — Base offsets are only dense
// in that case; a Window 1 port may share its channel with competing
// readers.
type InPort struct {
	link core.Link
	pref int

	// req is the consumer's own Transfer request record, reused by every
	// exchange it runs inline; helpers carry their own, because several
	// Transfers are on the wire at once.  rep is its reply record
	// (req.Reply), absorbed before the next inline exchange; a helper's
	// reply is queued and outlives its exchange, so it is the pool's.
	req core.TransferRequest
	rep core.TransferReply

	mu sync.Mutex
	// pending[head:] are the items absorbed and not yet handed out.
	// Next pops by advancing head and, once drained, rewinds both to the
	// start of the backing array, so the next batch is appended into the
	// capacity this one left: at batch 1 that is the difference between
	// no allocation per Transfer and one.  A port refilled before it
	// drains is compacted instead, once half the slice is dead.
	pending   [][]byte
	head      int
	done      bool // the stream is over: link.failed() says how
	cancelled bool

	// Read-ahead: helpers fill ahead until stop closes.  Both are nil
	// while no helpers are attached.
	ahead chan pulled
	stop  chan struct{}

	itemsIn atomic.Int64
}

// pulled is one Transfer's worth of results moving from a helper to the
// consumer.  rep, when set, is the reply record the items alias; it is
// recycled once the items have been absorbed.  With err set, status is
// the source's answer, or StatusOK when the exchange failed on the way.
type pulled struct {
	items  [][]byte
	status core.Status
	err    error
	rep    *core.TransferReply
	base   int64 // stream offset of items[0] (TransferReply.Base)
}

// releasePulled discards a pulled batch nobody will consume: any slab
// views among its items are released and the reply record recycled.
func releasePulled(res pulled) {
	wire.ReleaseAll(res.items)
	if res.rep != nil {
		core.TransferReplies.Put(res.rep)
	}
}

// pendingKeep is the largest pending array (in items; 1.5 KiB) a
// drained port keeps for its next batch.  A larger batch amortises the
// array's allocation over its own items, and keeping every port's
// high-water array would hold that memory for as long as the port lives.
const pendingKeep = 64

// InPortConfig parameterises an InPort.
type InPortConfig struct {
	// Batch is Max per Transfer; <=0 means 1.
	Batch int
	// Prefetch is the local read-ahead queue in batches; <=0 means none.
	Prefetch int
	// Window is the number of Transfer invocations kept in flight
	// concurrently.  <=1 preserves the classic one-outstanding
	// behaviour; larger values overlap round-trip latency and are
	// clamped to MaxWindow.  Window>1 implies anticipation: the port
	// pulls ahead of the consumer by up to Window batches.
	Window int
	// BatchMax > 0 makes the port's batch size adaptive: an AIMD
	// controller tunes Transfer Max within [max(1, BatchMin),
	// BatchMax], overriding Batch.  BatchMin == BatchMax pins the size
	// and reproduces the fixed-batch invocation counts exactly.
	BatchMin int
	BatchMax int
}

// NewInPort creates an active-input port.  self identifies the
// invoking Eject (uid.Nil for external drivers such as device pumps
// or tests); source and channel name the stream to pull from — exactly
// the two facts §4 says a filter must be initialised with ("one of
// them is the Unique Identifier of the Eject from which it is to
// obtain its input", plus the channel identifier of §5).
func NewInPort(k *kernel.Kernel, self, source uid.UID, channel core.ChannelID, cfg InPortConfig) *InPort {
	p := &InPort{pref: max(cfg.Prefetch, 0)}
	p.link.Init(k, self, source, channel, core.OpTransfer, cfg.Batch, cfg.BatchMin, cfg.BatchMax, cfg.Window)
	p.req = core.TransferRequest{Channel: channel, Max: p.link.Batch, Reply: &p.rep}
	return p
}

// Source returns the UID this port pulls from.
func (p *InPort) Source() uid.UID { return p.link.Peer }

// Channel returns the channel identifier this port reads.
func (p *InPort) Channel() core.ChannelID { return p.link.Channel }

// transfer runs one Transfer exchange with the given request record and
// normalises the result.
func (p *InPort) transfer(req *core.TransferRequest) pulled {
	req.Max = p.link.Size()
	raw, rtt, err := p.link.Exchange(req)
	if err != nil {
		return pulled{err: err}
	}
	rep, ok := raw.(*core.TransferReply)
	if !ok {
		return pulled{err: fmt.Errorf("transput: bad Transfer reply type %T", raw)}
	}
	if rep.Status != core.StatusOK && rep.Status != core.StatusEnd {
		// StatusErr copies what it needs; the record can recycle now.
		st, err := rep.Status, core.StatusErr(rep.Status, rep.AbortMsg)
		core.TransferReplies.Put(rep)
		return pulled{err: err, status: st}
	}
	p.link.Settle(rtt, req.Max, len(rep.Items))
	return pulled{items: rep.Items, status: rep.Status, rep: rep, base: rep.Base}
}

// attachLocked starts the read-ahead: window helpers, each keeping one
// Transfer on the wire, all feeding one bounded queue that the last one
// out closes, so a consumer blocked mid-stream (after Cancel) wakes up.
// The queue parks Prefetch batches and has room besides for every other
// helper's final End result, so helpers of a stream that ended normally
// exit even if nobody reads them.  A window's helpers take a slot at the
// link's gate for each Transfer and give it back before they queue the
// result, so a parked result never holds one, and queue it in its turn
// from offset from on; a lone helper has neither to pass.  A helper that
// holds a result still queues it after stop: whoever closed stop drains
// the queue.  Caller holds p.mu.
func (p *InPort) attachLocked(from int64) {
	gated := p.link.Window > 1
	if gated {
		p.link.OpenGate(from)
	}
	// The helpers work on their own copies of the channels: Redirect and
	// Cancel detach p.ahead (under p.mu) while helpers are still running.
	ahead := make(chan pulled, p.pref+p.link.Window-1)
	stop := make(chan struct{})
	p.ahead, p.stop = ahead, stop
	p.link.Start(p.link.Window, func() {
		req := core.TransferRequest{Channel: p.link.Channel}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if gated && !p.link.Enter() {
				return
			}
			res := p.transfer(&req)
			over := res.err != nil || res.status == core.StatusEnd
			if gated {
				grant := -1
				if over {
					p.link.ShutGate() // nothing is left to ask for
				} else {
					grant = res.rep.Backlog
				}
				p.link.Leave(grant)
			}
			switch {
			case !gated:
				ahead <- res
			case res.err != nil:
				// A failed exchange has no offset and is queued at once.
				// One that failed on the way may have taken items that
				// never arrive: that fails the stream, which releases every
				// batch behind the gap.
				if res.status == core.StatusOK {
					p.link.Fail(res.err)
				}
				ahead <- res
			case p.link.AwaitTurn(res.base):
				ahead <- res
				p.link.Pass(len(res.items))
			default: // the stream failed under this batch
				releasePulled(res)
				return
			}
			if over {
				return
			}
		}
	}, func() { close(ahead) })
}

// detachLocked tells the helpers to stop and hands their queue to the
// caller, who drains it until the last helper closes it.  It returns nil
// when there are none.  Caller holds p.mu.
func (p *InPort) detachLocked() chan pulled {
	ahead := p.ahead
	if ahead != nil {
		close(p.stop)
		if p.link.Window > 1 {
			p.link.ShutGate()
		}
		p.ahead, p.stop = nil, nil
	}
	return ahead
}

// absorbLocked integrates one pulled batch, which is next in stream
// order, and recycles its reply record.  Caller holds p.mu.
func (p *InPort) absorbLocked(res pulled) {
	if res.err != nil {
		p.done = true
		p.link.Fail(res.err)
		return
	}
	p.pending = append(p.pending, res.items...)
	if res.rep != nil {
		core.TransferReplies.Put(res.rep)
	}
	p.done = res.status == core.StatusEnd
}

// Next returns the next item, or (nil, io.EOF) at end of stream.
// It implements ItemReader.
func (p *InPort) Next() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.head < len(p.pending) {
			item := p.pending[p.head]
			p.pending[p.head] = nil
			p.head++
			switch {
			case p.head == len(p.pending):
				if cap(p.pending) > pendingKeep {
					p.pending = nil
				}
				p.pending, p.head = p.pending[:0], 0
			case p.head >= len(p.pending)-p.head:
				// A port that is refilled before it drains (prefetch,
				// window) never rewinds: slide the live items down once
				// the dead prefix is half the slice, as channel.consume
				// does, so the array does not grow with the stream.
				n := copy(p.pending, p.pending[p.head:])
				clear(p.pending[n:])
				p.pending, p.head = p.pending[:n], 0
			}
			p.itemsIn.Add(1)
			return item, nil
		}
		if p.done {
			if err := p.link.Failed(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		var res pulled
		open := true
		if p.ahead == nil && (p.link.Window > 1 || p.pref == 0) {
			// Inline: the exchange runs on the consumer's own goroutine,
			// without the lock so Cancel can proceed.  That is every
			// exchange of a demand-driven port, and the first of a
			// windowed one, which learns the stream offset its helpers
			// take their turns from.
			p.mu.Unlock()
			res = p.transfer(&p.req)
			p.mu.Lock()
		} else {
			if p.ahead == nil {
				p.attachLocked(0)
			}
			ahead := p.ahead
			p.mu.Unlock()
			res, open = <-ahead
			p.mu.Lock()
		}
		switch {
		case p.done: // cancelled while waiting
			releasePulled(res)
		case !open: // the helpers left without a final status
			p.done = true
		default:
			p.absorbLocked(res)
			if p.link.Window > 1 && p.ahead == nil && !p.done {
				p.attachLocked(res.base + int64(len(res.items)))
			}
		}
	}
}

// Dynamic stream redirection — §8: "Redirection of input and output
// can be provided very naturally in a system where each entity is
// referred to by means of a unique identifier.  Special file or stream
// descriptors are not needed."
//
// Because an InPort's source is nothing but a (UID, channel) pair,
// retargeting a *live* stream is a local operation: abort the old
// source's channel (releasing any producer parked on a full buffer),
// take in every batch the helpers still queue, in turn, until the last
// one leaves, forget any stale end-of-stream state, and pull from the
// new pair, whose first exchange sets the turn afresh.  Items already
// received are retained — redirection never loses data that has
// arrived, unless the old stream failed with a gap before it.  The
// paper contrasts this with Unix, "where the shell uses different syntax
// and a different implementation" for file vs program redirection; here
// both are the same two words.
//
// Redirect must not be called concurrently with Next: an InPort has a
// single logical consumer (the paper's model too), and it is that
// consumer who redirects itself between reads.

// Redirect retargets the port at a new source/channel.  If the old
// stream had already ended, redirection simply continues with the new
// one (sequential concatenation); if it was still live, the old
// channel is aborted with msg.  A cancelled port cannot be redirected.
func (p *InPort) Redirect(source uid.UID, channel core.ChannelID, msg string) error {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return itemio.ErrClosed
	}
	live := !p.done
	ahead := p.detachLocked()
	p.mu.Unlock()

	// Release anything parked at the old source (our own in-flight
	// read-ahead, or the producer blocked on a full buffer).  Skip the
	// abort when the old stream already ended: there is nothing to
	// release and the control invocation would distort the counts.
	if live {
		if msg == "" {
			msg = "redirected"
		}
		_ = p.link.Abort(msg)
	}

	// Salvage data the helpers had fetched before the abort reached the
	// old source — arrived data is kept, per the contract.  The helpers
	// queue it in stream order, after stop too, until the last one leaves;
	// the abort's own answers are errors that carry nothing.  A batch
	// beyond a gap was released by the failure that made the gap.
	var arrived []pulled
	if ahead != nil {
		for res := range ahead {
			if res.err == nil {
				arrived = append(arrived, res)
			}
		}
	}
	p.link.Helpers.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	for _, res := range arrived {
		p.absorbLocked(res) // the absorb that takes a live stream
	}
	p.link.Retarget(source, channel)
	p.req.Channel = channel // the reused request must follow the retarget
	p.done = false
	return nil
}

// Cancel abandons the stream early and tells the source to abort the
// channel, so an upstream producer blocked on a full buffer does not
// wait forever.  Filters with early exit (head, grep -m) need this.
// Cancel is idempotent; after it, Next returns an AbortedError, unless
// the stream had already ended (or failed) with nothing undelivered.
func (p *InPort) Cancel(msg string) {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return
	}
	p.cancelled = true
	live := !p.done
	// Undelivered items die with the port, also when the stream had
	// ended: the last batch arrives with StatusEnd, so a port can be done
	// with items still pending, and its stream is then cut short too.
	if live || p.head < len(p.pending) {
		p.done = true
		p.link.Fail(&itemio.AbortedError{Msg: msg})
	}
	wire.ReleaseAll(p.pending[p.head:])
	p.pending, p.head = nil, 0
	ahead := p.detachLocked()
	p.mu.Unlock()
	// A stream that already ended normally (or failed) has nothing
	// upstream to release, and sending an Abort would pollute the
	// invocation counts the experiments measure.
	if live {
		_ = p.link.Abort(msg)
	}
	// Unlike Redirect (which salvages arrived data for the new stream), a
	// cancelled port has no further consumer, so everything the helpers
	// queue dies here.
	if ahead != nil {
		for res := range ahead {
			releasePulled(res)
		}
	}
	p.link.Helpers.Wait()
}

// TransfersIssued reports how many Transfer invocations this port has
// sent; the E1–E4 experiments derive invocations-per-datum from it.
func (p *InPort) TransfersIssued() int64 { return p.link.Issued.Load() }

// ItemsRead reports how many items the consumer has taken.
func (p *InPort) ItemsRead() int64 { return p.itemsIn.Load() }

var _ itemio.ItemReader = (*InPort)(nil)

// Link is the exchange engine under the port, for code that inspects it.
func (p *InPort) Link() *core.Link { return &p.link }
