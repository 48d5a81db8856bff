//transput:discipline readonly

package transput

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// InPort is the active-input half of the read-only discipline: it
// issues Transfer invocations against a source Eject's channel and
// hands the resulting items to the application through the
// conventional-looking Next (Read) interface.
//
// Two knobs correspond to the paper's ablations:
//
//   - Batch is the Max parameter on each Transfer (how many items one
//     invocation may return).  Batch 1 reproduces the paper's
//     one-datum-per-invocation accounting.
//
//   - Prefetch enables anticipatory pulling: a background process (a
//     goroutine — one of the Eject's "worker processes") pulls ahead
//     of the consumer into a local buffer of the given number of
//     batches.  Prefetch 0 is the demand-driven (lazy) limit: a
//     Transfer is issued only when the consumer actually needs data.
//
// Stream order is preserved in two regimes.  At Window<=1 (the
// default) at most one Transfer is outstanding per InPort at any
// instant, so no sequencing is needed; overlap comes from pulling
// *ahead*, never from pulling *concurrently*.  At Window=K>1 the port
// keeps K Transfer invocations in flight from K puller goroutines and
// reassembles the batches in stream order using TransferReply.Base
// (the server-stamped stream offset), so the consumer still observes
// exactly the sequential stream.  A windowed port must be its
// channel's sole consumer — Base offsets are only dense in that case.
type InPort struct {
	k       *kernel.Kernel
	met     *metrics.Set
	caller  *kernel.Caller
	self    uid.UID
	source  uid.UID
	channel ChannelID
	batch   int
	pref    int
	window  int
	// ctrl, when non-nil, makes Transfer Max adaptive: the AIMD
	// controller sizes every request between the configured bounds.
	// Bounds that pin the size leave it nil and set batch instead.
	ctrl *batchController

	// req is the port's reusable Transfer request record for the
	// single-outstanding paths (demand-driven and the lone prefetch
	// puller); windowed pullers carry their own records.
	req TransferRequest

	mu sync.Mutex
	// pending[head:] are the items absorbed and not yet handed out.
	// Next pops by advancing head and, once drained, rewinds both to the
	// start of the backing array, so the next batch is appended into the
	// capacity this one left: at batch 1 that is the difference between
	// no allocation per Transfer and one.  A port refilled before it
	// drains is compacted instead, once half the slice is dead.
	pending   [][]byte
	head      int
	done      bool
	err       error // nil for normal EOF
	cancelled bool

	// background pull machinery (pref > 0 or window > 1)
	ahead    chan pulled
	pullerOn bool
	stopPull chan struct{}
	pullerWG sync.WaitGroup

	// windowed reassembly state (window > 1), guarded by mu.
	nextBase  int64            // stream offset the consumer expects next; -1 until probed
	streamLen int64            // total stream length once an End is seen; -1 before
	reorder   map[int64]pulled // out-of-order batches keyed by Base

	inflight        atomic.Int64 // Transfers currently on the wire (windowed)
	transfersIssued atomic.Int64
	itemsIn         atomic.Int64
}

// pulled is one Transfer's worth of results moving from the puller
// goroutine to the consumer.  rep, when set, is the reply record the
// items alias; it is recycled once the items have been absorbed.
type pulled struct {
	items  [][]byte
	status Status
	err    error
	rep    *TransferReply
	base   int64 // stream offset of items[0] (TransferReply.Base)
}

// releasePulled discards a pulled batch nobody will consume: any slab
// views among its items are released and the reply record recycled.
func releasePulled(res pulled) {
	wire.ReleaseAll(res.items)
	if res.rep != nil {
		releaseTransferReply(res.rep)
	}
}

// pendingKeep is the largest pending array (in items; 1.5 KiB) a
// drained port keeps for its next batch.  A larger batch amortises the
// array's allocation over its own items, and keeping every port's
// high-water array would hold that memory for as long as the port lives.
const pendingKeep = 64

// MaxWindow caps the flow-control window so that parked stream
// invocations can never exhaust an Eject's kernel worker pool (32 by
// default): a windowed port holds at most MaxWindow workers blocked at
// the passive side.
const MaxWindow = 16

// InPortConfig parameterises an InPort.
type InPortConfig struct {
	// Batch is Max per Transfer; <=0 means 1.
	Batch int
	// Prefetch is the local read-ahead buffer in batches; <=0 means
	// demand-driven.
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
func NewInPort(k *kernel.Kernel, self, source uid.UID, channel ChannelID, cfg InPortConfig) *InPort {
	if k == nil {
		panic("transput: NewInPort requires a kernel")
	}
	pref := cfg.Prefetch
	if pref < 0 {
		pref = 0
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
	p := &InPort{
		k:       k,
		met:     met,
		caller:  k.Caller(self),
		self:    self,
		source:  source,
		channel: channel,
		batch:   batch,
		pref:    pref,
		window:  window,
		ctrl:    ctrl,
		req:     TransferRequest{Channel: channel, Max: batch},
	}
	if window > 1 {
		p.nextBase = -1
		p.streamLen = -1
		p.reorder = make(map[int64]pulled)
	}
	return p
}

// Source returns the UID this port pulls from.
func (p *InPort) Source() uid.UID { return p.source }

// Channel returns the channel identifier this port reads.
func (p *InPort) Channel() ChannelID { return p.channel }

// transfer issues one synchronous Transfer and normalises the result.
func (p *InPort) transfer() pulled { return p.transferWith(&p.req) }

// transferWith issues one synchronous Transfer using the given request
// record.  Windowed pullers each own a record, because several
// Transfers are on the wire at once.
func (p *InPort) transferWith(req *TransferRequest) pulled {
	asked := req.Max
	var start time.Time
	if p.ctrl != nil {
		asked = p.ctrl.next()
		req.Max = asked
		start = time.Now()
	}
	p.transfersIssued.Add(1)
	raw, err := p.caller.Invoke(p.source, OpTransfer, req)
	if err != nil {
		return pulled{err: err}
	}
	rep, ok := raw.(*TransferReply)
	if !ok {
		return pulled{err: fmt.Errorf("transput: bad Transfer reply type %T", raw)}
	}
	switch rep.Status {
	case StatusOK, StatusEnd:
		if p.ctrl != nil {
			p.ctrl.record(asked, len(rep.Items), time.Since(start))
		}
		return pulled{items: rep.Items, status: rep.Status, rep: rep, base: rep.Base}
	default:
		// statusErr copies what it needs; the record can recycle now.
		err := statusErr(rep.Status, rep.AbortMsg)
		releaseTransferReply(rep)
		return pulled{err: err}
	}
}

// startPullerLocked arms the anticipatory puller.  Caller holds p.mu.
func (p *InPort) startPullerLocked() {
	// The goroutine works on local copies of the channels: Redirect
	// nils p.ahead (under p.mu) while the puller is still draining, so
	// reading the fields from the closure would race.
	ahead := make(chan pulled, p.pref)
	stop := make(chan struct{})
	p.ahead = ahead
	p.stopPull = stop
	p.pullerOn = true
	p.pullerWG.Add(1)
	go func() {
		defer p.pullerWG.Done()
		defer close(ahead)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res := p.transfer()
			select {
			case ahead <- res:
			case <-stop:
				return
			}
			if res.err != nil || res.status == StatusEnd {
				return
			}
		}
	}()
}

// startWindowLocked arms the windowed pull engine: p.window puller
// goroutines, each keeping one Transfer on the wire, all feeding one
// bounded ahead channel.  The channel's capacity covers the worst-case
// tail (every puller delivering its final End result after the
// consumer has stopped reading), so pullers never leak.  Caller holds
// p.mu and has already probed the stream (p.nextBase >= 0).
func (p *InPort) startWindowLocked() {
	ahead := make(chan pulled, p.window+p.pref)
	stop := make(chan struct{})
	p.ahead = ahead
	p.stopPull = stop
	p.pullerOn = true
	var wg sync.WaitGroup
	for i := 0; i < p.window; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := TransferRequest{Channel: p.channel, Max: p.batch}
			for {
				select {
				case <-stop:
					return
				default:
				}
				depth := p.inflight.Add(1)
				p.met.WindowDepthHighWater.Observe(depth)
				res := p.transferWith(&req)
				p.inflight.Add(-1)
				select {
				case ahead <- res:
				case <-stop:
					releasePulled(res)
					return
				}
				if res.err != nil || res.status == StatusEnd {
					return
				}
			}
		}()
	}
	// A single closer waits for every puller, then closes ahead so a
	// consumer blocked mid-stream (after Cancel) wakes up.  pullerWG
	// tracks the closer, so Cancel/Redirect wait for the whole window.
	p.pullerWG.Add(1)
	go func() {
		defer p.pullerWG.Done()
		wg.Wait()
		close(ahead)
	}()
}

// absorb integrates one pulled batch under p.mu.
func (p *InPort) absorbLocked(res pulled) {
	if res.err != nil {
		p.done = true
		p.err = res.err
		return
	}
	p.pending = append(p.pending, res.items...)
	if res.rep != nil {
		releaseTransferReply(res.rep)
	}
	if res.status == StatusEnd {
		p.done = true
	}
}

// absorbWindowedLocked integrates one windowed result: batches are
// stashed by stream offset and released to pending in order.  Caller
// holds p.mu.
func (p *InPort) absorbWindowedLocked(res pulled) {
	if res.err != nil {
		p.done = true
		p.err = res.err
		p.releaseReorderLocked()
		return
	}
	if res.status == StatusEnd {
		if end := res.base + int64(len(res.items)); p.streamLen < 0 || end > p.streamLen {
			p.streamLen = end
		}
	}
	// Duplicate bases can only be empty End replies (several pullers
	// observing the end of the drained stream); keep one.
	if old, ok := p.reorder[res.base]; ok {
		releasePulled(old)
	}
	p.reorder[res.base] = res
	p.advanceLocked()
	if n := len(p.reorder); n > 0 {
		p.met.MergeReorderHighWater.Observe(int64(n))
	}
}

// advanceLocked drains the reorder buffer's contiguous prefix into
// pending and marks the stream done once everything up to the End
// offset has been surfaced.  Caller holds p.mu.
func (p *InPort) advanceLocked() {
	for {
		res, ok := p.reorder[p.nextBase]
		if !ok {
			break
		}
		delete(p.reorder, p.nextBase)
		p.pending = append(p.pending, res.items...)
		if res.rep != nil {
			releaseTransferReply(res.rep)
		}
		if len(res.items) == 0 {
			break // empty End reply: the offset does not advance
		}
		p.nextBase += int64(len(res.items))
	}
	if p.streamLen >= 0 && p.nextBase >= p.streamLen {
		p.done = true
		p.releaseReorderLocked() // empty End stragglers, if any
	}
}

// releaseReorderLocked recycles and discards every stashed batch.
// Caller holds p.mu.
func (p *InPort) releaseReorderLocked() {
	for base, res := range p.reorder {
		releasePulled(res)
		delete(p.reorder, base)
	}
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
			if p.err != nil {
				return nil, p.err
			}
			return nil, io.EOF
		}
		if p.window > 1 {
			if p.nextBase < 0 {
				// Probe: one synchronous Transfer learns the stream
				// offset this port starts at, so the reorder logic has
				// an anchor before concurrent pulls begin.
				p.mu.Unlock()
				res := p.transfer()
				p.mu.Lock()
				if p.done && p.err != nil {
					releasePulled(res)
					continue // cancelled while waiting
				}
				if res.err == nil {
					p.nextBase = res.base + int64(len(res.items))
					if res.status == StatusEnd {
						p.streamLen = p.nextBase
					}
				}
				p.absorbLocked(res)
				continue
			}
			if !p.pullerOn {
				p.startWindowLocked()
			}
			ahead := p.ahead
			p.mu.Unlock()
			res, ok := <-ahead
			p.mu.Lock()
			if p.done && p.err != nil {
				if ok {
					releasePulled(res)
				}
				continue // cancelled while waiting
			}
			if !ok {
				if !p.done {
					p.done = true
				}
				continue
			}
			p.absorbWindowedLocked(res)
			continue
		}
		if p.pref > 0 {
			if !p.pullerOn {
				p.startPullerLocked()
			}
			ahead := p.ahead
			p.mu.Unlock()
			res, ok := <-ahead
			p.mu.Lock()
			if p.done && p.err != nil {
				if ok {
					releasePulled(res)
				}
				continue // cancelled while waiting
			}
			if !ok {
				// Puller exited without a final status (cancelled).
				if !p.done {
					p.done = true
				}
				continue
			}
			p.absorbLocked(res)
			continue
		}
		// Demand-driven: one synchronous Transfer, issued without
		// holding the lock so Cancel can proceed.
		p.mu.Unlock()
		res := p.transfer()
		p.mu.Lock()
		if p.done && p.err != nil {
			releasePulled(res)
			continue // cancelled while waiting
		}
		p.absorbLocked(res)
	}
}

// Cancel abandons the stream early and tells the source to abort the
// channel, so an upstream producer blocked on a full buffer does not
// wait forever.  Filters with early exit (head, grep -m) need this.
// Cancel is idempotent; after it, Next returns an AbortedError.
func (p *InPort) Cancel(msg string) {
	p.mu.Lock()
	if p.cancelled {
		p.mu.Unlock()
		return
	}
	p.cancelled = true
	if p.done {
		// The stream already ended normally (or failed); there is
		// nothing upstream to release, and sending an Abort would
		// pollute the invocation counts the experiments measure.
		ahead := p.ahead
		p.mu.Unlock()
		p.pullerWG.Wait()
		p.drainAhead(ahead)
		return
	}
	p.done = true
	if p.err == nil {
		p.err = &AbortedError{Msg: msg}
	}
	wire.ReleaseAll(p.pending[p.head:]) // undelivered items die with the stream
	p.pending, p.head = nil, 0
	if p.reorder != nil {
		p.releaseReorderLocked()
	}
	ahead := p.ahead
	if p.pullerOn {
		close(p.stopPull)
	}
	p.mu.Unlock()
	// The abort wakes any Transfer worker parked on the channel
	// (including our own in-flight pull).
	_, _ = p.caller.Invoke(p.source, OpAbort, &AbortRequest{Channel: p.channel, Msg: msg})
	p.pullerWG.Wait()
	p.drainAhead(ahead)
}

// drainAhead releases results the pullers parked in the read-ahead
// buffer after the consumer stopped taking them.  Unlike Redirect
// (which salvages arrived data for the new stream), a cancelled port
// has no further consumer, so everything still buffered dies here.
// The channel is closed once pullerWG settles, so the drain ends.
func (p *InPort) drainAhead(ahead chan pulled) {
	if ahead == nil {
		return
	}
	for res := range ahead {
		releasePulled(res)
	}
}

// TransfersIssued reports how many Transfer invocations this port has
// sent; the E1–E4 experiments derive invocations-per-datum from it.
func (p *InPort) TransfersIssued() int64 { return p.transfersIssued.Load() }

// ItemsRead reports how many items the consumer has taken.
func (p *InPort) ItemsRead() int64 { return p.itemsIn.Load() }

var _ ItemReader = (*InPort)(nil)
