package transput

import (
	"io"
	"sync"
	"unsafe"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// This file states the paper's duality once.  §3 defines a passive
// buffer as passive input and passive output around one buffer, and §5
// calls write-only transput "the exact dual" of read-only: the same
// bounded buffer with the initiative reversed.  So there is one channel
// record with four data operations, two served by kernel workers and
// two called locally by the owning Eject, and the three passive
// entities are faces over it:
//
//	face           fills the buffer          drains the buffer
//	OutPort        put    (local)            take   (served Transfer)
//	WOInPort       absorb (served Deliver)   next   (local)
//	PassiveBuffer  absorb (served Deliver)   take   (served Transfer)
//
// Teardown is likewise single: abort drops the backlog (releasing slab
// views) and broadcasts, after which every operation answers
// StatusAborted / the abort error; retire is abort plus the generation
// bump that kills outstanding references.  The faces differ in exactly
// two places, both decided at the face: what a negative capacity means,
// and whether an abort that arrives after a normal end of stream is
// still honoured (see abort).

// channel is one bounded stream buffer.  The buffer is a head-indexed
// deque: producers append at the tail, consumers advance head, and the
// backing array is compacted only when the dead prefix reaches half the
// slice — amortised O(1) per item.  Records are pooled, and the embedded
// chanCore's generation makes every stale reference to a previous life
// detectably dead (see chantable.go).
type channel struct {
	chanCore

	met      *metrics.Set
	name     string
	id       ChannelID
	capacity int
	slot     int // index in the registry's chans slice; guarded by registry mu

	buf          [][]byte
	head         int
	expectedEnds int // End marks that complete the stream (fan-in degree)
	ends         int
	abortErr     *AbortedError

	// seq orders concurrent deliveries from windowed writers (see
	// absorb).  It hangs off the record by pointer — attached by the
	// first windowed Deliver, kept across pool lives — so the million
	// idle records of a gateway do not each carry its lanes.
	seq *seqGate

	// arena holds the copies put makes for a ChannelWriter's Put, created
	// by the first and dropped at the end of the stream, so that a channel
	// fed only by PutOwned or Deliver — every gateway record — holds none.
	// One pointer keeps the record in its 256-byte size class.
	arena *wire.Arena

	// itemsOut is the stream offset of the next item taken; it stamps
	// TransferReply.Base so windowed readers reassemble in order.
	itemsOut        int64
	transfersServed int64
	deliversServed  int64
}

// buffered is the live item count.  Caller holds c.mu.
func (c *channel) buffered() int { return len(c.buf) - c.head }

// ended reports whether every expected End mark has arrived.
func (c *channel) ended() bool { return c.ends >= c.expectedEnds }

// chanPool recycles retired records.  A pooled record keeps its cond,
// its buffer backing array and its sequence gate; everything
// stream-specific is re-initialised by acquireChannel.
var chanPool = sync.Pool{New: func() any {
	c := new(channel)
	c.cond = sync.NewCond(&c.mu)
	return c
}}

// acquireChannel re-initialises a pooled (or fresh) record for a new
// stream — under mu, because a goroutine holding a stale reference from
// the record's previous life may be running its generation check.
func acquireChannel(met *metrics.Set, name string, id ChannelID, capacity, writers int) *channel {
	c := chanPool.Get().(*channel)
	c.mu.Lock()
	c.met = met
	c.name = name
	c.id = id
	c.capacity = capacity
	c.expectedEnds = max(writers, 1)
	c.ends = 0
	c.abortErr = nil
	if c.seq != nil {
		c.seq.reset()
	}
	c.itemsOut = 0
	c.transfersServed = 0
	c.deliversServed = 0
	c.mu.Unlock()
	return c
}

// consume drops the n oldest items, already handed to their consumer.
// Caller holds c.mu.
func (c *channel) consume(n int) {
	clear(c.buf[c.head : c.head+n]) // let the GC reclaim consumed items
	c.head += n
	switch {
	case c.head == len(c.buf):
		c.buf, c.head = c.buf[:0], 0
	case c.head >= len(c.buf)-c.head:
		// Dead prefix has reached half the slice; slide the live items
		// down so the array stops growing.  The vacated tail still
		// aliases them and would pin each past its consumption.
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf, c.head = c.buf[:n], 0
	}
}

// abortLocked marks the channel aborted (the first error sticks) and
// drops the backlog: an aborted channel never serves it — take and next
// answer the abort before looking at the buffer — so the items are
// unreachable and any slab views among them are released here.  Caller
// holds c.mu.
func (c *channel) abortLocked(err *AbortedError) {
	if c.abortErr == nil {
		c.abortErr = err
	}
	wire.ReleaseAll(c.buf[c.head:])
	clear(c.buf)
	c.buf = c.buf[:0]
	c.head = 0
	c.arena = nil
	c.cond.Broadcast()
}

// abort aborts the channel, provided it still carries gen (a retired
// channel is already dead; aborting its successor through a stale
// reference would corrupt an unrelated stream).  afterEnd is the face's
// rule for an abort that arrives once the stream has ended normally:
// passive output ignores it (the backlog drains to StatusEnd), passive
// input honours it (the consumer is going away; nothing will read the
// rest).
func (c *channel) abort(err *AbortedError, gen uint64, afterEnd bool) {
	c.mu.Lock()
	if c.gen.Load() == gen && (afterEnd || !c.ended()) {
		c.abortLocked(err)
	}
	c.mu.Unlock()
}

// retire aborts the channel with err and bumps the generation, making
// every outstanding reference stale.  It returns the identifier the
// channel was registered under and whether this call did the teardown
// (false if gen had already moved on).
func (c *channel) retire(err *AbortedError, gen uint64) (ChannelID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		return ChannelID{}, false
	}
	c.abortLocked(err)
	c.gen.Add(1)
	return c.id, true
}

// release returns a retired record to the pool unless a kernel worker
// is still parked in it; such a record is left to the GC (rare — retire
// broadcasts, so waiters drain promptly).
func (c *channel) release() {
	c.mu.Lock()
	idle := c.waiters == 0
	c.mu.Unlock()
	if idle {
		chanPool.Put(c)
	}
}

// end records one End mark: normal end of stream from one writer.
func (c *channel) end(gen uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		return ErrClosed
	}
	c.ends++
	c.arena = nil
	c.cond.Broadcast()
	return nil
}

// put is the local fill: it appends one item, blocking while the buffer
// is at capacity.  An owned item is stored by reference and is the
// channel's to release even when the put fails.
func (c *channel) put(item []byte, owned bool, gen uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fail := func(err error) error {
		if owned {
			wire.Release(item)
		}
		return err
	}
	if c.gen.Load() != gen {
		return fail(ErrClosed)
	}
	// Capacity 0 is rendezvous: at most one item in flight, and put
	// returns only once a Transfer has consumed it.  This is the "pure
	// laziness" limit of §4: the producer cannot compute even one item
	// ahead of its consumer.
	limit := max(c.capacity, 1)
	for c.buffered() >= limit && !c.ended() && c.abortErr == nil {
		c.wait()
	}
	if c.ended() {
		return fail(ErrClosed)
	}
	if c.abortErr != nil {
		return fail(c.abortErr)
	}
	if owned {
		c.met.WireBytesSaved.Add(int64(len(item)))
	} else {
		item = copyItem(&c.arena, item)
	}
	c.buf = append(c.buf, item)
	c.cond.Broadcast()
	if c.capacity == 0 {
		for c.buffered() > 0 && !c.ended() && c.abortErr == nil {
			c.wait()
		}
		if c.abortErr != nil {
			return c.abortErr // the item was stored; abort released it
		}
	}
	return nil
}

// take is the served drain: one Transfer batch of up to max items.  It
// blocks (parking the kernel worker) until at least one item is
// available or the stream ends — this blocking IS passive output.  A
// nil reply means the record no longer carries gen.
func (c *channel) take(gen uint64, max int) *TransferReply {
	if max <= 0 {
		max = 1
	}
	c.mu.Lock()
	if c.gen.Load() != gen {
		c.mu.Unlock()
		return nil
	}
	for c.buffered() == 0 && !c.ended() && c.abortErr == nil {
		c.wait()
	}
	if c.abortErr != nil {
		msg := c.abortErr.Msg
		c.mu.Unlock()
		return &TransferReply{Status: StatusAborted, AbortMsg: msg}
	}
	n := min(c.buffered(), max)
	rep := acquireTransferReply(n)
	copy(rep.Items, c.buf[c.head:c.head+n])
	c.consume(n)
	if c.ended() && c.buffered() == 0 {
		rep.Status = StatusEnd // combine the final batch with the end indication
	}
	c.transfersServed++
	rep.Base = c.itemsOut
	rep.Backlog = c.buffered()
	c.itemsOut += int64(n)
	c.met.ItemsMoved.Add(int64(n))
	c.cond.Broadcast() // wake producers waiting for space
	c.mu.Unlock()
	return rep
}

// absorb is the served fill: one Deliver batch.  The reply is withheld
// until every item fits in the buffer — the blocking IS passive input,
// and withholding the reply is how back pressure reaches the writer.
// The item references themselves are absorbed (the writer side always
// hands over fresh slices: copied on Put unless given ownership, and
// fresh by construction off an encoded hop).  A nil reply means the
// record no longer carries gen and nothing was absorbed.
func (c *channel) absorb(gen uint64, req *DeliverRequest) *DeliverReply {
	c.mu.Lock()
	if c.gen.Load() != gen {
		c.mu.Unlock()
		return nil
	}
	windowed := !req.Writer.IsNil()
	if windowed {
		// Hold this delivery until it is the writer's next in sequence,
		// so a window of K in-flight Delivers cannot reorder the stream.
		// The parked kernel worker is the window's cost; MaxWindow keeps
		// it below the pool size.
		if c.seq == nil {
			c.seq = new(seqGate)
		}
		for c.seq.expected(req.Writer) != req.Seq && c.abortErr == nil {
			c.wait()
		}
	}
	absorbed := 0
	var saved int64
	for _, item := range req.Items {
		for c.buffered() >= c.capacity && c.abortErr == nil {
			c.wait()
		}
		if c.abortErr != nil {
			break
		}
		c.buf = append(c.buf, item)
		absorbed++
		saved += int64(len(item))
		c.cond.Broadcast()
	}
	c.met.WireBytesSaved.Add(saved)
	if c.abortErr != nil {
		msg := c.abortErr.Msg
		c.mu.Unlock()
		// Items the channel never absorbed die here.  The sender cannot
		// know how many were taken, so the server owns the cleanup.
		wire.ReleaseAll(req.Items[absorbed:])
		return &DeliverReply{Status: StatusAborted, AbortMsg: msg}
	}
	if req.End {
		c.ends++
	}
	if windowed {
		if req.End {
			c.seq.drop(req.Writer)
		} else {
			c.seq.advance(req.Writer, req.Seq+1)
		}
	}
	if req.End || windowed {
		c.cond.Broadcast()
	}
	c.deliversServed++
	rep := acquireDeliverReply()
	rep.Credits = max(c.capacity-c.buffered(), 0)
	c.met.ItemsMoved.Add(int64(len(req.Items)))
	c.mu.Unlock()
	return rep
}

// next is the local drain: the next item, or io.EOF once the stream has
// ended and the buffer has drained (or the record was retired).
func (c *channel) next(gen uint64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen.Load() != gen {
		return nil, io.EOF
	}
	for c.buffered() == 0 && !c.ended() && c.abortErr == nil {
		c.wait()
	}
	if c.abortErr != nil {
		return nil, c.abortErr
	}
	if c.buffered() == 0 {
		return nil, io.EOF
	}
	item := c.buf[c.head]
	c.consume(1)
	c.cond.Broadcast() // wake parked Deliver workers
	return item, nil
}

// tableEntryBytes approximates the amortised per-entry share of one
// lookup index (key, entry struct and map-bucket overhead).  Used only
// for the IdleChannelBytes accounting gauge; the gateway bench
// cross-checks the gauge against runtime.MemStats.
const tableEntryBytes = 64

// idleChanFootprint is the fixed accounting charge for one idle
// channel: the record itself plus its index entries (two indices in
// capability mode, one otherwise).  The capability cache is a fixed
// array of the port's, not a per-channel cost.
func idleChanFootprint(capMode bool) int64 {
	fp := int64(unsafe.Sizeof(channel{})) + tableEntryBytes
	if capMode {
		fp += tableEntryBytes
	}
	return fp
}

// errRetired marks channels torn down by Retire.  Shared: AbortedError
// is immutable once published.
var errRetired = &AbortedError{Msg: "channel retired"}

// chanRegistry is a passive port's set of channels: the lookup table
// Transfer/Deliver/Abort requests resolve through (striped maps with a
// capability cache, lock-free on the steady-state path — see
// chantable.go) and the ordered list OpChannels advertises.  Declare
// and Retire are O(1) amortised, which is what makes gateway-scale
// admission linear.
type chanRegistry struct {
	chanTable
	mintCap func() uid.UID
	// input marks a passive-input port: its adverts say "in" and an
	// abort after the stream's normal end is still honoured.
	input bool

	mu    sync.Mutex // guards chans (advert order and slot indices)
	chans []*channel
}

// init prepares the registry.  k supplies UID minting (capability mode)
// and the metric set; it may be nil in unit tests, in which case
// capability mode mints from the global generator and metering is
// dropped on a private set.
func (r *chanRegistry) init(k *kernel.Kernel, capMode, input bool) {
	met, mint := &metrics.Set{}, uid.New
	if k != nil {
		met, mint = k.Metrics(), k.NewUID
	}
	r.chanTable = newChanTable(capMode, met)
	r.mintCap = mint
	r.input = input
}

// declare creates a channel; in capability mode its unforgeable
// identifier is minted here.  capacity is already normalised by the
// face.
func (r *chanRegistry) declare(name string, num ChannelNum, capacity, writers int) (*channel, uint64) {
	id := ChannelID{Num: num}
	if r.capMode {
		id.Cap = r.mintCap()
	}
	c := acquireChannel(r.met, name, id, capacity, writers)
	gen := c.generation()
	r.mu.Lock()
	c.slot = len(r.chans)
	r.chans = append(r.chans, c)
	r.mu.Unlock()
	r.register(num, id.Cap, c, gen)
	r.met.ChannelsLive.Inc()
	r.met.IdleChannelBytes.Add(idleChanFootprint(r.capMode))
	return c, gen
}

// retire tears down a channel (see channel.retire), removes it from
// the table and the advert list, and returns the record to the pool.
// It reports whether this call performed the teardown.
func (r *chanRegistry) retire(c *channel, gen uint64) bool {
	id, ok := c.retire(errRetired, gen)
	if !ok {
		return false
	}
	r.unregister(id.Num, id.Cap)
	r.mu.Lock()
	last := len(r.chans) - 1
	if c.slot <= last && r.chans[c.slot] == c {
		moved := r.chans[last]
		r.chans[c.slot] = moved
		moved.slot = c.slot
		r.chans[last] = nil
		r.chans = r.chans[:last]
	}
	r.mu.Unlock()
	r.met.ChannelsLive.Dec()
	r.met.IdleChannelBytes.Sub(idleChanFootprint(r.capMode))
	c.release()
	return true
}

// live snapshots the channel list.
func (r *chanRegistry) live() []*channel {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*channel(nil), r.chans...)
}

// sum totals f over the live channels, each read under its own lock.
func (r *chanRegistry) sum(f func(*channel) int64) int64 {
	var n int64
	for _, c := range r.live() {
		c.mu.Lock()
		n += f(c)
		c.mu.Unlock()
	}
	return n
}

// Adverts lists the port's channels for OpChannels.  In capability
// mode this is how a pipeline builder learns the channel UIDs; the
// security of the scheme "depends on the honesty of the Eject which
// performs the interconnections" (§5), i.e. of whoever calls this.
func (r *chanRegistry) Adverts() []ChannelAdvert {
	dir := "out"
	if r.input {
		dir = "in"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ads := make([]ChannelAdvert, 0, len(r.chans))
	for _, c := range r.chans {
		ads = append(ads, ChannelAdvert{Name: c.name, ID: c.id, Dir: dir})
	}
	return ads
}

// ServeAbort handles OpAbort: it aborts the named channel (or all).
// Aborting a nonexistent channel is a no-op.
func (r *chanRegistry) ServeAbort(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*AbortRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	err := &AbortedError{Msg: req.Msg}
	if req.All {
		for _, c := range r.live() {
			// If a retire races us the generation check turns the abort
			// into a no-op, which is the right outcome either way.
			c.abort(err, c.generation(), r.input)
		}
	} else if c, gen, st := r.lookup(req.Channel); st == StatusOK {
		c.abort(err, gen, r.input)
	}
	inv.Reply(&AbortReply{})
}

// serveControl dispatches the operations every passive port answers the
// same way, returning false for anything else.
func (r *chanRegistry) serveControl(inv *kernel.Invocation) bool {
	switch inv.Op {
	case OpChannels:
		inv.Reply(&ChannelsReply{Channels: r.Adverts()})
	case OpAbort:
		r.ServeAbort(inv)
	default:
		return false
	}
	return true
}
