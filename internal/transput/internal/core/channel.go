package core

import (
	"io"
	"sync"
	"unsafe"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/uid"
	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/itemio"
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

// Channel is one bounded stream buffer.  The buffer is a head-indexed
// deque: producers append at the tail, consumers advance head, and the
// backing array is compacted only when the dead prefix reaches half the
// slice — amortised O(1) per item.  A channel holds an array only while
// it holds items: the one that empties it hands the array to its port's
// spares, and the next fill of an empty channel takes one from there.
// Records are pooled, and the embedded chanCore's generation makes every
// stale reference to a previous life detectably dead (see chantable.go).
type Channel struct {
	chanCore

	port     *ChanPort
	name     string
	id       ChannelID
	capacity int
	slot     int // index in the registry's chans slice; guarded by registry mu

	buf          [][]byte // nil while empty
	head         int
	expectedEnds int // End marks that complete the stream (fan-in degree)
	ends         int
	abortErr     *itemio.AbortedError

	// Seq holds each windowed writer's turn (see absorb).  It hangs off
	// the record by pointer — attached by the first windowed Deliver, kept
	// across pool lives — so the million idle records of a gateway do not
	// each carry its lanes.
	Seq *seqGate

	// arena holds the copies put makes for a ChannelWriter's Put, created
	// by the first and dropped at the end of the stream, so that a channel
	// fed only by PutOwned or Deliver — every gateway record — holds none.
	// One pointer keeps the record in its 192-byte size class.
	arena *wire.Arena

	// ItemsOut is the stream offset of the next item taken; it stamps
	// TransferReply.Base so windowed readers reassemble in order.
	ItemsOut        int64
	TransfersServed int64
	DeliversServed  int64
}

// Buffered is the live item count.  Caller holds c.Mu.
func (c *Channel) Buffered() int { return len(c.buf) - c.head }

// ended reports whether every expected End mark has arrived.
func (c *Channel) ended() bool { return c.ends >= c.expectedEnds }

// chanPool recycles retired records.  A pooled record keeps its cond
// (if it ever waited) and its sequence gate, never an item array (retire
// empties it); everything stream-specific is re-initialised by
// AcquireChannel.
var chanPool = sync.Pool{New: func() any { return new(Channel) }}

// ChanPort is what the records of one port share: its metric set and
// its spare item arrays.  An array is handed back here by the consume or
// abort that empties a channel and taken by the next put or absorb into
// an empty one, so the port holds at most as many arrays as it ever had
// non-empty channels at once, and an idle or pooled record holds none.
// (Not a sync.Pool: its per-P caches miss whenever the channel's producer
// and consumer run on different Ps.)  mu is a leaf, taken under a
// record's Mu.
type ChanPort struct {
	Met *metrics.Set

	mu     sync.Mutex
	spares [][][]byte
}

// spare takes an item array for an empty channel, or nil if the port
// has none.
func (p *ChanPort) spare() (buf [][]byte) {
	p.mu.Lock()
	if n := len(p.spares) - 1; n >= 0 {
		buf, p.spares[n] = p.spares[n], nil
		p.spares = p.spares[:n]
	}
	p.mu.Unlock()
	return buf
}

// keep takes back a channel's emptied array, every slot cleared.
func (p *ChanPort) keep(buf [][]byte) {
	if cap(buf) > 0 {
		p.mu.Lock()
		p.spares = append(p.spares, buf[:0])
		p.mu.Unlock()
	}
}

// DefaultCapacity is the per-channel anticipatory buffer bound used
// when the config does not specify one.
const DefaultCapacity = 64

// InputCapacity is the passive-input faces' capacity rule: 0 selects
// DefaultCapacity and a negative value selects single-item handoff.
func InputCapacity(capacity int) int {
	switch {
	case capacity < 0:
		return 1
	case capacity == 0:
		return DefaultCapacity
	}
	return capacity
}

// AcquireChannel re-initialises a pooled (or fresh) record for a new
// stream and returns the reference to its new life — under Mu, because
// a goroutine holding a stale reference from the record's previous life
// may be running its generation check.
func AcquireChannel(port *ChanPort, name string, id ChannelID, capacity, writers int) ChanRef {
	c := chanPool.Get().(*Channel)
	c.Mu.Lock()
	c.port = port
	c.name = name
	c.id = id
	c.capacity = capacity
	c.expectedEnds = max(writers, 1)
	c.ends = 0
	c.abortErr = nil
	if c.Seq != nil {
		c.Seq.reset()
	}
	c.ItemsOut = 0
	c.TransfersServed = 0
	c.DeliversServed = 0
	c.Mu.Unlock()
	return ChanRef{c, c.gen.Load()}
}

// push appends item, taking an array from the port's spares if c is
// empty.  Caller holds c.Mu.
func (c *Channel) push(item []byte) {
	if c.buf == nil {
		c.buf = c.port.spare()
	}
	c.buf = append(c.buf, item)
}

// consume drops the n oldest items, already handed to their consumer.
// Caller holds c.Mu.
func (c *Channel) consume(n int) {
	clear(c.buf[c.head : c.head+n]) // let the GC reclaim consumed items
	c.head += n
	switch {
	case c.head == len(c.buf):
		c.port.keep(c.buf)
		c.buf, c.head = nil, 0
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
// holds the record's lock, taken through r.lock.
func (r ChanRef) abortLocked(err *itemio.AbortedError) {
	c := r.C
	if c.abortErr == nil {
		c.abortErr = err
	}
	wire.ReleaseAll(c.buf[c.head:])
	clear(c.buf)
	c.port.keep(c.buf)
	c.buf = nil
	c.head = 0
	c.arena = nil
	if c.cond != nil {
		c.cond.Broadcast()
	}
}

// Abort aborts the channel, unless r is stale (a retired channel is
// already dead; aborting its successor through a stale reference would
// corrupt an unrelated stream).  afterEnd is the face's rule for an
// abort that arrives once the stream has ended normally: passive output
// ignores it (the backlog drains to StatusEnd), passive input honours
// it (the consumer is going away; nothing will read the rest).
func (r ChanRef) Abort(err *itemio.AbortedError, afterEnd bool) {
	if c, ok := r.Lock(); ok {
		if afterEnd || !c.ended() {
			r.abortLocked(err)
		}
		c.Mu.Unlock()
	}
}

// Retire aborts the channel with err and bumps the generation, making
// every outstanding reference stale.  It returns the identifier the
// channel was registered under and whether this call did the teardown
// (false if r was already stale).
func (r ChanRef) Retire(err *itemio.AbortedError) (ChannelID, bool) {
	c, ok := r.Lock()
	if !ok {
		return ChannelID{}, false
	}
	defer c.Mu.Unlock()
	r.abortLocked(err)
	c.gen.Add(1)
	return c.id, true
}

// Ident is the channel's identifier and advertised name, or the zero
// pair once r is stale.
func (r ChanRef) Ident() (id ChannelID, name string) {
	if c, ok := r.Lock(); ok {
		id, name = c.id, c.name
		c.Mu.Unlock()
	}
	return id, name
}

// Release returns the record r retired to the pool unless a kernel
// worker is still parked in it; such a record is left to the GC (rare —
// retire broadcasts, so waiters drain promptly).
func (r ChanRef) Release() {
	r.C.Mu.Lock()
	idle := r.C.waiters == 0
	r.C.Mu.Unlock()
	if idle {
		chanPool.Put(r.C)
	}
}

// End records one End mark: normal end of stream from one writer.
func (r ChanRef) End() error {
	c, ok := r.Lock()
	if !ok {
		return itemio.ErrClosed
	}
	defer c.Mu.Unlock()
	c.ends++
	c.arena = nil
	if c.cond != nil {
		c.cond.Broadcast()
	}
	return nil
}

// Put is the local fill: it appends one item, blocking while the buffer
// is at capacity.  An owned item is stored by reference and is the
// channel's to release even when the put fails.
func (r ChanRef) Put(item []byte, owned bool) error {
	fail := func(err error) error {
		if owned {
			wire.Release(item)
		}
		return err
	}
	c, ok := r.Lock()
	if !ok {
		return fail(itemio.ErrClosed)
	}
	defer c.Mu.Unlock()
	// Capacity 0 is rendezvous: at most one item in flight, and put
	// returns only once a Transfer has consumed it.  This is the "pure
	// laziness" limit of §4: the producer cannot compute even one item
	// ahead of its consumer.
	limit := max(c.capacity, 1)
	for c.Buffered() >= limit && !c.ended() && c.abortErr == nil {
		c.wait()
	}
	if c.ended() {
		return fail(itemio.ErrClosed)
	}
	if c.abortErr != nil {
		return fail(c.abortErr)
	}
	if owned {
		c.port.Met.WireBytesSaved.Add(int64(len(item)))
	} else {
		item = itemio.CopyItem(&c.arena, item)
	}
	c.push(item)
	if c.cond != nil {
		c.cond.Broadcast()
	}
	if c.capacity == 0 {
		for c.Buffered() > 0 && !c.ended() && c.abortErr == nil {
			c.wait()
		}
		if c.abortErr != nil {
			return c.abortErr // the item was stored; abort released it
		}
	}
	return nil
}

// Take is the served drain: one Transfer batch of up to max items.  It
// blocks (parking the kernel worker) until at least one item is
// available or the stream ends — this blocking IS passive output.  A
// nil reply means r is stale.
func (r ChanRef) Take(max int) *TransferReply {
	if max <= 0 {
		max = 1
	}
	c, ok := r.Lock()
	if !ok {
		return nil
	}
	for c.Buffered() == 0 && !c.ended() && c.abortErr == nil {
		c.wait()
	}
	if c.abortErr != nil {
		msg := c.abortErr.Msg
		c.Mu.Unlock()
		return &TransferReply{Status: StatusAborted, AbortMsg: msg}
	}
	n := min(c.Buffered(), max)
	rep := TransferReplies.Get()
	rep.Items = append(rep.Items, c.buf[c.head:c.head+n]...)
	c.consume(n)
	if c.ended() && c.Buffered() == 0 {
		rep.Status = StatusEnd // combine the final batch with the end indication
	}
	c.TransfersServed++
	rep.Base = c.ItemsOut
	rep.Backlog = c.Buffered()
	c.ItemsOut += int64(n)
	c.port.Met.ItemsMoved.Add(int64(n))
	if c.cond != nil {
		c.cond.Broadcast() // wake producers waiting for space
	}
	c.Mu.Unlock()
	return rep
}

// Absorb is the served fill: one Deliver batch.  The reply is withheld
// until every item fits in the buffer — the blocking IS passive input,
// and withholding the reply is how back pressure reaches the writer.
// The item references themselves are absorbed (the writer side always
// hands over fresh slices: copied on Put unless given ownership, and
// fresh by construction off an encoded hop).  A nil reply means r is
// stale and nothing was absorbed.
func (r ChanRef) Absorb(req *DeliverRequest) *DeliverReply {
	c, ok := r.Lock()
	if !ok {
		return nil
	}
	windowed := !req.Writer.IsNil()
	if windowed {
		// Hold this delivery until its Base is the writer's turn, so a
		// window of K in-flight Delivers cannot reorder the stream.  The
		// parked kernel worker is the window's cost; MaxWindow keeps it
		// below the pool size.
		if c.Seq == nil {
			c.Seq = new(seqGate)
		}
		if c.Seq.turn(req.Writer) < req.Base && c.abortErr == nil {
			c.Seq.held++
			c.port.Met.MergeReorderHighWater.Observe(int64(c.Seq.held))
			for c.Seq.turn(req.Writer) < req.Base && c.abortErr == nil {
				c.wait()
			}
			c.Seq.held--
		}
	}
	absorbed := 0
	var saved int64
	for _, item := range req.Items {
		for c.Buffered() >= c.capacity && c.abortErr == nil {
			c.wait()
		}
		if c.abortErr != nil {
			break
		}
		c.push(item)
		absorbed++
		saved += int64(len(item))
		if c.cond != nil {
			c.cond.Broadcast()
		}
	}
	c.port.Met.WireBytesSaved.Add(saved)
	if c.abortErr != nil {
		msg := c.abortErr.Msg
		c.Mu.Unlock()
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
			c.Seq.drop(req.Writer)
		} else {
			c.Seq.advance(req.Writer, req.Base+int64(len(req.Items)))
		}
	}
	if (req.End || windowed) && c.cond != nil {
		c.cond.Broadcast()
	}
	c.DeliversServed++
	rep := DeliverReplies.Get()
	rep.Credits = max(c.capacity-c.Buffered(), 0)
	c.port.Met.ItemsMoved.Add(int64(len(req.Items)))
	c.Mu.Unlock()
	return rep
}

// Next is the local drain: the next item, or io.EOF once the stream has
// ended and the buffer has drained (or r is stale).
func (r ChanRef) Next() ([]byte, error) {
	c, ok := r.Lock()
	if !ok {
		return nil, io.EOF
	}
	defer c.Mu.Unlock()
	for c.Buffered() == 0 && !c.ended() && c.abortErr == nil {
		c.wait()
	}
	if c.abortErr != nil {
		return nil, c.abortErr
	}
	if c.Buffered() == 0 {
		return nil, io.EOF
	}
	item := c.buf[c.head]
	c.consume(1)
	if c.cond != nil {
		c.cond.Broadcast() // wake parked Deliver workers
	}
	return item, nil
}

// indexEntryBytes is the index share of one channel: its slot in the
// port's stripemap with the map's control bytes and free slots, as
// TestIdleChannelFootprint measures it for 20 000 channels (43.7 B keyed
// by number, 59.3 B by capability: about 312 keys a stripe, in a table
// of 512 slots).
func indexEntryBytes(capMode bool) uintptr {
	if capMode {
		return 59
	}
	return 44
}

// idleChanFootprint is what the IdleChannelBytes gauge charges one idle
// channel: its record, the handle Declare returned (a ChannelWriter or
// ChannelReader, each one ChanRef), its slot in the advert list and its
// one index entry.  An idle channel holds no item
// array, and the capability cache is a fixed array of the port's, not a
// per-channel cost.
func idleChanFootprint(capMode bool) int64 {
	return int64(unsafe.Sizeof(Channel{}) + 2*unsafe.Sizeof(ChanRef{}) + indexEntryBytes(capMode))
}

// errRetired marks channels torn down by Retire.  Shared: AbortedError
// is immutable once published.
var errRetired = &itemio.AbortedError{Msg: "channel retired"}

// ChanRegistry is a passive port's set of channels: the lookup table
// Transfer/Deliver/Abort requests resolve through (striped maps with a
// capability cache, lock-free on the steady-state path — see
// chantable.go) and the ordered list OpChannels advertises.  Declare
// and Retire are O(1) amortised, which is what makes gateway-scale
// admission linear.
type ChanRegistry struct {
	chanTable
	port    ChanPort
	mintCap func() uid.UID
	// input marks a passive-input port: its adverts say "in" and an
	// abort after the stream's normal end is still honoured.
	input bool

	mu    sync.Mutex // guards chans (advert order and slot indices)
	chans []ChanRef
}

// Init prepares the registry.  k supplies UID minting (capability mode)
// and the metric set; it may be nil in unit tests, in which case
// capability mode mints from the global generator and metering is
// dropped on a private set.
func (r *ChanRegistry) Init(k *kernel.Kernel, capMode, input bool) {
	met, mint := &metrics.Set{}, uid.New
	if k != nil {
		met, mint = k.Metrics(), k.NewUID
	}
	r.chanTable = newChanTable(capMode, met)
	r.port.Met = met
	r.mintCap = mint
	r.input = input
}

// Declare creates a channel; in capability mode its unforgeable
// identifier is minted here.  capacity is already normalised by the
// face.
func (r *ChanRegistry) Declare(name string, num ChannelNum, capacity, writers int) ChanRef {
	id := ChannelID{Num: num}
	if r.capMode {
		id.Cap = r.mintCap()
	}
	ref := AcquireChannel(&r.port, name, id, capacity, writers)
	r.mu.Lock()
	ref.C.slot = len(r.chans)
	r.chans = append(r.chans, ref)
	r.mu.Unlock()
	r.register(num, id.Cap, ref)
	r.Met.ChannelsLive.Inc()
	r.Met.IdleChannelBytes.Add(idleChanFootprint(r.capMode))
	return ref
}

// Retire tears down a channel (see ChanRef.Retire), removes it from
// the table and the advert list, and returns the record to the pool.
// It reports whether this call performed the teardown.
func (r *ChanRegistry) Retire(ref ChanRef) bool {
	id, ok := ref.Retire(errRetired)
	if !ok {
		return false
	}
	r.unregister(id.Num, id.Cap)
	r.mu.Lock()
	if i, last := ref.C.slot, len(r.chans)-1; i <= last && r.chans[i] == ref {
		moved := r.chans[last]
		moved.C.slot = i
		r.chans[i], r.chans[last] = moved, ChanRef{}
		r.chans = r.chans[:last]
	}
	r.mu.Unlock()
	r.Met.ChannelsLive.Dec()
	r.Met.IdleChannelBytes.Sub(idleChanFootprint(r.capMode))
	ref.Release()
	return true
}

// live snapshots the channel list.
func (r *ChanRegistry) live() []ChanRef {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]ChanRef(nil), r.chans...)
}

// Sum totals f over the live channels, each read under its own lock;
// one retired since the snapshot (its record perhaps reissued) counts
// nothing.
func (r *ChanRegistry) Sum(f func(*Channel) int64) int64 {
	var n int64
	for _, ref := range r.live() {
		if c, ok := ref.Lock(); ok {
			n += f(c)
			c.Mu.Unlock()
		}
	}
	return n
}

// Adverts lists the port's channels for OpChannels.  In capability
// mode this is how a pipeline builder learns the channel UIDs; the
// security of the scheme "depends on the honesty of the Eject which
// performs the interconnections" (§5), i.e. of whoever calls this.
func (r *ChanRegistry) Adverts() []ChannelAdvert {
	dir := "out"
	if r.input {
		dir = "in"
	}
	refs := r.live()
	ads := make([]ChannelAdvert, 0, len(refs))
	for _, ref := range refs {
		if c, ok := ref.Lock(); ok {
			ads = append(ads, ChannelAdvert{Name: c.name, ID: c.id, Dir: dir})
			c.Mu.Unlock()
		}
	}
	return ads
}

// ServeAbort handles OpAbort: it aborts the named channel (or all).
// Aborting a nonexistent channel is a no-op.
func (r *ChanRegistry) ServeAbort(inv *kernel.Invocation) {
	req, ok := inv.Payload.(*AbortRequest)
	if !ok {
		inv.Fail(kernel.ErrNoSuchOperation)
		return
	}
	err := &itemio.AbortedError{Msg: req.Msg}
	if req.All {
		for _, ref := range r.live() {
			// If a retire races us the abort is a no-op, which is the
			// right outcome either way.
			ref.Abort(err, r.input)
		}
	} else if ref, st := r.Lookup(req.Channel); st == StatusOK {
		ref.Abort(err, r.input)
	}
	inv.Reply(&AbortReply{})
}

// ServeControl dispatches the operations every passive port answers the
// same way, returning false for anything else.
func (r *ChanRegistry) ServeControl(inv *kernel.Invocation) bool {
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
