package core

import (
	"sync"
	"sync/atomic"

	"asymstream/internal/metrics"
	"asymstream/internal/stripemap"
	"asymstream/internal/uid"
)

// This file is the transput half of the million-channel control plane:
// the striped channel table the passive ports look channels up in, the
// capability-check cache in front of it, the generation-checked
// concurrency core the channel record (channel.go) embeds, and the
// alloc-free writer-sequence gate.  The kernel half (striped
// UID→binding table) lives in internal/stripemap and internal/kernel.
//
// The design target is an ingress gateway: one port holding 10⁵–10⁶
// capability-checked channels under sustained open-loop load.  So
// lookups are lock-free hits on striped amortised-COW maps and Declare
// is O(1) amortised (not an O(live channels) snapshot copy); records
// are pooled under a generation discipline, so churn does not allocate;
// and writer sequencing stays inline and alloc-free for the common
// fan-in degrees.

// chanStripes is the stripe count for per-port channel tables.  Large
// enough that a gateway-scale create storm spreads, small enough that
// an ordinary few-channel port does not pay noticeable fixed cost.
const chanStripes = 64

// chanCore is the concurrency core every pooled channel record embeds:
// the lock, the condition variable, the waiter count that gates
// pooling, and the generation that makes stale references detectable.
//
// Generation discipline: a record's gen is bumped exactly once per
// retire, under Mu, and nothing holds a record bare (see ChanRef).
// This is what makes both the stripemap staleness contract (deletes
// visible lazily) and sync.Pool reuse safe: a stale reference cannot
// touch the wrong stream, it can only observe "generation moved on"
// and fail cleanly.
//
// Waiter discipline: every cond.Wait goes through wait(), so retire
// can tell whether any kernel worker is still parked inside the
// record.  A record is returned to its pool only when waiters == 0;
// otherwise it is left to the GC (rare — retire broadcasts first, so
// waiters drain promptly).
//
// cond is made by a record's first wait, under Mu, and every broadcast
// is skipped while it is nil: nobody can be parked on a cond that does
// not exist yet.  An idle gateway record never waits, so it never
// carries one.
type chanCore struct {
	Mu      sync.Mutex
	cond    *sync.Cond
	waiters int
	gen     atomic.Uint64
}

// wait parks the caller on cond with waiter accounting, making cond
// first if the record has never waited.  Caller holds Mu (as for
// cond.Wait).
func (c *chanCore) wait() {
	if c.cond == nil {
		c.cond = sync.NewCond(&c.Mu)
	}
	c.waiters++
	c.cond.Wait()
	c.waiters--
}

// ChanRef is how anything holds a channel record — a writer/reader
// handle, a table entry, a capability cache entry, the registry's list:
// the record with the generation it was issued under.  Outside
// channel.go it is the only way to reach a record, and lock is the only
// way a ChanRef reaches it.
type ChanRef struct {
	C   *Channel
	gen uint64
}

// Lock locks the record, or returns false with the lock released once
// the generation has moved on (retired, the record perhaps reissued).
func (r ChanRef) Lock() (*Channel, bool) {
	r.C.Mu.Lock()
	if r.C.gen.Load() != r.gen {
		r.C.Mu.Unlock()
		return nil, false
	}
	return r.C, true
}

// capCacheSlots sizes the direct-mapped capability cache.  Power of
// two; at 1<<12 slots a gateway's hot working set (the channels
// actively streaming, not the million idle ones) fits with few
// conflict evictions while the cache itself stays small (160 KiB per
// port).  Grown from 1<<10 after the E13 gateway
// measured an 84% hit rate: the hot set plus its churn tail conflicted
// in a 1k-slot map, and quadrupling the slots moved the hit rate into
// the high-90s without warranting associativity's extra probe.
const capCacheSlots = 1 << 12

// capSlot is one cached capability verification — this UID named this
// record at this generation — stored by value, so installing one on a
// miss allocates nothing.  The sequence word makes the fields one unit:
// a writer holds it odd while it stores them, and a reader that finds
// it odd, or changed across its reads, has seen a mixture and takes the
// slot for empty.  Every field is an atomic, which is what keeps the
// lock-free readers race-free.
type capSlot struct {
	seq    atomic.Uint64
	hi, lo atomic.Uint64 // the capability
	ch     atomic.Pointer[Channel]
	gen    atomic.Uint64
}

// load returns the reference cached for cp, if the slot holds cp's
// entry and no writer was in it.
func (s *capSlot) load(cp uid.UID) (ChanRef, bool) {
	seq := s.seq.Load()
	hi, lo, ref := s.hi.Load(), s.lo.Load(), ChanRef{s.ch.Load(), s.gen.Load()}
	if seq&1 != 0 || s.seq.Load() != seq || ref.C == nil || hi != cp.Hi || lo != cp.Lo {
		return ChanRef{}, false
	}
	return ref, true
}

// store installs an entry, evicting the slot's last.  A writer that
// finds another in the slot gives up: the cache is lossy by contract.
func (s *capSlot) store(cp uid.UID, ref ChanRef) {
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.hi.Store(cp.Hi)
	s.lo.Store(cp.Lo)
	s.ch.Store(ref.C)
	s.gen.Store(ref.gen)
	s.seq.Store(seq + 2)
}

// capCache is a direct-mapped, lossy cache in front of the byCap
// stripemap: a handful of atomic loads and compares on a hit, versus a
// hash, a snapshot load and a map probe on a miss.  Entries are
// installed on miss and evicted only by conflict — invalidation is free
// because every entry carries its generation, and a retired channel's
// bumped generation makes the entry fail validation (§5's rights check
// is therefore performed once per channel-binding epoch, exactly as the
// kernel caches binding lookups per activation epoch).
type capCache struct {
	slots [capCacheSlots]capSlot
}

// chanTable is a port's channel registry: one striped lookup map,
// keyed by whatever the port's addressing mode names channels with,
// plus the capability cache in capability mode.  All methods are safe
// for concurrent use.
type chanTable struct {
	capMode bool
	Met     *metrics.Set

	byNum *stripemap.Map[ChannelNum, ChanRef] // nil in capMode
	byCap *stripemap.Map[uid.UID, ChanRef]    // nil unless capMode
	cache *capCache                           // nil unless capMode
}

// numHash mixes a channel number for stripe placement (small
// sequential numbers must not pile onto one stripe).
func numHash(n ChannelNum) uint64 {
	x := uint64(n) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func newChanTable(capMode bool, met *metrics.Set) chanTable {
	t := chanTable{capMode: capMode, Met: met}
	if capMode {
		t.byCap = stripemap.New[uid.UID, ChanRef](chanStripes, uid.UID.Hash, &met.ChannelLookupContention)
		t.cache = new(capCache)
	} else {
		t.byNum = stripemap.New[ChannelNum, ChanRef](chanStripes, numHash, &met.ChannelLookupContention)
	}
	return t
}

// MissStatus is the status a failed lookup reports under the table's
// addressing mode.
func (t *chanTable) MissStatus() Status {
	if t.capMode {
		return StatusNotPermitted
	}
	return StatusNoSuchChannel
}

// register publishes a reference under its capability in capability
// mode, under its number otherwise: the one key lookup resolves.
func (t *chanTable) register(num ChannelNum, cp uid.UID, ref ChanRef) {
	if t.capMode {
		t.byCap.Store(cp, ref)
	} else {
		t.byNum.Store(num, ref)
	}
}

// unregister removes a channel's entry.  Per the stripemap staleness
// contract the entry may keep resolving until the next promotion; the
// generation check rejects it.
func (t *chanTable) unregister(num ChannelNum, cp uid.UID) {
	if t.capMode {
		t.byCap.Delete(cp)
	} else {
		t.byNum.Delete(num)
	}
}

// Lookup resolves id to a reference to a live record.  Its generation
// checks are lock-free prefilters: a retire can win the window between
// them and the caller's ChanRef.Lock, which is the check that counts.
func (t *chanTable) Lookup(id ChannelID) (ChanRef, Status) {
	var slot *capSlot
	ref, ok := ChanRef{}, false
	switch {
	case !t.capMode:
		ref, ok = t.byNum.Load(id.Num)
	case id.IsCap():
		slot = &t.cache.slots[id.Cap.Hash()&(capCacheSlots-1)]
		// Lock-free cache precheck; ChanRef.Lock re-verifies under Mu.
		if ref, ok = slot.load(id.Cap); ok && ref.C.gen.Load() == ref.gen {
			t.Met.CapabilityCacheHits.Inc()
			return ref, StatusOK
		}
		t.Met.CapabilityCacheMisses.Inc()
		ref, ok = t.byCap.Load(id.Cap)
	}
	// Lock-free liveness filter; ChanRef.Lock re-verifies under Mu.
	if !ok || ref.C.gen.Load() != ref.gen {
		return ChanRef{}, t.MissStatus()
	}
	if slot != nil {
		slot.store(id.Cap, ref)
	}
	return ref, StatusOK
}

// seqGate is a sink's lanes, one per windowed writer: the item offset
// of the writer's next delivery, which a delivery waits for (see
// ChanRef.Absorb).  It allocates nothing on the per-Deliver path: the
// common fan-in degrees live in an inline lane array (zero allocations,
// linear scan over four entries beats a map probe), and only a fan-in
// wider than the lanes spills to a map.  All methods are called under
// the owning record's Mu.
type seqLane struct {
	writer uid.UID
	next   int64
}

const seqGateLanes = 4

type seqGate struct {
	lanes [seqGateLanes]seqLane
	spill map[uid.UID]int64 // nil until fan-in exceeds the lanes
	held  int               // deliveries parked for their turn
}

// turn returns the item offset writer w's next delivery starts at (zero
// for a writer not yet seen — what the protocol relies on for a
// stream's first Deliver).
func (g *seqGate) turn(w uid.UID) int64 {
	for i := range g.lanes {
		if g.lanes[i].writer == w {
			return g.lanes[i].next
		}
	}
	if g.spill != nil {
		return g.spill[w]
	}
	return 0
}

// advance records that writer w's next delivery starts at offset next.
func (g *seqGate) advance(w uid.UID, next int64) {
	free := -1
	for i := range g.lanes {
		if g.lanes[i].writer == w {
			g.lanes[i].next = next
			return
		}
		if free < 0 && g.lanes[i].writer.IsNil() {
			free = i
		}
	}
	if g.spill != nil {
		if _, ok := g.spill[w]; ok {
			g.spill[w] = next
			return
		}
	}
	if free >= 0 {
		g.lanes[free] = seqLane{writer: w, next: next}
		return
	}
	if g.spill == nil {
		g.spill = make(map[uid.UID]int64)
	}
	g.spill[w] = next
}

// drop forgets writer w (its End mark arrived).
func (g *seqGate) drop(w uid.UID) {
	for i := range g.lanes {
		if g.lanes[i].writer == w {
			g.lanes[i] = seqLane{}
			return
		}
	}
	if g.spill != nil {
		delete(g.spill, w)
	}
}

// reset clears the gate for record reuse.
func (g *seqGate) reset() { *g = seqGate{} }
