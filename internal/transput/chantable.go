package transput

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
// retire.  Everything that holds a reference across time — the
// application-side writer/reader handle, a table entry, a capability
// cache entry — captures the gen it was issued under and revalidates
// before use; the authoritative check is under mu.  This is what makes
// both the stripemap staleness contract (deletes visible lazily) and
// sync.Pool reuse safe: a stale reference cannot touch the wrong
// stream, it can only observe "generation moved on" and fail cleanly.
//
// Waiter discipline: every cond.Wait goes through wait(), so retire
// can tell whether any kernel worker is still parked inside the
// record.  A record is returned to its pool only when waiters == 0;
// otherwise it is left to the GC (rare — retire broadcasts first, so
// waiters drain promptly).
//
// The trailing pad keeps the hot lock word and generation off the
// cache line of whatever the allocator packs next to the record, so a
// million idle records do not false-share under concurrent lookup
// validation; it also makes the per-record footprint a stable number
// the gateway bench can report.
type chanCore struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiters int
	gen     atomic.Uint64

	_ [64]byte
}

// generation is the lock-free read of the current generation.
func (c *chanCore) generation() uint64 { return c.gen.Load() }

// wait parks the caller on cond with waiter accounting.  Caller holds
// mu (as for cond.Wait).
func (c *chanCore) wait() {
	c.waiters++
	c.cond.Wait()
	c.waiters--
}

// tableEntry binds a record to the generation it was declared under.
// A lookup that finds the record but not the generation is stale — the
// channel was retired (and the record possibly reissued) after this
// entry was written.
type tableEntry struct {
	ch  *channel
	gen uint64
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
	ch     atomic.Pointer[channel]
	gen    atomic.Uint64
}

// load returns the record and generation cached for cp, if the slot
// holds cp's entry and no writer was in it.
func (s *capSlot) load(cp uid.UID) (*channel, uint64, bool) {
	seq := s.seq.Load()
	hi, lo, ch, gen := s.hi.Load(), s.lo.Load(), s.ch.Load(), s.gen.Load()
	if seq&1 != 0 || s.seq.Load() != seq || ch == nil || hi != cp.Hi || lo != cp.Lo {
		return nil, 0, false
	}
	return ch, gen, true
}

// store installs an entry, evicting the slot's last.  A writer that
// finds another in the slot gives up: the cache is lossy by contract.
func (s *capSlot) store(cp uid.UID, ch *channel, gen uint64) {
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.hi.Store(cp.Hi)
	s.lo.Store(cp.Lo)
	s.ch.Store(ch)
	s.gen.Store(gen)
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

// chanTable is a port's channel registry: striped lookup maps plus the
// capability cache.  All methods are safe for concurrent use.
type chanTable struct {
	capMode bool
	met     *metrics.Set

	byNum *stripemap.Map[ChannelNum, tableEntry]
	byCap *stripemap.Map[uid.UID, tableEntry] // nil unless capMode
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
	t := chanTable{
		capMode: capMode,
		met:     met,
		byNum:   stripemap.New[ChannelNum, tableEntry](chanStripes, numHash, &met.ChannelLookupContention),
	}
	if capMode {
		t.byCap = stripemap.New[uid.UID, tableEntry](chanStripes, uid.UID.Hash, &met.ChannelLookupContention)
		t.cache = new(capCache)
	}
	return t
}

// missStatus is the status a failed lookup reports under the table's
// addressing mode.
func (t *chanTable) missStatus() Status {
	if t.capMode {
		return StatusNotPermitted
	}
	return StatusNoSuchChannel
}

// register publishes a record under its number (and capability, in
// capability mode) at generation gen.
func (t *chanTable) register(num ChannelNum, cp uid.UID, ch *channel, gen uint64) {
	e := tableEntry{ch: ch, gen: gen}
	t.byNum.Store(num, e)
	if t.capMode {
		t.byCap.Store(cp, e)
	}
}

// unregister removes a channel's entries.  Per the stripemap staleness
// contract the entries may keep resolving until the next promotion;
// the generation check rejects them.
func (t *chanTable) unregister(num ChannelNum, cp uid.UID) {
	t.byNum.Delete(num)
	if t.capMode {
		t.byCap.Delete(cp)
	}
}

// lookup resolves id to a live record and the generation it must still
// carry.  Callers re-verify gen under the record's lock before acting
// (the window between this check and the lock is exactly the window a
// concurrent retire could win).
func (t *chanTable) lookup(id ChannelID) (*channel, uint64, Status) {
	if t.capMode {
		if !id.IsCap() {
			return nil, 0, StatusNotPermitted
		}
		slot := &t.cache.slots[id.Cap.Hash()&(capCacheSlots-1)]
		ch, gen, cached := slot.load(id.Cap)
		//vet:ok epochguard -- lock-free cache precheck; callers re-verify gen under ch.mu before acting
		if cached && ch.generation() == gen {
			t.met.CapabilityCacheHits.Inc()
			return ch, gen, StatusOK
		}
		t.met.CapabilityCacheMisses.Inc()
		ent, ok := t.byCap.Load(id.Cap)
		//vet:ok epochguard -- lock-free liveness filter; authoritative check runs in callers under ch.mu
		if !ok || ent.ch.generation() != ent.gen {
			return nil, 0, StatusNotPermitted
		}
		slot.store(id.Cap, ent.ch, ent.gen)
		return ent.ch, ent.gen, StatusOK
	}
	ent, ok := t.byNum.Load(id.Num)
	//vet:ok epochguard -- lock-free liveness filter; authoritative check runs in callers under ch.mu
	if !ok || ent.ch.generation() != ent.gen {
		return nil, 0, StatusNoSuchChannel
	}
	return ent.ch, ent.gen, StatusOK
}

// seqGate is a sink's lanes, one per windowed writer: the item offset
// of the writer's next delivery, which a delivery waits for (see
// channel.absorb).  It allocates nothing on the per-Deliver path: the
// common fan-in degrees live in an inline lane array (zero allocations,
// linear scan over four entries beats a map probe), and only a fan-in
// wider than the lanes spills to a map.  All methods are called under
// the owning record's mu.
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
