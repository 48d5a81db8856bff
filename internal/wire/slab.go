// Refcounted slab buffers.  Frames on the parallel engine's links are
// carved out of large arena chunks instead of being allocated (and
// copied) per hop.  A carve returns a *view* — a sub-slice of a chunk —
// and any code that ends up holding a view can Release it without
// threading a slab handle through every channel type: the view's chunk
// is found from the slice's base address, and the chunk counts the
// handles on each of its views itself.  Code that does not know whether
// a slice is a view calls Release or Detach anyway: both are tolerant
// no-ops on ordinary heap slices.
//
// Bookkeeping is chunk-local, and in steady state nothing is allocated
// for it at all:
//
//   - A chunk keeps a table of its live views, sorted by the view's
//     offset in the chunk, each with the number of handles on it, under
//     the chunk's own mutex.  The table lives in an array inside the
//     chunk, room for a 64-item frame and the buffer it was read into;
//     only a chunk with more live views than that spills it to the heap.
//     A chunk that dies keeps its table, emptied, so a recycled chunk
//     never builds one again.
//   - One package-wide index lists every chunk that may still hold or
//     be given a view (the carve target, sealed chunks with live views,
//     the free lists), sorted by base address.  It changes only when a
//     chunk is created or dropped — once per chunk carved, not once per
//     view — and is rewritten in place under indexMu, inside a sequence
//     count readers validate against (a seqlock), so a lookup writes
//     nothing shared: it is a binary search between two loads of that
//     count, and with no slab in use a single load.  The slot array only
//     grows; an outgrown one is left to the GC.
//   - The index pins what it lists: a listed chunk's backing array stays
//     reachable, so its address range cannot be handed out again while
//     it is listed, and an address inside a listed range is inside that
//     chunk.  Addresses are compared as integers for ordering only and
//     never converted back to pointers.  A chunk is unlisted wherever it
//     is dropped for the GC: recycleLocked on a kept chunk, a closed slab
//     or a full free list, and Close for the free list and an
//     unreferenced carve target.  A sealed chunk of a closed slab, and a
//     kept one, is unlisted by the Release of its last view.
//
// Lifecycle rules (documented in DESIGN.md §8):
//
//   - Alloc returns a view holding one reference; RegisterSubview(v, v)
//     adds one.
//   - Release drops one reference.  A chunk recycles onto the slab's
//     free list once it is sealed (no longer being carved) and every
//     view carved from it has been released.
//   - Release/Detach must be passed the exact slice Alloc returned
//     (same base pointer); interior sub-slices are not tracked.
//   - Detach replaces "copy because someone downstream might retain
//     this".  A live view of SpliceCutoff bytes or more whose handle is
//     the caller's last is handed over in place: the handle is dropped
//     and the view's chunk is *kept*.  Any other live view comes back as
//     an ordinary heap copy, its handle released; anything else is
//     returned unchanged.  Bodies and sinks own what they are handed, so
//     views are detached at the library/user boundary and flow zero-copy
//     everywhere in between.  Off a socket only items of SpliceCutoff
//     bytes or more are views (the frame reader copies the smaller ones
//     into its Arena), so there Detach hands large items over and is one
//     index miss for the rest.  Arena copies, like every item a copying
//     Put stored, are heap slices to all of these calls.
//   - A kept chunk never goes back on the free list: the release that
//     empties it unlists it, and the GC frees it once the last slice
//     handed over in place is dropped.  Plumbing that forwards and
//     Releases recycles its chunks as before; only a chunk a body took
//     bytes from costs a fresh chunk, where a copy would cost every
//     item taken from it a malloc and a memmove.
//   - Detach counts one view's handles, not the other views over its
//     bytes: once a view is handed over in place, a RegisterSubview
//     owner or sub-view sharing those bytes is only ever Released.
//   - Close seals the slab and reports how many views are still
//     outstanding — the refcount audit pipelines run at Destroy.
package wire

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"asymstream/internal/metrics"
)

// DefaultChunkBytes is the arena chunk size used when NewSlab is given
// a non-positive size.
const DefaultChunkBytes = 64 * 1024

// maxFreeChunks bounds a slab's recycle list.
const maxFreeChunks = 4

// chunk is one arena block.  A chunk is in one of three states: the
// slab's carve target (cur), sealed with live views, or dead — parked
// on the free list or dropped — with an empty view table.  Any of the
// first two may also be kept, and a kept chunk is dropped when it dies.
type chunk struct {
	slab      *Slab
	base, end uintptr // buf's address range: ordering keys, never pointers
	buf       []byte  // len = bytes carved so far (under slab.mu), cap = chunk size

	mu     sync.Mutex
	views  []viewEntry // live views by offset; backed by table until it outgrows it
	sealed bool        // no longer the carve target, and some view is still live
	kept   bool        // a view was handed over in place; set under mu, settled once dead
	table  [chunkViews]viewEntry
}

// chunkViews is the room a chunk's view table has in the chunk: a frame
// of 64 large items read off a socket (BatchMax 64, the largest batch
// the shipped configurations run) and the buffer it was read into.
const chunkViews = 64 + 1

// viewEntry is one live view in its chunk's table: its offset and the
// handles on it (1 from Alloc, +1 per RegisterSubview at its base).
type viewEntry struct {
	off uint32
	n   int32
}

// find returns the position of the view at off in the table, or where
// it would go, and whether it is there.
func (c *chunk) find(off uint32) (int, bool) {
	lo, hi := 0, len(c.views)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); c.views[m].off < off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.views) && c.views[lo].off == off
}

// slot is one listed chunk and, beside it for the search, its address
// range.  Writers rewrite slots in place while readers search them, so
// every field is an atomic; a reader trusts what it read only if the
// sequence count did not move meanwhile.
type slot struct {
	base, end atomic.Uintptr
	c         atomic.Pointer[chunk]
}

func (s *slot) store(base, end uintptr, c *chunk) {
	s.base.Store(base)
	s.end.Store(end)
	s.c.Store(c)
}

func (s *slot) copyFrom(o *slot) { s.store(o.base.Load(), o.end.Load(), o.c.Load()) }

// The index findChunk searches: the first n slots of the slot array,
// sorted by base, where n is the low half of indexState and its high
// half is the sequence count, odd while a writer rewrites the slots.
// Writers hold indexMu; the slot array is replaced only to grow, and is
// published before the count that needs it.  Empty is n == 0, so the
// miss path of a process that holds no chunk is one load.
var (
	indexMu    sync.Mutex
	indexSlots atomic.Pointer[[]slot]
	indexState atomic.Uint64
)

const indexSeqOne = 1 << 32 // one step of the sequence count in indexState

// slotAfter returns the position of the first of slots whose base is
// above addr.  Written out, not slices.BinarySearchFunc: every Release
// and IsView of a slice inside some chunk's range runs it.
func slotAfter(slots []slot, addr uintptr) int {
	lo, hi := 0, len(slots)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); slots[m].base.Load() <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// findChunk returns the listed chunk containing b's base address and
// the offset of that address in it, or nil.  It trusts a search only if
// indexState read the same before and after it, with no rewrite open,
// and yields to the writer otherwise.
func findChunk(b []byte) (*chunk, uint32) {
	st := indexState.Load()
	if uint32(st) == 0 || len(b) == 0 {
		return nil, 0
	}
	addr := uintptr(unsafe.Pointer(&b[0]))
	for {
		var c *chunk
		var off uint32
		// A rewrite may be moving the first n slots, but the array holds n.
		slots := (*indexSlots.Load())[:uint32(st)]
		if i := slotAfter(slots, addr); i > 0 {
			if sl := &slots[i-1]; addr < sl.end.Load() {
				c, off = sl.c.Load(), uint32(addr-sl.base.Load())
			}
		}
		if st&indexSeqOne == 0 && indexState.Load() == st {
			return c, off
		}
		runtime.Gosched()
		if st = indexState.Load(); uint32(st) == 0 {
			return nil, 0
		}
	}
}

// listed returns the slot array and how many slots are listed.  A
// writer calls it under indexMu, before it opens a rewrite.
func listed() ([]slot, int) {
	n := int(uint32(indexState.Load()))
	if p := indexSlots.Load(); p != nil {
		return *p, n
	}
	return nil, n
}

// beginRewrite makes the sequence count odd: a reader that overlaps
// the rewrite it opens retries.
func beginRewrite() uint64 { return indexState.Add(indexSeqOne) }

// endRewrite closes the rewrite st opened, publishing n listed slots.
func endRewrite(st uint64, n int) {
	indexState.Store((st+indexSeqOne)&^(indexSeqOne-1) | uint64(n))
}

func listChunk(c *chunk) {
	indexMu.Lock()
	defer indexMu.Unlock()
	slots, n := listed()
	if n == len(slots) {
		// The copy is what readers would see in the old array, so it can
		// be published outside a rewrite.
		grown := make([]slot, max(16, 2*n))
		for j := range slots {
			grown[j].copyFrom(&slots[j])
		}
		slots = grown
		indexSlots.Store(&grown)
	}
	st := beginRewrite()
	i := slotAfter(slots[:n], c.base)
	for j := n; j > i; j-- {
		slots[j].copyFrom(&slots[j-1])
	}
	slots[i].store(c.base, c.end, c)
	endRewrite(st, n+1)
}

func unlistChunk(c *chunk) {
	indexMu.Lock()
	defer indexMu.Unlock()
	slots, n := listed()
	i := slotAfter(slots[:n], c.base) - 1
	if i < 0 || slots[i].c.Load() != c {
		return
	}
	st := beginRewrite()
	for j := i; j < n-1; j++ {
		slots[j].copyFrom(&slots[j+1])
	}
	slots[n-1].store(0, 0, nil) // no longer pins the chunk it held
	endRewrite(st, n-1)
}

// Slab is an arena that carves refcounted frame buffers.  One slab is
// shared per pipeline; Alloc is safe for concurrent producers.
//
// Lock order: Slab.mu, then a chunk's mu or indexMu (never both).
type Slab struct {
	chunkBytes  int
	met         *metrics.Set
	mu          sync.Mutex
	cur         *chunk
	free        []*chunk
	closed      bool
	outstanding atomic.Int64 // live handles on views carved from this slab
}

// NewSlab returns a slab carving chunks of the given size (bytes).
// met may be nil; when set, SlabRetained/SlabReleased/SlabLeaked are
// maintained on it.  A slab must be Closed: until then its carve
// target and free list stay in the address index, and so reachable.
func NewSlab(met *metrics.Set, chunkBytes int) *Slab {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	return &Slab{chunkBytes: chunkBytes, met: met}
}

func (s *Slab) newChunk(size int) *chunk {
	buf := make([]byte, 0, size)
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	c := &chunk{slab: s, buf: buf, base: base, end: base + uintptr(size)}
	c.views = c.table[:0]
	listChunk(c)
	return c
}

// Alloc carves an n-byte view holding one reference.  Zero-length
// requests return nil (untracked).  Requests larger than the chunk
// size get a dedicated chunk.
func (s *Slab) Alloc(n int) []byte {
	if n <= 0 {
		return nil
	}
	if uint64(n) > math.MaxUint32 {
		return make([]byte, n) // offsets are 32-bit; a plain slice is a valid non-view
	}
	s.mu.Lock()
	c := s.cur
	switch {
	case s.closed:
		// Nobody will seal a carve target again: a dedicated chunk, born
		// sealed below, is unlisted by the release of this one view.
		c = s.newChunk(n)
	case c == nil || len(c.buf)+n > cap(c.buf):
		s.sealCurLocked()
		if k := len(s.free); k > 0 && n <= cap(s.free[k-1].buf) {
			c = s.free[k-1]
			s.free[k-1] = nil
			s.free = s.free[:k-1]
		} else {
			c = s.newChunk(max(n, s.chunkBytes))
		}
		s.cur = c
	}
	off := len(c.buf)
	c.buf = c.buf[:off+n]
	view := c.buf[off : off+n : off+n]
	c.mu.Lock()
	c.addLocked(uint32(off))
	if s.closed {
		c.sealed = true
	}
	c.mu.Unlock()
	s.mu.Unlock()

	s.noteRetained(1)
	return view
}

// addLocked adds one handle on the view at off, tracking it if it was
// not.
func (c *chunk) addLocked(off uint32) {
	i, ok := c.find(off)
	if ok {
		c.views[i].n++
		return
	}
	c.views = slices.Insert(c.views, i, viewEntry{off, 1})
}

func (s *Slab) sealCurLocked() {
	c := s.cur
	if c == nil {
		return
	}
	s.cur = nil
	c.mu.Lock()
	dead := len(c.views) == 0
	if !dead {
		c.sealed = true // the last release recycles it
	}
	c.mu.Unlock()
	if dead {
		s.recycleLocked(c)
	}
}

// recycleLocked parks a dead chunk on the free list, or drops it —
// unlisted, so the GC can reclaim it — when it is kept, the slab is
// closed or the list is full.
func (s *Slab) recycleLocked(c *chunk) {
	if c.kept || s.closed || len(s.free) >= maxFreeChunks {
		unlistChunk(c)
		return
	}
	c.buf = c.buf[:0]
	s.free = append(s.free, c)
}

func (s *Slab) noteRetained(n int64) {
	s.outstanding.Add(n)
	if s.met != nil {
		s.met.SlabRetained.Add(n)
	}
}

// Close seals the slab and returns the number of views still
// outstanding (leaked if nobody is going to release them).  Late
// releases still work — their chunks are simply dropped to the GC
// instead of being recycled.  Close is idempotent; only the first call
// charges SlabLeaked.
func (s *Slab) Close() int64 {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.outstanding.Load()
	}
	s.closed = true
	s.sealCurLocked()
	for _, c := range s.free {
		unlistChunk(c)
	}
	s.free = nil
	s.mu.Unlock()
	leaked := s.outstanding.Load()
	if s.met != nil && leaked > 0 {
		s.met.SlabLeaked.Add(leaked)
	}
	return leaked
}

// Outstanding returns the number of live views carved from this slab.
func (s *Slab) Outstanding() int64 { return s.outstanding.Load() }

// IsView reports whether b is (the base of) a live slab view.
func IsView(b []byte) bool {
	c, off := findChunk(b)
	if c == nil {
		return false
	}
	c.mu.Lock()
	_, ok := c.find(off)
	c.mu.Unlock()
	return ok
}

// Release drops one reference from a view, recycling its chunk when it
// was the last reference on a sealed chunk.  It reports whether b was
// a live view; on ordinary slices (or an already-released view) it is
// a tolerant no-op.
func Release(b []byte) bool {
	if c, off := findChunk(b); c != nil {
		live, _ := c.release(off, false)
		return live
	}
	return false
}

// release is Release on a chunk already found: it reports whether off
// was a live view's.  With keep it drops only a last handle, handing
// the view over in place and keeping the chunk (kept reports that), and
// leaves a handle others share alone.
func (c *chunk) release(off uint32, keep bool) (live, kept bool) {
	c.mu.Lock()
	i, ok := c.find(off)
	if !ok || keep && c.views[i].n > 1 {
		c.mu.Unlock()
		return ok, false
	}
	dead := false
	if c.views[i].n > 1 {
		c.views[i].n--
	} else {
		c.views = slices.Delete(c.views, i, i+1)
		c.kept = c.kept || keep
		// The last view of a sealed chunk: nothing can reach the chunk
		// through its table again, so it is this caller's to recycle.
		dead = c.sealed && len(c.views) == 0
		if dead {
			c.sealed = false
		}
	}
	c.mu.Unlock()
	s := c.slab
	s.outstanding.Add(-1)
	if s.met != nil {
		s.met.SlabReleased.Inc()
	}
	if dead {
		s.mu.Lock()
		s.recycleLocked(c)
		s.mu.Unlock()
	}
	return true, keep
}

// ReleaseAll releases every view in items (tolerant of non-views) and
// returns how many were live views.
func ReleaseAll(items [][]byte) int {
	n := 0
	for _, it := range items {
		if Release(it) {
			n++
		}
	}
	return n
}

// RegisterSubview promotes sub — a slice of the live view owner — to a
// tracked view in its own right, holding one reference of its own on
// owner's chunk.  After registration, sub participates in the normal
// Release/Detach lifecycle independently of owner: releasing
// owner does not invalidate sub, and the chunk recycles only when both
// are gone.  This is how the transport's read loop hands the large
// items of a decoded frame to ports with ownership transfer instead of
// a copy: they alias the receive buffer, and each carries its own
// refcount.
//
// Preconditions (the frame layout guarantees both): sub must lie
// within owner's chunk, and sub's base pointer must not collide with
// any other live view except owner itself (frame items are disjoint
// and each is preceded by at least one length byte).  When sub shares
// owner's base pointer it adds one reference to owner: the way to take
// an extra handle on a view.  It reports
// whether owner was a live view; on ordinary slices it is a tolerant
// no-op and sub stays an untracked alias, as does a sub outside
// owner's chunk.
//
// Owner and sub share bytes, and Detach may hand either over in place
// (see its doc): an owner whose sub-views may be handed over must from
// then on only be Released, never Detached, and the sub-views' bytes
// never read through it.
func RegisterSubview(owner, sub []byte) bool {
	if len(sub) == 0 {
		return false
	}
	one := [1][]byte{sub}
	return registerSubviews(owner, one[:])
}

// registerSubviews is RegisterSubview for every non-empty slice of
// subs at once: one chunk lookup and one lock acquisition, however
// many there are.  Slices outside owner's chunk are skipped.
func registerSubviews(owner []byte, subs [][]byte) bool {
	c, off := findChunk(owner)
	if c == nil {
		return false
	}
	n := int64(0)
	c.mu.Lock()
	_, ok := c.find(off)
	if ok {
		for _, sub := range subs {
			if len(sub) == 0 {
				continue
			}
			if addr := uintptr(unsafe.Pointer(&sub[0])); addr >= c.base && addr < c.end {
				c.addLocked(uint32(addr - c.base))
				n++
			}
		}
	}
	c.mu.Unlock()
	if n > 0 {
		c.slab.noteRetained(n)
	}
	return ok
}

// Detach converts b into a slice the caller owns outright, at the
// boundary where items leave library-controlled lifetimes (user bodies,
// collecting sinks).  A live view of SpliceCutoff bytes or more whose
// handle is the caller's last is handed over in place: the handle is
// dropped, and its chunk is kept — never recycled, so nothing else is
// ever carved over those bytes — and left to the GC once its last view
// goes.  Any other live view — a smaller one, or one others still hold —
// is copied out and its handle released.  Anything else — a heap slice,
// an item the frame reader already copied out, a view already released
// — is returned unchanged.
//
// Detach counts the handles on b alone; it does not look for other live
// views over the same bytes (a RegisterSubview owner and its sub-views).
// So once it hands a view over in place, any other view sharing those
// bytes must only be Released — never Detached or used as an owner
// again, and those bytes never read through it.  The frame reader keeps
// to this: its read buffer, the owner of every large item it hands out,
// is only ever Released, and read or written only past those items.
func Detach(b []byte) []byte {
	c, off := findChunk(b)
	if c == nil {
		return b
	}
	if len(b) >= SpliceCutoff {
		live, kept := c.release(off, true)
		if kept {
			return b[:len(b):len(b)]
		}
		if !live {
			return b
		}
	}
	// The caller's handle keeps the bytes in place until it is released;
	// copying first saves a second pass through the chunk's table.  An
	// address inside a chunk that is not a live view's base wastes the
	// copy.
	out := append([]byte(nil), b...)
	if live, _ := c.release(off, false); !live {
		return b
	}
	return out
}
