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
// Bookkeeping is chunk-local; nothing is allocated per view:
//
//   - A chunk keeps a table of its live views, keyed by the view's
//     offset in the chunk, holding the number of handles on it, under
//     the chunk's own mutex.  The table is dropped when the last view of
//     a sealed chunk goes, so a parked chunk carries none.
//   - One package-wide index lists every chunk that may still hold or
//     be given a view (the carve target, sealed chunks with live views,
//     the free lists), sorted by base address.  It is copy-on-write and
//     changes only when a chunk is created or dropped — once per chunk
//     carved, not once per view — so a lookup is one atomic load and a
//     binary search, and with no slab in use a single load.
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
//   - Alloc returns a view holding one reference; Retain adds one.
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
// on the free list or dropped — with no view table.  Any of the first
// two may also be kept, and a kept chunk is dropped when it dies.
type chunk struct {
	slab      *Slab
	base, end uintptr // buf's address range: ordering keys, never pointers
	buf       []byte  // len = bytes carved so far (under slab.mu), cap = chunk size

	mu     sync.Mutex
	views  map[uint32]int32 // live view's offset → handles on it (1 from Alloc, +1 per Retain)
	sealed bool             // no longer the carve target, and some view is still live
	kept   bool             // a view was handed over in place; set under mu, settled once dead
}

// span is a listed chunk and, beside it for the search, its address
// range.
type span struct {
	base, end uintptr
	c         *chunk
}

// index is the sorted list of chunks findChunk searches.  Readers load
// it; writers replace it under indexMu and never modify a published
// slice.  Empty is nil, so the miss path of a process that holds no
// chunk is one load.
var (
	indexMu sync.Mutex
	index   atomic.Pointer[[]span]
)

func listedSpans() []span {
	if p := index.Load(); p != nil {
		return *p
	}
	return nil
}

// spanAfter returns the position of the first span whose base is above
// addr.  Written out, not slices.BinarySearchFunc: every Release and
// IsView of a slice inside some chunk's range runs it.
func spanAfter(spans []span, addr uintptr) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); spans[m].base <= addr {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// findChunk returns the listed chunk containing b's base address and
// the offset of that address in it, or nil.
func findChunk(b []byte) (*chunk, uint32) {
	spans := listedSpans()
	if len(spans) == 0 || len(b) == 0 {
		return nil, 0
	}
	addr := uintptr(unsafe.Pointer(&b[0]))
	i := spanAfter(spans, addr)
	if i == 0 || addr >= spans[i-1].end {
		return nil, 0
	}
	sp := &spans[i-1]
	return sp.c, uint32(addr - sp.base)
}

func listChunk(c *chunk) {
	indexMu.Lock()
	defer indexMu.Unlock()
	old := listedSpans()
	next := slices.Insert(slices.Clone(old), spanAfter(old, c.base), span{c.base, c.end, c})
	index.Store(&next)
}

func unlistChunk(c *chunk) {
	indexMu.Lock()
	defer indexMu.Unlock()
	old := listedSpans()
	i := spanAfter(old, c.base) - 1
	if i < 0 || old[i].c != c {
		return
	}
	if len(old) == 1 {
		index.Store(nil)
		return
	}
	next := slices.Delete(slices.Clone(old), i, i+1)
	index.Store(&next)
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
	if c.views == nil {
		c.views = make(map[uint32]int32)
	}
	c.views[off]++
}

func (s *Slab) sealCurLocked() {
	c := s.cur
	if c == nil {
		return
	}
	s.cur = nil
	c.mu.Lock()
	dead := len(c.views) == 0
	if dead {
		c.views = nil
	} else {
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
	_, ok := c.views[off]
	c.mu.Unlock()
	return ok
}

// Retain adds a reference to a live view.  It reports whether b was a
// view; on ordinary slices it is a no-op.
func Retain(b []byte) bool {
	c, off := findChunk(b)
	if c == nil {
		return false
	}
	c.mu.Lock()
	n, ok := c.views[off]
	if ok {
		c.views[off] = n + 1
	}
	c.mu.Unlock()
	if ok {
		c.slab.noteRetained(1)
	}
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
	n, ok := c.views[off]
	if !ok || keep && n > 1 {
		c.mu.Unlock()
		return ok, false
	}
	dead := false
	if n > 1 {
		c.views[off] = n - 1
	} else {
		delete(c.views, off)
		c.kept = c.kept || keep
		// The last view of a sealed chunk: nothing can reach the chunk
		// through its table again, so it is this caller's to recycle.
		dead = c.sealed && len(c.views) == 0
		if dead {
			c.views, c.sealed = nil, false
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
// Retain/Release/Detach lifecycle independently of owner: releasing
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
// owner's base pointer this degenerates to Retain(owner).  It reports
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
	_, ok := c.views[off]
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
