// Package stripemap implements the striped, RCU-style lookup table
// behind the million-channel control plane: the kernel's UID→binding
// map and the transput ports' capability→channel maps.
//
// The structure extends the lock-free snapshot idiom the PR-1 fast
// path introduced for channel lookup (an atomic pointer to an
// immutable map, republished on mutation).  A whole-map copy per
// mutation is fine when mutations are rare Declares, but at gateway
// scale — millions of Create/Resolve/teardown operations — it is
// O(n) per insert.  Two changes make it scale:
//
//  1. Striping.  Keys hash to one of a power-of-two number of
//     independent stripes, so writers on different stripes never
//     contend and a snapshot copy touches only one stripe's share of
//     the table.
//
//  2. Amortised copy-on-write (the sync.Map promotion discipline).
//     Each stripe holds an immutable read snapshot (lock-free hits)
//     plus a locked dirty overlay for recent writes.  A read miss on
//     an amended snapshot falls back to the overlay under the stripe
//     lock; after enough misses the overlay is *promoted* — published
//     as the next immutable snapshot — so the slow path self-heals.
//     Writes are O(1) amortised: the overlay is recreated by one
//     stripe-sized copy per promotion cycle, paid for by the misses
//     that forced the promotion.
//
// Staleness contract: Load may keep returning a value after Delete
// until the next promotion drops it from the snapshot.  Callers must
// therefore carry liveness on the value itself — the kernel checks
// the binding's lifecycle state, the transput ports check the channel
// record's generation — exactly as they already must for a value
// obtained an instant before a concurrent delete.
package stripemap

import (
	"sync"
	"sync/atomic"

	"asymstream/internal/metrics"
)

// snap is one stripe's immutable read view.  m is never mutated after
// publication; amended reports whether the locked overlay holds keys
// (or deletions) the snapshot does not reflect, i.e. whether a miss
// here is authoritative.
type snap[K comparable, V any] struct {
	m       map[K]V
	amended bool
}

// stripe is one lock domain.  The trailing pad keeps neighbouring
// stripes on distinct cache lines so a create storm on stripe i does
// not false-share the snapshot pointer of stripe i+1.
type stripe[K comparable, V any] struct {
	read atomic.Pointer[snap[K, V]]

	mu     sync.Mutex
	dirty  map[K]V // nil when read is authoritative
	misses int

	_ [64]byte
}

// Map is a striped hash table with lock-free read hits.  The zero
// value is not usable; construct with New.
type Map[K comparable, V any] struct {
	mask    uint64
	hash    func(K) uint64
	stripes []stripe[K, V]
	// contention, when non-nil, counts slow-path lookups — loads that
	// missed the snapshot and had to take a stripe lock.
	contention *metrics.Counter
}

// New creates a Map with the given stripe count (rounded up to a
// power of two, minimum 1) and key hash.  contention may be nil.
func New[K comparable, V any](stripes int, hash func(K) uint64, contention *metrics.Counter) *Map[K, V] {
	n := 1
	for n < stripes {
		n <<= 1
	}
	m := &Map[K, V]{
		mask:       uint64(n - 1),
		hash:       hash,
		stripes:    make([]stripe[K, V], n),
		contention: contention,
	}
	for i := range m.stripes {
		m.stripes[i].read.Store(&snap[K, V]{})
	}
	return m
}

func (m *Map[K, V]) stripeFor(k K) *stripe[K, V] {
	return &m.stripes[m.hash(k)&m.mask]
}

// Load returns the value for k.  A snapshot hit (the steady state) is
// one atomic load and one map read — no lock.  A miss on an amended
// snapshot takes the stripe lock, consults the overlay, and counts
// toward promotion.
func (m *Map[K, V]) Load(k K) (V, bool) {
	s := m.stripeFor(k)
	r := s.read.Load()
	if v, ok := r.m[k]; ok {
		return v, true
	}
	if !r.amended {
		var zero V
		return zero, false
	}
	if m.contention != nil {
		m.contention.Inc()
	}
	s.mu.Lock()
	// Reload under the lock: a promotion may have raced us.
	r = s.read.Load()
	v, ok := r.m[k]
	if !ok && r.amended {
		v, ok = s.dirty[k]
		s.missLocked()
	}
	s.mu.Unlock()
	return v, ok
}

// missLocked records one slow-path miss and promotes the overlay to
// the read snapshot once misses reach the overlay size.  Caller holds
// s.mu with s.dirty non-nil.
func (s *stripe[K, V]) missLocked() {
	s.misses++
	if s.misses >= len(s.dirty) {
		s.read.Store(&snap[K, V]{m: s.dirty})
		s.dirty = nil
		s.misses = 0
	}
}

// dirtyLocked returns the overlay, materialising it from the current
// snapshot on first write after a promotion.  Caller holds s.mu.
func (s *stripe[K, V]) dirtyLocked() map[K]V {
	if s.dirty == nil {
		r := s.read.Load()
		s.dirty = make(map[K]V, len(r.m)+1)
		for k, v := range r.m {
			s.dirty[k] = v
		}
		s.read.Store(&snap[K, V]{m: r.m, amended: true})
	}
	return s.dirty
}

// storeLocked writes k into the overlay.  Caller holds s.mu.
func (s *stripe[K, V]) storeLocked(k K, v V) {
	d := s.dirtyLocked()
	d[k] = v
	if _, inRead := s.read.Load().m[k]; inRead {
		// The snapshot holds a superseded (or deleted) value and would
		// keep serving it lock-free; promote the overlay immediately so
		// the write is visible.  Rare in this repo's workloads — UIDs
		// and capabilities are almost never rebound — so the eager
		// promotion costs nothing on the hot paths.
		s.read.Store(&snap[K, V]{m: d})
		s.dirty = nil
		s.misses = 0
	}
}

// Store sets k to v.
func (m *Map[K, V]) Store(k K, v V) {
	s := m.stripeFor(k)
	s.mu.Lock()
	s.storeLocked(k, v)
	s.mu.Unlock()
}

// LoadOrStore returns the existing value for k if present; otherwise
// it stores v.  loaded reports which happened.  The check-and-insert
// is atomic per stripe — this is how the kernel keeps "UID already
// bound" exact without a table-wide lock.
func (m *Map[K, V]) LoadOrStore(k K, v V) (actual V, loaded bool) {
	s := m.stripeFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	// When the overlay exists it alone is authoritative: the snapshot may
	// still hold a key Delete has removed (the staleness contract licenses
	// a stale Load, not resurrecting the deleted value here).
	view := s.dirty
	if view == nil {
		view = s.read.Load().m
	}
	if cur, ok := view[k]; ok {
		return cur, true
	}
	s.storeLocked(k, v)
	return v, false
}

// Delete removes k.  The read snapshot may keep serving the old value
// until the next promotion (see the staleness contract above).
func (m *Map[K, V]) Delete(k K) {
	s := m.stripeFor(k)
	s.mu.Lock()
	delete(s.dirtyLocked(), k)
	s.mu.Unlock()
}

// Range calls f for every entry until f returns false.  It observes
// each stripe's authoritative view (overlay when amended), one stripe
// lock at a time; entries stored concurrently may or may not appear.
func (m *Map[K, V]) Range(f func(k K, v V) bool) {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		var view map[K]V
		if s.dirty != nil {
			view = s.dirty
		} else {
			view = s.read.Load().m
		}
		// Copy the stripe's entries so f runs outside the stripe lock
		// (f may call back into the map, or take locks ordered after
		// ours).
		type kv struct {
			k K
			v V
		}
		entries := make([]kv, 0, len(view))
		for k, v := range view {
			entries = append(entries, kv{k, v})
		}
		s.mu.Unlock()
		for _, e := range entries {
			if !f(e.k, e.v) {
				return
			}
		}
	}
}

// Len reports the number of live entries (authoritative views summed
// across stripes).
func (m *Map[K, V]) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		if s.dirty != nil {
			n += len(s.dirty)
		} else {
			n += len(s.read.Load().m)
		}
		s.mu.Unlock()
	}
	return n
}
