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
//     plus a locked overlay of the writes since it was made: new keys
//     with their values, and tombstones for snapshot keys deleted
//     since.  A live key is held once, in one or the other; only a
//     deleted key is held twice until the next promotion.  A read miss
//     on an amended snapshot falls back to the overlay under the stripe
//     lock.  *Promotion* merges the overlay into a fresh snapshot: one
//     stripe-sized copy, paid for by as many misses (the slow path
//     heals itself) or by the deletes that made its tombstones a fixed
//     share of the snapshot (churn that nobody looks up cannot grow the
//     overlay without limit).  Writes are O(1) amortised.
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
// publication; amended reports whether the locked overlay holds writes
// the snapshot does not reflect, i.e. whether a miss here is not
// authoritative.
type snap[K comparable, V any] struct {
	m       map[K]V
	amended bool
}

// A stripe promotes once its overlay holds minDead tombstones and
// a 1/deadShare part of its snapshot's count.  So a merge copies at most
// deadShare snapshot entries a delete, and a stripe holds fewer than
// live + 2·max(minDead, live/(deadShare−1)) entries for its live keys
// (a tombstone and its dead snapshot key are the only waste).
const (
	deadShare = 16
	minDead   = 8
)

// stripe is one lock domain.  The trailing pad keeps neighbouring
// stripes on distinct cache lines so a create storm on stripe i does
// not false-share the snapshot pointer of stripe i+1.
type stripe[K comparable, V any] struct {
	read atomic.Pointer[snap[K, V]]

	mu sync.Mutex
	// dirty is the overlay, nil when read is authoritative.  A key it
	// shares with the snapshot is a tombstone (its value is unused): a
	// live value for a snapshot key is never held here, because storing
	// one promotes at once.
	dirty  map[K]V
	dead   int // tombstones in dirty
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
		v, ok = s.dirty[k] // k is not in the snapshot, so not a tombstone
		s.misses++
		if s.misses >= len(r.m)+len(s.dirty) {
			s.publishLocked(s.mergedLocked())
		}
	}
	s.mu.Unlock()
	return v, ok
}

// mergedLocked returns a fresh map of the stripe's live entries — the
// snapshot with the overlay applied — sized to hold them.  Promotion
// publishes it.  Caller holds s.mu.
func (s *stripe[K, V]) mergedLocked() map[K]V {
	m := make(map[K]V, s.lenLocked())
	s.viewLocked(func(k K, v V) { m[k] = v })
	return m
}

// lenLocked is the stripe's live entry count.  Caller holds s.mu.
func (s *stripe[K, V]) lenLocked() int {
	return len(s.read.Load().m) + len(s.dirty) - 2*s.dead
}

// publishLocked makes m the stripe's authoritative snapshot and drops
// the overlay.  Caller holds s.mu.
func (s *stripe[K, V]) publishLocked(m map[K]V) {
	s.read.Store(&snap[K, V]{m: m})
	s.dirty, s.dead, s.misses = nil, 0, 0
}

// overlayLocked returns the overlay, creating it (and marking the
// snapshot amended) on the first write after a promotion.  Caller holds
// s.mu.
func (s *stripe[K, V]) overlayLocked() map[K]V {
	if s.dirty == nil {
		s.dirty = make(map[K]V)
		s.read.Store(&snap[K, V]{m: s.read.Load().m, amended: true})
	}
	return s.dirty
}

// storeLocked writes k.  Caller holds s.mu.
func (s *stripe[K, V]) storeLocked(k K, v V) {
	if _, inRead := s.read.Load().m[k]; !inRead {
		s.overlayLocked()[k] = v
		return
	}
	// The snapshot holds a superseded (or deleted) value and would keep
	// serving it lock-free; promote at once, with the new value, so the
	// write is visible.  Rare in this repo's workloads — UIDs and
	// capabilities are almost never rebound — so the eager promotion
	// costs nothing on the hot paths.
	if _, dead := s.dirty[k]; dead {
		delete(s.dirty, k)
		s.dead--
	}
	m := s.mergedLocked()
	m[k] = v
	s.publishLocked(m)
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
	// A tombstone hides the snapshot's value: the staleness contract
	// licenses a stale Load, not resurrecting the deleted value here.
	cur, inRead := s.read.Load().m[k]
	ov, inDirty := s.dirty[k]
	switch {
	case inRead && !inDirty:
		return cur, true
	case inDirty && !inRead:
		return ov, true
	}
	s.storeLocked(k, v)
	return v, false
}

// Delete removes k.  The read snapshot may keep serving the old value
// until the next promotion (see the staleness contract above).
func (m *Map[K, V]) Delete(k K) {
	s := m.stripeFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.read.Load()
	if _, inRead := r.m[k]; !inRead {
		delete(s.dirty, k) // stored since the snapshot: nothing to hide
		return
	}
	if _, dead := s.dirty[k]; dead {
		return
	}
	var zero V
	s.overlayLocked()[k] = zero
	s.dead++
	if s.dead >= minDead && s.dead*deadShare >= len(r.m) {
		s.publishLocked(s.mergedLocked())
	}
}

// viewLocked calls f for every live entry of the stripe: the snapshot
// less its tombstones, then the overlay's new keys.  Caller holds s.mu.
func (s *stripe[K, V]) viewLocked(f func(k K, v V)) {
	r := s.read.Load()
	for k, v := range r.m {
		if _, dead := s.dirty[k]; !dead {
			f(k, v)
		}
	}
	for k, v := range s.dirty {
		if _, dead := r.m[k]; !dead {
			f(k, v)
		}
	}
}

// Range calls f for every entry until f returns false.  It observes
// each stripe's authoritative view (the snapshot with the overlay
// applied), one stripe lock at a time; entries stored concurrently may
// or may not appear.
func (m *Map[K, V]) Range(f func(k K, v V) bool) {
	type kv struct {
		k K
		v V
	}
	var entries []kv
	for i := range m.stripes {
		s := &m.stripes[i]
		// Copy the stripe's entries so f runs outside the stripe lock
		// (f may call back into the map, or take locks ordered after
		// ours).
		entries = entries[:0]
		s.mu.Lock()
		s.viewLocked(func(k K, v V) { entries = append(entries, kv{k, v}) })
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
		n += s.lenLocked()
		s.mu.Unlock()
	}
	return n
}
