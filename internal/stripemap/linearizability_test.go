package stripemap

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"asymstream/internal/metrics"
)

// The table's oracle: goroutines run random histories of every
// operation against one Map, and each key's history must be
// linearizable against a sequential reference with sync.Map's
// semantics, relaxed by exactly the package's staleness contract.

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opLoadOrStore
	opDelete
	opRange // one Range's view of one key
)

// event is one completed operation on one key.  call and ret are
// ticks of one shared clock, so a.ret < b.call means a finished before
// b began.
type event struct {
	kind      opKind
	key       int
	arg       int  // the value Stored or offered to LoadOrStore
	val       int  // the value Load, LoadOrStore or Range returned
	ok        bool // Load, Range: found; LoadOrStore: loaded
	call, ret int64
}

func (e event) String() string {
	at := fmt.Sprintf("[%d,%d] ", e.call, e.ret)
	switch e.kind {
	case opStore:
		return at + fmt.Sprintf("Store(%#x)", e.arg)
	case opDelete:
		return at + "Delete"
	case opLoadOrStore:
		return at + fmt.Sprintf("LoadOrStore(%#x) = %#x, %v", e.arg, e.val, e.ok)
	case opRange:
		return at + fmt.Sprintf("Range sees %#x, %v", e.val, e.ok)
	}
	return at + fmt.Sprintf("Load = %#x, %v", e.val, e.ok)
}

// refState is the reference for one key: sync.Map's state, plus the
// value the last Delete removed, which the staleness contract lets a
// Load keep returning until a Load misses (the promotion that drops it
// has happened) or a write replaces it (a write to a key the snapshot
// still holds promotes at once).
type refState struct {
	val, stale        int
	present, hasStale bool
}

// step applies e to s and reports whether e's result is one the
// reference allows.
func (s refState) step(e event) (refState, bool) {
	switch e.kind {
	case opStore:
		return refState{val: e.arg, present: true}, true
	case opLoadOrStore:
		if s.present {
			return s, e.ok && e.val == s.val
		}
		return refState{val: e.arg, present: true}, !e.ok && e.val == e.arg
	case opDelete:
		if s.present {
			return refState{stale: s.val, hasStale: true}, true
		}
		return s, true
	case opRange: // the authoritative view: never stale
		if s.present {
			return s, e.ok && e.val == s.val
		}
		return s, !e.ok
	}
	switch {
	case s.present:
		return s, e.ok && e.val == s.val
	case e.ok:
		return s, s.hasStale && e.val == s.stale
	}
	s.hasStale = false
	return s, true
}

// maxEvents bounds one key's history: the search's set of linearized
// events is a fixed-size bitset.
const maxEvents = 256

// hotKeys are the keys the histories write: 0 … hotKeys-1.
const hotKeys = 8

// linearizable searches for an order of h that respects real time and
// that the reference accepts (Wing and Gong's search, memoised on the
// linearized set and the reference state).
func linearizable(h []event) bool {
	sort.Slice(h, func(i, j int) bool { return h[i].call < h[j].call })
	type node struct {
		done [maxEvents / 64]uint64
		s    refState
	}
	failed := make(map[node]bool)
	var search func(nd node, n int) bool
	search = func(nd node, n int) bool {
		if n == len(h) {
			return true
		}
		if failed[nd] {
			return false
		}
		pending := func(i int) bool { return nd.done[i/64]&(1<<(i%64)) == 0 }
		// An event may go next if it began before every pending event
		// ended.
		first := int64(math.MaxInt64)
		for i, e := range h {
			if pending(i) && e.ret < first {
				first = e.ret
			}
		}
		for i, e := range h {
			if e.call > first {
				break
			}
			if !pending(i) {
				continue
			}
			if s, ok := nd.s.step(e); ok {
				next := node{nd.done, s}
				next.done[i/64] |= 1 << (i % 64)
				if search(next, n+1) {
					return true
				}
			}
		}
		failed[nd] = true
		return false
	}
	return search(node{}, 0)
}

// TestLinearizableOracleRejects pins the reference: the staleness
// contract admits a deleted value and nothing else.
func TestLinearizableOracleRejects(t *testing.T) {
	// seq gives each event its own tick pair, in order.
	seq := func(es ...event) []event {
		for i := range es {
			es[i].call, es[i].ret = int64(2*i+1), int64(2*i+2)
		}
		return es
	}
	store := func(v int) event { return event{kind: opStore, arg: v} }
	load := func(v int, ok bool) event { return event{kind: opLoad, val: v, ok: ok} }
	del := event{kind: opDelete}
	for _, c := range []struct {
		name string
		h    []event
		want bool
	}{
		{"lost store", seq(store(1), load(0, false)), false},
		{"superseded value", seq(store(1), store(2), load(1, true)), false},
		{"stale after delete", seq(store(1), del, load(1, true), load(0, false)), true},
		{"stale after a miss", seq(store(1), del, load(0, false), load(1, true)), false},
		{"stale in Range", seq(store(1), del, event{kind: opRange, val: 1, ok: true}), false},
		{"resurrected by LoadOrStore", seq(store(1), del, event{kind: opLoadOrStore, arg: 3, val: 1, ok: true}), false},
		{"stored by LoadOrStore", seq(store(1), del, event{kind: opLoadOrStore, arg: 3, val: 3}, load(3, true)), true},
		{"overlapping load sees either", []event{
			{kind: opStore, arg: 1, call: 1, ret: 4},
			{kind: opLoad, val: 1, ok: true, call: 2, ret: 3},
			{kind: opLoad, call: 2, ret: 3},
		}, true},
	} {
		if got := linearizable(c.h); got != c.want {
			t.Errorf("%s: linearizable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestLinearizableAgainstSyncMapModel is the oracle run.  Each round
// is a fresh Map of 1, 2 or 4 stripes; four goroutines start together
// and each runs a random mix of Load, Store, LoadOrStore, Delete,
// Range and Len over a few hot keys, plus Loads of cold keys that are
// never stored — misses on amended snapshots, which drive promotions.
// Every round ends with a quiescent Range and Len.
func TestLinearizableAgainstSyncMapModel(t *testing.T) {
	const (
		workers = 4
		ops     = 48 // per worker: every op adds at most one event to a key
	)
	if workers*ops+1 > maxEvents {
		t.Fatal("a key's history could outgrow the search's bitset")
	}
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	var slow metrics.Counter
	for round := range rounds {
		m := New[int, int](1<<(round%3), hashInt, &slow)
		var clock atomic.Int64
		logs := make([][]event, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(round), uint64(w)))
				<-start
				// A yield inside an operation's interval lets the other
				// workers' operations overlap it even on one CPU.
				pause := func() {
					if rng.IntN(4) == 0 {
						runtime.Gosched()
					}
				}
				for i := range ops {
					k, v := rng.IntN(hotKeys), w<<16|i+1
					e := event{key: k, call: clock.Add(1)}
					pause()
					switch r := rng.IntN(10); {
					case r < 3:
						e.kind = opLoad
						e.val, e.ok = m.Load(k)
					case r == 3:
						if _, ok := m.Load(hotKeys + rng.IntN(1000)); ok {
							t.Errorf("round %d: a cold key that was never stored was found", round)
						}
						continue
					case r < 6:
						e.kind, e.arg = opStore, v
						m.Store(k, v)
					case r == 6:
						e.kind, e.arg = opLoadOrStore, v
						e.val, e.ok = m.LoadOrStore(k, v)
					case r == 7:
						e.kind = opDelete
						m.Delete(k)
					case r == 8:
						logs[w] = append(logs[w], rangeEvents(t, m, &clock)...)
						continue
					default:
						if n := m.Len(); n < 0 || n > hotKeys {
							t.Errorf("round %d: Len = %d with %d hot keys", round, n, hotKeys)
						}
						continue
					}
					pause()
					e.ret = clock.Add(1)
					logs[w] = append(logs[w], e)
				}
			}()
		}
		close(start)
		wg.Wait()
		final := rangeEvents(t, m, &clock)
		live := 0
		for _, e := range final {
			if e.ok {
				live++
			}
		}
		if n := m.Len(); n != live {
			t.Errorf("round %d: quiescent Len = %d, Range saw %d", round, n, live)
		}

		byKey := make([][]event, hotKeys)
		for _, log := range append(logs, final) {
			for _, e := range log {
				byKey[e.key] = append(byKey[e.key], e)
			}
		}
		for k, h := range byKey {
			if !linearizable(h) {
				var lines strings.Builder
				for _, e := range h {
					fmt.Fprintf(&lines, "\n\t%v", e)
				}
				t.Fatalf("round %d: key %d's history (values are worker<<16 | op+1) is not linearizable against sync.Map semantics:%s", round, k, lines.String())
			}
		}
	}
	if slow.Value() == 0 {
		t.Error("no Load took the slow path: the histories never exercised the overlay or a promotion")
	}
}

// rangeEvents runs one Range and returns its view of every hot key
// (found or not) as events sharing the Range's interval.
func rangeEvents(t *testing.T, m *Map[int, int], clock *atomic.Int64) []event {
	t.Helper()
	call := clock.Add(1)
	seen := make(map[int]int)
	m.Range(func(k, v int) bool {
		seen[k] = v
		return true
	})
	ret := clock.Add(1)
	var es []event
	for k := range hotKeys {
		v, ok := seen[k]
		delete(seen, k)
		es = append(es, event{kind: opRange, key: k, val: v, ok: ok, call: call, ret: ret})
	}
	if len(seen) > 0 {
		t.Errorf("Range saw keys that were never stored: %v", seen)
	}
	return es
}
