package stripemap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"asymstream/internal/metrics"
)

func hashInt(k int) uint64 {
	x := uint64(k) * 0x9e3779b97f4a7c15
	return x ^ (x >> 29)
}

func TestBasicOps(t *testing.T) {
	m := New[int, string](8, hashInt, nil)
	if _, ok := m.Load(1); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Store(1, "one")
	m.Store(2, "two")
	if v, ok := m.Load(1); !ok || v != "one" {
		t.Fatalf("Load(1) = %q, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	m.Store(1, "uno")
	if v, _ := m.Load(1); v != "uno" {
		t.Fatalf("overwrite lost: %q", v)
	}
	m.Delete(1)
	// Staleness contract: the entry must be gone from the
	// authoritative view even if a stale snapshot could linger.
	if m.Len() != 1 {
		t.Fatalf("Len after delete = %d, want 1", m.Len())
	}
}

func TestLoadOrStore(t *testing.T) {
	m := New[int, int](4, hashInt, nil)
	if v, loaded := m.LoadOrStore(7, 70); loaded || v != 70 {
		t.Fatalf("first LoadOrStore = %d, %v", v, loaded)
	}
	if v, loaded := m.LoadOrStore(7, 71); !loaded || v != 70 {
		t.Fatalf("second LoadOrStore = %d, %v", v, loaded)
	}
	// After a promotion cycle the check must still be exact.
	for i := 0; i < 100; i++ {
		m.Load(1000 + i) // misses drive promotion
	}
	if v, loaded := m.LoadOrStore(7, 72); !loaded || v != 70 {
		t.Fatalf("post-promotion LoadOrStore = %d, %v", v, loaded)
	}
}

// TestPromotionHeals verifies that repeated slow-path lookups promote
// the overlay: after enough misses, Load hits become lock-free again
// (observable through the contention counter going quiet).
func TestPromotionHeals(t *testing.T) {
	var contention metrics.Counter
	m := New[int, int](1, hashInt, &contention)
	m.Store(1, 1) // dirty overlay created; snapshot amended
	m.Store(2, 2)

	// Loads of fresh keys go through the slow path until promotion.
	for i := 0; i < 16; i++ {
		m.Load(1)
		m.Load(2)
	}
	settled := contention.Value()
	if settled == 0 {
		t.Fatal("expected some slow-path lookups before promotion")
	}
	for i := 0; i < 64; i++ {
		if v, ok := m.Load(1); !ok || v != 1 {
			t.Fatalf("Load(1) = %d, %v", v, ok)
		}
	}
	if got := contention.Value(); got != settled {
		t.Fatalf("slow path still taken after promotion: %d -> %d", settled, got)
	}
}

func TestRange(t *testing.T) {
	m := New[int, int](16, hashInt, nil)
	want := map[int]int{}
	for i := 0; i < 500; i++ {
		m.Store(i, i*i)
		want[i] = i * i
	}
	for i := 0; i < 500; i += 3 {
		m.Delete(i)
		delete(want, i)
	}
	got := map[int]int{}
	m.Range(func(k, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range saw %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
}

// TestConcurrentChurn exercises the create/lookup/teardown storm the
// table was built for: many goroutines inserting, resolving and
// deleting disjoint key ranges concurrently.  Run under -race this is
// the table's memory-model audit.
func TestConcurrentChurn(t *testing.T) {
	m := New[int, int](64, hashInt, nil)
	const (
		workers = 8
		keys    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * keys
			for i := 0; i < keys; i++ {
				k := base + i
				m.Store(k, k)
				if v, ok := m.Load(k); !ok || v != k {
					t.Errorf("worker %d: Load(%d) = %d, %v", w, k, v, ok)
					return
				}
				if i%2 == 0 {
					m.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if got, want := m.Len(), workers*keys/2; got != want {
		t.Fatalf("Len after churn = %d, want %d", got, want)
	}
}

// TestChurnFootprint: Delete/Store churn that nobody looks up — a
// population promoted to the snapshot, then its keys deleted one by one
// and new ones stored — never holds more entries, snapshot plus
// overlay, than the promotion rule allows: each live key once, plus
// fewer than 2·max(minDead, live/(deadShare−1)) for the tombstones and
// the dead snapshot keys they hide.  A stripe that copied its snapshot
// into the overlay would hold every live key twice.
func TestChurnFootprint(t *testing.T) {
	const stripes, population = 4, 2000
	m := New[int, int](stripes, hashInt, nil)
	for k := range population {
		m.Store(k, k)
	}
	for k := range population {
		m.Load(k) // misses promote every stripe
	}
	promotions, dead := 0, make([]int, stripes)
	for i := range 10 * population {
		m.Delete(i)
		m.Store(population+i, i)
		for j := range m.stripes {
			s := &m.stripes[j]
			s.mu.Lock()
			r := s.read.Load()
			entries := len(r.m) + len(s.dirty)
			live := entries - 2*s.dead
			if s.dead < dead[j] {
				promotions++
			}
			dead[j] = s.dead
			s.mu.Unlock()
			if limit := live + 2*max(minDead, live/(deadShare-1)); entries >= limit {
				t.Fatalf("after %d churns stripe %d holds %d entries for %d live keys; the rule allows fewer than %d", i+1, j, entries, live, limit)
			}
		}
	}
	if promotions == 0 {
		t.Fatal("churn never promoted a stripe")
	}
	if got := m.Len(); got != population {
		t.Fatalf("Len = %d after churn, want %d", got, population)
	}
}

// TestStripeCountRounding checks power-of-two rounding.
func TestStripeCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		m := New[int, int](tc.in, hashInt, nil)
		if len(m.stripes) != tc.want {
			t.Errorf("New(%d): %d stripes, want %d", tc.in, len(m.stripes), tc.want)
		}
	}
}

func BenchmarkLoadHit(b *testing.B) {
	m := New[int, int](256, hashInt, nil)
	for i := 0; i < 1<<16; i++ {
		m.Store(i, i)
	}
	// Promote every stripe so the benchmark measures the steady state.
	for i := 0; i < 1<<20; i++ {
		m.Load(i & (1<<16 - 1))
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			m.Load(i & (1<<16 - 1))
			i++
		}
	})
}

func BenchmarkCreateStorm(b *testing.B) {
	for _, stripes := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			m := New[int, int](stripes, hashInt, nil)
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				base := int(next.Add(1)) << 24 // disjoint key range per goroutine
				seq := 0
				for pb.Next() {
					m.Store(base+seq, seq)
					seq++
				}
			})
		})
	}
}

// TestLoadOrStoreAfterDelete: on an amended stripe the overlay is
// authoritative, so a deleted key must not come back through the stale
// snapshot — LoadOrStore stores, and the new value is what Load sees.
func TestLoadOrStoreAfterDelete(t *testing.T) {
	m := New[int, string](1, hashInt, nil)
	m.Store(1, "old")
	for i := 0; i < 4; i++ { // misses promote the overlay into the snapshot
		m.Load(2)
	}
	if r := m.stripes[0].read.Load(); r.amended || r.m[1] != "old" {
		t.Fatalf("key not promoted into the snapshot: %+v", r)
	}
	m.Delete(1)
	if v, loaded := m.LoadOrStore(1, "new"); loaded || v != "new" {
		t.Fatalf("LoadOrStore after Delete = %q, loaded=%v; want the new value stored", v, loaded)
	}
	if v, ok := m.Load(1); !ok || v != "new" {
		t.Fatalf("Load after LoadOrStore = %q, %v; want the new value", v, ok)
	}
	if v, loaded := m.LoadOrStore(1, "newer"); !loaded || v != "new" {
		t.Fatalf("second LoadOrStore = %q, loaded=%v; want the live value", v, loaded)
	}
}

// TestOneStripeRace funnels every key onto a single stripe (constant
// hash) so promotion, slow-path misses, Delete tombstones and Range
// snapshots interleave on one lock domain — the schedule the race
// detector needs to see.  Run via `make race`/CI with -race; it still
// asserts linearizable per-key behaviour without it.
func TestOneStripeRace(t *testing.T) {
	m := New[int, int](8, func(int) uint64 { return 0 }, nil)
	const (
		workers = 8
		rounds  = 2000
		hot     = 32 // small key space: constant snapshot/overlay traffic
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % hot
				// Every value names its key, so a value surfacing under the
				// wrong key (or out of thin air) is detectable.
				mine := (w<<20|i)*hot + k
				switch i % 4 {
				case 0:
					m.Store(k, mine)
				case 1:
					// Misses on amended snapshots drive promotion.
					if v, ok := m.Load(k); ok && v%hot != k {
						t.Errorf("Load(%d) = %d, a value stored under key %d", k, v, v%hot)
						return
					}
				case 2:
					m.Delete(k)
				default:
					v, loaded := m.LoadOrStore(k, mine)
					if v%hot != k || (!loaded && v != mine) {
						t.Errorf("LoadOrStore(%d, %d) = %d, %v", k, mine, v, loaded)
						return
					}
				}
			}
		}(w)
	}
	// A concurrent Range walker repeatedly snapshots the stripe while
	// the writers churn it.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Range(func(k, v int) bool { return k >= 0 })
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	// Per-key sanity after the storm: every surviving value was
	// written by some worker under that key.
	m.Range(func(k, v int) bool {
		if k < 0 || k >= hot || v%hot != k {
			t.Errorf("foreign entry %d=%d survived", k, v)
		}
		return true
	})
}
