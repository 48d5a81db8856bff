package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"asymstream/internal/metrics"
)

func TestSlabAllocRelease(t *testing.T) {
	met := &metrics.Set{}
	s := NewSlab(met, 0)
	v := s.Alloc(16)
	if len(v) != 16 {
		t.Fatalf("len = %d", len(v))
	}
	if !IsView(v) {
		t.Fatal("Alloc result is not a view")
	}
	if s.Outstanding() != 1 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
	if !Release(v) {
		t.Fatal("Release returned false for a live view")
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding after release = %d", s.Outstanding())
	}
	if Release(v) {
		t.Fatal("double Release reported a live view")
	}
	if met.SlabRetained.Value() != 1 || met.SlabReleased.Value() != 1 {
		t.Errorf("retained/released = %d/%d, want 1/1",
			met.SlabRetained.Value(), met.SlabReleased.Value())
	}
	if leaked := s.Close(); leaked != 0 {
		t.Errorf("leaked = %d", leaked)
	}
}

func TestSlabZeroLengthAndForeignSlices(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	if v := s.Alloc(0); v != nil {
		t.Error("Alloc(0) must return nil")
	}
	plain := []byte("not a view")
	if IsView(plain) || Retain(plain) || Release(plain) {
		t.Error("ordinary slices must be no-ops")
	}
	if got := Detach(plain); &got[0] != &plain[0] {
		t.Error("Detach must pass ordinary slices through")
	}
}

func TestSlabRetainAddsHandle(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	v := s.Alloc(8)
	if !Retain(v) {
		t.Fatal("Retain returned false")
	}
	if s.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", s.Outstanding())
	}
	Release(v)
	if !IsView(v) {
		t.Fatal("view vanished while a handle remained")
	}
	Release(v)
	if IsView(v) {
		t.Fatal("view survived its last release")
	}
}

func TestSlabDetachCopies(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	v := s.Alloc(4)
	copy(v, "data")
	out := Detach(v)
	if IsView(out) || &out[0] == &v[0] {
		t.Fatal("Detach must copy out of the arena")
	}
	if !bytes.Equal(out, []byte("data")) {
		t.Fatalf("detached %q", out)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after detach", s.Outstanding())
	}
}

// TestSlabRecyclesChunks pins the arena behaviour: once every view of a
// sealed chunk is released the chunk is carved again, observable as the
// same base pointer coming back.
func TestSlabRecyclesChunks(t *testing.T) {
	s := NewSlab(nil, 64)
	defer s.Close()
	v1 := s.Alloc(64) // fills chunk exactly
	base := &v1[0]
	s.Alloc(64) // seals chunk 1, carves chunk 2
	Release(v1)
	v3 := s.Alloc(64) // chunk 1 should be back on the free list
	if &v3[0] != base {
		t.Error("released chunk was not recycled")
	}
}

func TestSlabCloseAuditsLeaks(t *testing.T) {
	met := &metrics.Set{}
	s := NewSlab(met, 0)
	v := s.Alloc(10)
	_ = s.Alloc(20)
	if leaked := s.Close(); leaked != 2 {
		t.Fatalf("leaked = %d, want 2", leaked)
	}
	if met.SlabLeaked.Value() != 2 {
		t.Fatalf("SlabLeaked = %d, want 2", met.SlabLeaked.Value())
	}
	// Idempotent: a second Close does not double-charge.
	s.Close()
	if met.SlabLeaked.Value() != 2 {
		t.Fatalf("SlabLeaked after re-Close = %d, want 2", met.SlabLeaked.Value())
	}
	// Late release still works on a closed slab.
	if !Release(v) {
		t.Error("late release failed")
	}
}

func TestReleaseAllCounts(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	items := [][]byte{s.Alloc(3), []byte("plain"), s.Alloc(5), nil}
	if n := ReleaseAll(items); n != 2 {
		t.Fatalf("ReleaseAll = %d, want 2", n)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
}

// TestSlabConcurrent hammers Alloc/Retain/Release from many goroutines;
// run under -race this is the data-plane safety check.
func TestSlabConcurrent(t *testing.T) {
	s := NewSlab(nil, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := s.Alloc(1 + (g+i)%40)
				v[0] = byte(g)
				if i%3 == 0 {
					Retain(v)
					Release(v)
				}
				Release(v)
			}
		}(g)
	}
	wg.Wait()
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", s.Outstanding())
	}
	if leaked := s.Close(); leaked != 0 {
		t.Fatalf("leaked = %d", leaked)
	}
}

// chunksListed counts the chunks of s in the address index.
func chunksListed(s *Slab) int {
	n := 0
	for _, sp := range listedSpans() {
		if sp.c.slab == s {
			n++
		}
	}
	return n
}

// TestChunkIndexDrains pins the rule that the index lists only chunks
// that may still hold or be given a view: each drop point unlists, so a
// closed slab's chunks go as their last views do.
func TestChunkIndexDrains(t *testing.T) {
	s := NewSlab(nil, 64)
	var parked [][]byte
	for i := 0; i < maxFreeChunks+2; i++ {
		parked = append(parked, s.Alloc(64)) // one chunk each
	}
	held := s.Alloc(64)
	cur := s.Alloc(8)
	if got, want := chunksListed(s), maxFreeChunks+4; got != want {
		t.Fatalf("%d chunks listed with a view in each, want %d", got, want)
	}
	ReleaseAll(parked) // fills the free list; the overflow is dropped
	if got, want := chunksListed(s), maxFreeChunks+2; got != want {
		t.Fatalf("%d chunks listed past a full free list, want %d", got, want)
	}
	s.Close() // the free list goes; held's chunk and the carve target stay for their views
	if got := chunksListed(s); got != 2 {
		t.Fatalf("%d chunks listed after Close with 2 holding views", got)
	}
	late := s.Alloc(8) // a closed slab carves dedicated chunks
	if got := chunksListed(s); got != 3 {
		t.Fatalf("%d chunks listed after an Alloc on the closed slab, want 3", got)
	}
	for _, v := range [][]byte{held, cur, late} {
		if !Release(v) {
			t.Fatal("late release failed")
		}
	}
	if got := chunksListed(s); got != 0 {
		t.Fatalf("%d chunks still listed after Close and the last release", got)
	}

	idle := NewSlab(nil, 64)
	Release(idle.Alloc(8))
	idle.Close() // an unreferenced carve target goes with Close
	if got := chunksListed(idle); got != 0 {
		t.Fatalf("%d chunks of an idle closed slab still listed", got)
	}
}

// TestSlabStorm is the -race check of the registry: four goroutines
// carve from two slabs, register sub-views in each other's chunks and
// retain and release across them, while a fifth closes one slab under
// them.  Every handle taken is released, so both slabs must drain.
func TestSlabStorm(t *testing.T) {
	slabs := [2]*Slab{NewSlab(nil, 512), NewSlab(nil, 512)}
	shared := make(chan []byte, 64) // views handed to whichever goroutine takes them
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := slabs[(g+i)%2].Alloc(8 + (g+i)%120)
				v[0] = byte(g)
				sub := v[1+i%7:]
				if !RegisterSubview(v, sub) {
					t.Error("RegisterSubview on a view just carved reported non-view")
				}
				if i%3 == 0 {
					Retain(sub)
					Release(sub)
				}
				Release(v) // sub keeps the chunk
				select {
				case shared <- sub:
				default:
					Release(sub)
				}
				select {
				case w := <-shared:
					if !IsView(w) || !Release(w) {
						t.Error("a handed-over sub-view was not live")
					}
				default:
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			Release(slabs[1].Alloc(16))
		}
		slabs[1].Close()
	}()
	wg.Wait()
	close(shared)
	for w := range shared {
		Release(w)
	}
	for i, s := range slabs {
		if n := s.Outstanding(); n != 0 {
			t.Errorf("slab %d: outstanding = %d", i, n)
		}
		s.Close()
		if n := chunksListed(s); n != 0 {
			t.Errorf("slab %d: %d chunks still listed", i, n)
		}
	}
}

// TestViewAllocCeilings pins what the registry may allocate: nothing a
// view, the copy on Detach, and a frame its item vector plus — when it
// has small items — their one block.  A frame of small items alone does
// not touch the registry at all.
func TestViewAllocCeilings(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	owner := s.Alloc(4096)
	defer Release(owner)
	heap := make([]byte, 64)
	sub := owner[2000:2064]

	// Frames encoded in place, as a frame read off a socket lies in its
	// buffer.
	const k = 16
	frameOf := func(size func(i int) int) (owner, frame []byte) {
		items := make([][]byte, k)
		total := 0
		for i := range items {
			items[i] = make([]byte, size(i))
			total += size(i) + 4
		}
		owner = s.Alloc(total)
		return owner, AppendItemsField(owner[:0], items)
	}
	smallOwner, small := frameOf(func(int) int { return 32 })
	largeOwner, large := frameOf(func(int) int { return SpliceCutoff })
	mixedOwner, mixed := frameOf(func(i int) int { return SpliceCutoff - 1 + i%2 })
	defer ReleaseAll([][]byte{smallOwner, largeOwner, mixedOwner})
	readItems := func(frame, owner []byte, views int) func() {
		return func() {
			before := s.Outstanding()
			items, _, err := ReadItemsFieldView(frame, owner)
			if err != nil || len(items) != k {
				t.Fatalf("%d items, %v", len(items), err)
			}
			if got := s.Outstanding() - before; got != int64(views) {
				t.Fatalf("registered %d views, want %d", got, views)
			}
			if got := ReleaseAll(items); got != views {
				t.Fatalf("released %d views, want %d", got, views)
			}
		}
	}
	for _, c := range []struct {
		name string
		want float64
		op   func()
	}{
		{"RegisterSubview+Release", 0, func() { RegisterSubview(owner, sub); Release(sub) }},
		{"IsView(heap)", 0, func() { IsView(heap) }},
		{"Release(heap)", 0, func() { Release(heap) }},
		{"Detach(view)", 1, func() { RegisterSubview(owner, sub); Detach(sub) }},
		{"Detach(heap)", 0, func() { Detach(heap) }},
		{"ReadItemsFieldView(16 small)", 2, readItems(small, smallOwner, 0)},
		{"ReadItemsFieldView(16 large)", 1, readItems(large, largeOwner, k)},
		{"ReadItemsFieldView(8 small, 8 large)", 2, readItems(mixed, mixedOwner, k/2)},
	} {
		if n := testing.AllocsPerRun(200, c.op); n != c.want {
			t.Errorf("%s allocates %.1f/op, want %.0f", c.name, n, c.want)
		}
	}
}

// BenchmarkViewLifecycle times what one item pays the registry on a
// wire hop — register, IsView, Release — and the miss a heap slice
// pays, with no chunk listed and with 16.
func BenchmarkViewLifecycle(b *testing.B) {
	b.Run("view", func(b *testing.B) {
		s := NewSlab(nil, 0)
		defer s.Close()
		owner := s.Alloc(4096)
		defer Release(owner)
		sub := owner[100:164]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RegisterSubview(owner, sub)
			if !IsView(sub) || !Release(sub) {
				b.Fatal("sub-view not live")
			}
		}
	})
	heap := make([]byte, 64)
	for _, chunks := range []int{0, 16} {
		b.Run(fmt.Sprintf("miss/chunks=%d", chunks), func(b *testing.B) {
			if n := len(listedSpans()); n != 0 {
				b.Skipf("%d chunks listed by views leaked earlier in this process", n)
			}
			s := NewSlab(nil, 64)
			defer s.Close()
			for i := 0; i < chunks; i++ {
				defer Release(s.Alloc(64))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if IsView(heap) || Release(heap) {
					b.Fatal("heap slice taken for a view")
				}
			}
		})
	}
}
