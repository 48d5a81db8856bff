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

// TestSlabDetachCopies: a view under SpliceCutoff, or one whose handle
// is not the caller's last, comes back as a heap copy, and the caller's
// handle is gone.
func TestSlabDetachCopies(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	for _, c := range []struct {
		name    string
		size    int
		handles int
	}{
		{"small", 4, 1},
		{"large, shared", SpliceCutoff, 2},
	} {
		v := s.Alloc(c.size)
		for i := 1; i < c.handles; i++ {
			Retain(v)
		}
		copy(v, "data")
		out := Detach(v)
		if IsView(out) || &out[0] == &v[0] {
			t.Fatalf("%s: Detach must copy out of the arena", c.name)
		}
		if !bytes.Equal(out, v) {
			t.Fatalf("%s: detached %q", c.name, out[:4])
		}
		if got, want := s.Outstanding(), int64(c.handles-1); got != want {
			t.Fatalf("%s: outstanding = %d after detach, want %d", c.name, got, want)
		}
		Release(v) // the other handle, if any
	}
}

// TestSlabDetachInPlace: a view of SpliceCutoff bytes or more whose
// handle is the caller's last is handed over as it is — no copy, the
// handle counted as released, and no longer a view.
func TestSlabDetachInPlace(t *testing.T) {
	met := &metrics.Set{}
	s := NewSlab(met, 0)
	defer s.Close()
	v := s.Alloc(SpliceCutoff)
	copy(v, "data")
	out := Detach(v)
	if &out[0] != &v[0] || len(out) != len(v) || cap(out) != len(out) {
		t.Fatal("Detach must hand a large view that is its caller's last over in place, cap == len")
	}
	if IsView(out) || Release(out) {
		t.Fatal("a view handed over in place is still a view")
	}
	if string(out[:4]) != "data" {
		t.Fatalf("handed over %q", out[:4])
	}
	if n := s.Outstanding(); n != 0 {
		t.Fatalf("outstanding = %d after detach", n)
	}
	if ret, rel := met.SlabRetained.Value(), met.SlabReleased.Value(); ret != 1 || rel != 1 {
		t.Fatalf("retained/released = %d/%d, want 1/1", ret, rel)
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

	// A kept chunk is unlisted by its last release and never parked,
	// though the free list has room: sealed with a view left, and as an
	// empty carve target.
	ks := NewSlab(nil, 2*SpliceCutoff)
	defer ks.Close()
	big, small := ks.Alloc(SpliceCutoff), ks.Alloc(8) // one chunk
	Detach(big)
	Release(ks.Alloc(2 * SpliceCutoff)) // seals the kept chunk under small; a fresh carve target
	if got := chunksListed(ks); got != 2 {
		t.Fatalf("%d chunks listed with a kept chunk holding a view, want 2", got)
	}
	Release(small)
	if got := chunksListed(ks); got != 1 || len(ks.free) != 0 {
		t.Fatalf("a kept chunk's last release: %d chunks listed, %d parked; want 1, 0", got, len(ks.free))
	}
	Detach(ks.Alloc(2 * SpliceCutoff)) // keeps the carve target, which has no view left
	Release(ks.Alloc(8))               // seals it empty
	if got := chunksListed(ks); got != 1 || len(ks.free) != 0 {
		t.Fatalf("a kept carve target sealed empty: %d chunks listed, %d parked; want 1, 0", got, len(ks.free))
	}
}

// TestSlabStorm is the -race check of the registry: four goroutines
// carve from two slabs, register sub-views in each other's chunks and
// retain and release across them, while a fifth closes one slab under
// them.  Every sixteenth round also carves a large view, splits it into
// two large sub-views and detaches one in place itself and the other on
// whichever goroutine takes it, scribbling on both.  Every handle taken
// is released, so both slabs must drain, and nothing may have been
// carved over a slice handed over in place.
func TestSlabStorm(t *testing.T) {
	slabs := [2]*Slab{NewSlab(nil, 512), NewSlab(nil, 512)}
	shared := make(chan []byte, 64) // views handed to whichever goroutine takes them
	bulk := make(chan []byte, 16)   // large sub-views, likewise
	var kept [5][][]byte            // what each goroutine (4: this one) took in place
	keep := func(g int, v []byte) {
		out := Detach(v)
		if &out[0] != &v[0] {
			t.Error("a large sub-view that was its caller's last was copied")
		}
		for j := range out {
			out[j] = 0xA0 | byte(g)
		}
		kept[g] = append(kept[g], out)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if i%16 == 0 {
					big := slabs[(g+i)%2].Alloc(2*SpliceCutoff + 2 + i%64)
					half := SpliceCutoff + 1
					RegisterSubview(big, big[:half:half]) // at big's base: one more handle on it
					RegisterSubview(big, big[half:])
					Release(big)
					select {
					case bulk <- big[half:]:
					default:
						keep(g, big[half:])
					}
					keep(g, big[:half:half])
					select {
					case w := <-bulk:
						keep(g, w)
					default:
					}
				}
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
	close(bulk)
	for w := range bulk {
		keep(4, w)
	}
	for g, vs := range kept {
		for _, v := range vs {
			if bytes.Count(v, []byte{0xA0 | byte(g)}) != len(v) {
				t.Fatalf("a slice goroutine %d took in place was written over", g)
			}
		}
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
// view, the copy on Detach of a small view and nothing on Detach of a
// large one, and a frame its item vector plus — when it has small items
// — at most one arena block: a share of one while the frame's small
// items fit a block with others, one of their own above that.  A frame
// of small items alone does not touch the registry at all.
func TestViewAllocCeilings(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	owner := s.Alloc(8 << 10)
	defer Release(owner)
	heap := make([]byte, 64)
	sub := owner[2000:2064]
	bulk := owner[4096 : 4096+SpliceCutoff]

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
	var a Arena
	readItems := func(frame, owner []byte, views int) func() {
		return func() {
			before := s.Outstanding()
			items, _, err := ReadItemsFieldViewInto(nil, frame, owner, &a)
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
		{"Detach(large view)", 0, func() { RegisterSubview(owner, bulk); Detach(bulk) }},
		{"Detach(heap)", 0, func() { Detach(heap) }},
		{"ReadItemsFieldViewInto(16 small)", 1, readItems(small, smallOwner, 0)},
		{"ReadItemsFieldViewInto(16 large)", 1, readItems(large, largeOwner, k)},
		{"ReadItemsFieldViewInto(8 small, 8 large)", 2, readItems(mixed, mixedOwner, k/2)},
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
