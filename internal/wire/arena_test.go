package wire

import (
	"bytes"
	"testing"
	"unsafe"

	"asymstream/internal/metrics"
)

// inBlock reports whether p starts inside the arena's current block.
func inBlock(a *Arena, p []byte) bool {
	if len(p) == 0 || cap(a.block) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(a.block)))
	at := uintptr(unsafe.Pointer(&p[0]))
	return at >= lo && at < lo+uintptr(cap(a.block))
}

// TestArenaCopy is the arena's rule item by item: an empty item copies
// to nil; a small one lands in the block, next to the one before it,
// with cap == len, so appending to it reaches no neighbour; an item of
// SpliceCutoff bytes or more gets its own allocation and no block space.
func TestArenaCopy(t *testing.T) {
	var a Arena
	if a.Copy(nil) != nil || a.Copy([]byte{}) != nil {
		t.Fatal("an empty item must copy to nil")
	}
	if a.block != nil {
		t.Fatal("an empty item must not start a block")
	}

	src := []byte("abcdef")
	x := a.Copy(src[:3])
	y := a.Copy(src[3:])
	src[0] = 'Z'
	if string(x) != "abc" || string(y) != "def" {
		t.Fatalf("copies %q %q, want \"abc\" \"def\" whatever the source does after", x, y)
	}
	if !inBlock(&a, x) || uintptr(unsafe.Pointer(&y[0]))-uintptr(unsafe.Pointer(&x[0])) != 3 {
		t.Fatal("two small copies in a row must be neighbours in one block")
	}
	if cap(x) != len(x) || cap(y) != len(y) {
		t.Fatalf("cap/len %d/%d and %d/%d, want cap == len", cap(x), len(x), cap(y), len(y))
	}
	x = append(x, "XYZ"...)
	if string(y) != "def" || string(x) != "abcXYZ" {
		t.Fatalf("append to one copy gave %q and reached its neighbour: %q", x, y)
	}

	for _, n := range []int{SpliceCutoff, SpliceCutoff + 1, 4 * SpliceCutoff} {
		big := bytes.Repeat([]byte{7}, n)
		used := len(a.block)
		c := a.Copy(big)
		if !bytes.Equal(c, big) || cap(c) != len(c) || &c[0] == &big[0] {
			t.Fatalf("%d B: a copy of %d bytes, cap %d, want an equal copy with cap == len", n, len(c), cap(c))
		}
		if inBlock(&a, c) || len(a.block) != used {
			t.Fatalf("%d B: an item of the cutoff or more must not be in the block", n)
		}
	}
	if c := a.Copy(make([]byte, SpliceCutoff-1)); !inBlock(&a, c) {
		t.Fatal("an item one byte under the cutoff belongs in a block")
	}
}

// TestArenaRotation: copies from a block the arena has moved on from
// stay intact while the arena fills later blocks and their holders
// scribble on them, and a block change wastes less than one cutoff.
func TestArenaRotation(t *testing.T) {
	var a Arena
	var items [][]byte
	blocks := 0
	for i := 0; blocks < 4; i++ {
		if i == 100*arenaBlockBytes {
			t.Fatalf("%d copies and the arena is on block %d", i, blocks)
		}
		size := 1 + i*37%(SpliceCutoff-1)
		before := unsafe.SliceData(a.block)
		used := len(a.block)
		items = append(items, a.Copy(bytes.Repeat([]byte{byte(i)}, size)))
		if unsafe.SliceData(a.block) != before {
			blocks++
			if cap(a.block) != arenaBlockBytes {
				t.Fatalf("a fresh block of %d bytes, want %d", cap(a.block), arenaBlockBytes)
			}
			if before != nil && arenaBlockBytes-used >= SpliceCutoff {
				t.Fatalf("left a block with %d bytes free for a %d-byte item", arenaBlockBytes-used, size)
			}
		}
	}
	latest := items[len(items)-1]
	for j := range latest {
		latest[j] = 0xFF
	}
	for i, it := range items[:len(items)-1] {
		if !bytes.Equal(it, bytes.Repeat([]byte{byte(i)}, len(it))) {
			t.Fatalf("item %d of %d changed after %d block changes", i, len(items), blocks)
		}
	}
}

// TestArenaCopiesAreNotViews: the slab calls treat arena copies as the
// heap slices they are — Release, ReleaseAll and Retain report no view,
// Detach hands the slice back — with a chunk listed, so every call
// searches the index, and the slab's leak audit stays at zero.
func TestArenaCopiesAreNotViews(t *testing.T) {
	met := &metrics.Set{}
	s := NewSlab(met, 0)
	owner := s.Alloc(4096)
	var a Arena
	items := [][]byte{a.Copy(owner[:32]), a.Copy([]byte("x")), a.Copy(make([]byte, SpliceCutoff))}
	for i, it := range items {
		if IsView(it) || Retain(it) || Release(it) {
			t.Fatalf("item %d: taken for a slab view", i)
		}
		if d := Detach(it); &d[0] != &it[0] {
			t.Fatalf("item %d: Detach copied a heap slice", i)
		}
	}
	if n := ReleaseAll(items); n != 0 {
		t.Fatalf("ReleaseAll released %d views of arena copies", n)
	}
	Release(owner)
	if leaked := s.Close(); leaked != 0 || met.SlabLeaked.Value() != 0 {
		t.Fatalf("slab leaked %d views (SlabLeaked %d)", leaked, met.SlabLeaked.Value())
	}
}
