package wire

// arenaBlockBytes is the size of an Arena's heap block: twice
// SpliceCutoff, so every item the arena takes fits a fresh block and a
// block change strands less than one cutoff of the old one, and small
// enough that a held item keeps at most 4 KiB of its neighbours alive.
// At 32–64 B items it is one allocation per 64–128 copies.
const arenaBlockBytes = 4 << 10

// Arena is the one rule for copying an item into a slice its taker may
// keep, overwrite or append to.  Items shorter than SpliceCutoff are
// bump-allocated out of a shared heap block, one allocation per 4 KiB of
// them; each copy is a disjoint sub-slice with cap == len, so an append
// reallocates and a scribble stays inside the item.  A block is never
// reused: it lives as long as the longest-held item in it, and the arena
// moves on to a fresh one when it is full.  An empty item copies to nil,
// and an item of SpliceCutoff bytes or more gets an allocation of its
// own.  The copies are ordinary heap slices: Release, Retain and IsView
// pass over them and Detach returns them unchanged.
//
// The zero Arena is ready to use.  It has one owner, which serialises
// Copy: a FrameReader's read loop, or a writer under the lock its Put
// already holds.
type Arena struct {
	block []byte // len: bytes handed out; cap: the block's size
}

// Copy returns a copy of p under the arena's rule.
func (a *Arena) Copy(p []byte) []byte {
	n := len(p)
	switch {
	case n == 0:
		return nil
	case n >= SpliceCutoff:
		out := make([]byte, n)
		copy(out, p)
		return out
	}
	a.reserve(n)
	off := len(a.block)
	a.block = append(a.block, p...)
	return a.block[off : off+n : off+n]
}

// reserve makes room for n more bytes in the current block, starting a
// fresh one when it lacks it.  A fresh block holds at least n bytes, so
// a frame reader that reserves a frame's small items at once copies them
// with at most one allocation however many there are; only such a frame,
// with more than 4 KiB of small items, gets a block above the usual size.
func (a *Arena) reserve(n int) {
	if len(a.block)+n > cap(a.block) {
		a.block = make([]byte, 0, max(n, arenaBlockBytes))
	}
}
