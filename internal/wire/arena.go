package wire

import "sync"

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
// own — or one of the large copies its owner handed back (Reclaim).  The
// copies are ordinary heap slices: Release, RegisterSubview and IsView
// pass over them and Detach returns them unchanged.
//
// The zero Arena is ready to use.  It has one owner, which serialises
// Copy: a FrameReader's read loop, or a writer under the lock its Put
// already holds.  Reclaim may run on any goroutine.  A nil *Arena is one
// too, with no block: every item it copies gets an allocation of its own.
type Arena struct {
	block []byte // len: bytes handed out; cap: the block's size

	mu     sync.Mutex // guards spares: Reclaim runs on a link's goroutine
	spares [][]byte   // large copies handed back, each cap == len
}

// Copy returns a copy of p under the arena's rule.
func (a *Arena) Copy(p []byte) []byte {
	n := len(p)
	switch {
	case n == 0:
		return nil
	case a == nil || n >= SpliceCutoff:
		out := a.spare(n)
		if out == nil {
			out = make([]byte, n)
		}
		copy(out, p)
		return out
	}
	a.reserve(n)
	off := len(a.block)
	a.block = append(a.block, p...)
	return a.block[off : off+n : off+n]
}

// spare takes the latest copy handed back as an n-byte slice with cap ==
// len, or returns nil when there is none of n bytes or more.  One that
// is too short is dropped, so the spares follow the stream's item size.
// Copy makes a buffer only when this finds none, so the spares and the
// copies still out never number more than the most copies that were out
// at once: the spares need no bound of their own.
func (a *Arena) spare(n int) []byte {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	last := len(a.spares) - 1
	if last < 0 {
		return nil
	}
	s := a.spares[last]
	a.spares[last] = nil
	a.spares = a.spares[:last]
	if len(s) < n {
		return nil
	}
	return s[:n:n]
}

// Reclaim hands back large copies of this arena's that nobody will read
// or write again, for Copy to reuse.  It takes only what Copy could have
// handed out — SpliceCutoff bytes or more, cap == len — but it cannot
// tell its own copy from a foreign slice of that shape, so the caller
// must: a record hands its items back only when every one is a copy from
// this arena (transput's wirecodec.go).  A nil arena takes nothing.
func (a *Arena) Reclaim(items [][]byte) {
	if a == nil {
		return
	}
	for i, it := range items {
		if len(it) < SpliceCutoff {
			continue // a small item costs this compare alone
		}
		a.mu.Lock()
		for _, it := range items[i:] {
			if len(it) >= SpliceCutoff && cap(it) == len(it) {
				a.spares = append(a.spares, it)
			}
		}
		a.mu.Unlock()
		return
	}
}

// reserve makes room for n more bytes in the current block, starting a
// fresh one when it lacks it.  A fresh block holds at least n bytes, so
// a frame reader that reserves a frame's small items at once copies them
// with at most one allocation however many there are; only such a frame,
// with more than 4 KiB of small items, gets a block above the usual size.
func (a *Arena) reserve(n int) {
	if a != nil && len(a.block)+n > cap(a.block) {
		a.block = make([]byte, 0, max(n, arenaBlockBytes))
	}
}
