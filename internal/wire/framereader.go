// FrameReader: the read side of a real wire.  A socket hands the codec
// an io.Reader that fragments frames arbitrarily — short reads, frames
// split across reads, several frames in one read — so this file adds
// the re-assembly layer Decode never needed in-process: a slab-backed
// buffer filled by Read, parsed frame by frame, with the partial tail
// carried across buffer rotations.
//
// The ownership contract: bytes land in a tracked slab view and are
// decoded in place.  A record's items field — the only field that may
// alias the buffer — goes through ReadItemsFieldViewInto, which copies
// small and borrows large, registering each borrowed item as a sub-view
// (RegisterSubview) that holds its own reference on the chunk and rides
// the normal Release/Detach lifecycle.  Items shorter than SpliceCutoff
// leave the reader as copies in the reader's Arena, whose 4 KiB blocks
// the small items of successive frames share, and only items of the
// cutoff or more become sub-views — one registration a frame that has
// any, none otherwise.
// The reader releases its own handle on a buffer when it rotates to a
// fresh one; the chunk stays alive until the last large item it holds is
// released by whoever the ports handed it to, and a chunk that carried
// only small frames recycles at once.  A chunk a body took a large item
// from in place (Detach) is not recycled but left to the GC.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MaxFrameBytes bounds a single frame's payload so a corrupt or
// hostile length prefix cannot trigger an enormous allocation.  Far
// above any legitimate batch (64 KiB chunks × the protocol's batch
// ceilings).
const MaxFrameBytes = 1 << 26

// ErrFrameTooLarge reports a length prefix above MaxFrameBytes.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameBytes")

// ReadItemsFieldViewInto parses an item vector like ReadItemsField,
// appending to dst (a decoder's record brings its vector with it from a
// pool), copying small and borrowing large — the rule Frame.Encode
// follows on the write side, with the same SpliceCutoff.  Items shorter
// than the cutoff are copied into a (Arena.Copy: disjoint, cap == len,
// so an append or a scribble on one reaches neither a neighbour nor the
// receive buffer), the frame's together in one block.  Items of the
// cutoff or more stay sub-slices of b, registered together as tracked
// sub-views of owner; with a nil owner (a decoder whose value must not
// alias b) they are copied too, each into its own allocation, as small
// ones are with a nil a (ReadItemsField is that case).  Empty
// items are untracked nils.  A frame with no large item performs no
// registry operation and takes no reference on owner's chunk; a
// malformed frame registers, and leaks, nothing, and returns dst as it
// was given.
//
// The caller owns the bytes either way.  The retention unit differs: a
// large item keeps its read chunk alive until it is Released, or for as
// long as a body holds it once Detach has handed it over in place (the
// chunk is then never recycled); a small item keeps its arena block
// alive, so a consumer that holds one item pins up to 4 KiB of the
// reader's recent small items with it (the trade bytes.Split makes), for
// one allocation per block instead of one an item.  BenchmarkReadItems
// is the cutoff's read-side figure.
func ReadItemsFieldViewInto(dst [][]byte, b, owner []byte, a *Arena) ([][]byte, int, error) {
	count, k, err := ReadUvarintField(b)
	if err != nil {
		return dst, 0, err
	}
	if count > uint64(len(b)) { // each item needs ≥1 length byte
		return dst, 0, fmt.Errorf("%w: item count %d exceeds payload", ErrMalformed, count)
	}
	base := len(dst)
	if need := base + int(count); need > cap(dst) {
		dst = append(make([][]byte, 0, need), dst...)
	}
	items := dst[base:]
	off := k
	small, large := 0, false // bytes to copy; anything to register
	for i := uint64(0); i < count; i++ {
		n, kk, err := ReadUvarintField(b[off:])
		if err != nil {
			return dst, 0, err
		}
		if uint64(len(b)-off-kk) < n {
			return dst, 0, fmt.Errorf("%w: short field", ErrTruncated)
		}
		start := off + kk
		end := start + int(n)
		var it []byte
		if n > 0 {
			it = b[start:end:end]
			if n < SpliceCutoff {
				small += int(n)
			} else {
				large = true
			}
		}
		items = append(items, it)
		off = end
	}
	if small > 0 {
		a.reserve(small)
		for i, it := range items {
			if n := len(it); n > 0 && n < SpliceCutoff {
				items[i] = a.Copy(it)
			}
		}
	}
	switch {
	case large && owner == nil:
		// Nothing to borrow from: each large item gets a copy of its own.
		for i, it := range items {
			if len(it) >= SpliceCutoff {
				items[i] = a.Copy(it)
			}
		}
	case large:
		// The small items are in the arena by now, outside every chunk,
		// and registerSubviews skips them.
		registerSubviews(owner, items)
	}
	return dst[:base+len(items)], off, nil
}

// FrameReader re-assembles wire frames from an io.Reader with
// short-read tolerance and decodes them in place from a slab-backed
// buffer.  Not safe for concurrent use; a transport runs one per
// connection direction.
type FrameReader struct {
	r       io.Reader
	slab    *Slab
	ownSlab bool
	buf     []byte // current tracked slab view (nil before first read)
	start   int    // parse cursor within buf
	end     int    // filled bytes within buf
	arena   Arena  // where the small items of decoded frames are copied
}

// NewFrameReader wraps r.  Frames are decoded from views carved out of
// slab, in buffers of the slab's chunk size.  A nil slab gets a private,
// unmetered one (closed by Close) whose chunks are chunkBytes long
// (<=0 means DefaultChunkBytes); with a slab, chunkBytes is ignored.
func NewFrameReader(r io.Reader, slab *Slab, chunkBytes int) *FrameReader {
	own := slab == nil
	if own {
		slab = NewSlab(nil, chunkBytes)
	}
	return &FrameReader{r: r, slab: slab, ownSlab: own}
}

// Next reads, re-assembles and decodes the next frame, returning the
// decoded value and the frame's size on the wire (header + payload).
// A clean end of stream at a frame boundary returns io.EOF; an end of
// stream mid-frame returns io.ErrUnexpectedEOF.  A record's large items
// are slab views the caller now owns.
func (fr *FrameReader) Next() (any, int, error) {
	if err := fr.ensure(HeaderBytes); err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.start+1 : fr.start+HeaderBytes]))
	if n > MaxFrameBytes {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	total := HeaderBytes + n
	if err := fr.ensure(total); err != nil {
		return nil, 0, err
	}
	v, k, err := decode(fr.buf[fr.start:fr.start+total], fr.buf, &fr.arena)
	if err != nil {
		return nil, 0, err
	}
	fr.start += k
	return v, k, nil
}

// ensure makes at least n unparsed bytes available at fr.start,
// rotating to a fresh buffer when the current one cannot hold them.
// Consumed bytes before fr.start are never reclaimed in place — large
// item views may alias them — so rotation is the only recycling.
func (fr *FrameReader) ensure(n int) error {
	for fr.end-fr.start < n {
		if fr.buf == nil || fr.start+n > len(fr.buf) {
			fr.rotate(n)
		}
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if fr.end-fr.start >= n {
			return nil
		}
		if err != nil {
			if err == io.EOF {
				if fr.end == fr.start {
					return io.EOF
				}
				return io.ErrUnexpectedEOF
			}
			return err
		}
		if m == 0 {
			return io.ErrNoProgress
		}
	}
	return nil
}

// rotate moves the unparsed tail into a fresh slab view with room for
// at least need bytes, releasing the reader's handle on the old one.
// Sub-views handed out from the old buffer keep its chunk alive.
func (fr *FrameReader) rotate(need int) {
	nb := fr.slab.Alloc(max(need, fr.slab.chunkBytes))
	tail := 0
	if fr.buf != nil {
		tail = copy(nb, fr.buf[fr.start:fr.end])
		Release(fr.buf)
	}
	fr.buf = nb
	fr.start = 0
	fr.end = tail
}

// Close releases the reader's buffer view (and its private slab, when
// it owns one).  Items already handed out, views or not, stay valid.
func (fr *FrameReader) Close() {
	if fr.buf != nil {
		Release(fr.buf)
		fr.buf = nil
	}
	if fr.ownSlab {
		fr.slab.Close()
	}
	fr.start, fr.end, fr.arena = 0, 0, Arena{}
}
