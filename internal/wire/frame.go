package wire

// SpliceCutoff is the item size from which a vectored frame borrows an
// item instead of copying it.  A splice costs two more iovec entries
// (the item, and the buffer bytes after it) and makes the sender hold
// its views until the frame has been read; a copy costs the memmove and
// the frame buffer's growth.  BenchmarkTransmitItemSize
// (internal/netsim; one 16-item Deliver over a Unix socket, 2 cores,
// go1.24, -benchtime 3000x, µs per Transmit, medians of 3 runs) with
// every item copied → every item spliced:
//
//	 64 B   6.9 →  8.5       2 KiB  14.4 → 14.4      16 KiB    76 →  48
//	256 B   8.4 → 10.3       3 KiB  15.8 → 15.4      64 KiB  3510 → 304
//	1 KiB  11.2 → 12.1       4 KiB  20.3 → 20.1
//
// The copy wins by a tenth to a fifth up to 1 KiB, the two meet at
// 2 KiB, and above it the splice wins by a growing margin (at 64 KiB a
// copied frame also outgrows what PutFrame will pool, and is regrown
// from 4 KiB every time).  TCP loopback reads the same way with twice
// the noise (16 KiB: 74 → 40).  The cutoff is the break-even point, so
// no size pays for the mechanism.
//
// The read side (ReadItemsFieldViewInto) consults the same constant: an
// item shorter than the cutoff is copied out of the receive buffer, a
// longer one becomes a sub-view of it, and Detach hands a view of the
// cutoff or more over in place.  There the break-even depends on what
// the consumer does next.  BenchmarkReadItems (one 16-item frame through
// FrameReader.Next and its consumer, 2 cores, go1.24, -benchtime 20000x,
// µs per frame, medians of 10 runs) with every item a view → every item
// copied, for a body, which Detaches each item, and for plumbing, which
// passes the items on and Releases them:
//
//	         body            plumbing               body            plumbing
//	 64 B   1.6 →  1.0      1.6 →   0.9    2 KiB  15.9 → 10.2     4.0 →  10.8
//	256 B   2.4 →  1.8      1.6 →   1.7    4 KiB  17.4 → 18.7     6.0 →  20.3
//	1 KiB   5.8 →  4.5      2.1 →   4.7   16 KiB    56 →   67    10.7 →    79
//
// A body that takes a view in place saves the copy but keeps the read
// chunk: that chunk is never carved again, so the reader pays a fresh one
// (and its view table) per 64 KiB the body took bytes from.  For small
// items that share costs more than their copy; the two meet near 4 KiB,
// and above it the view wins.  Plumbing never copies and never keeps a
// chunk, so a view wins from 256 B and by seven times at 16 KiB.  One
// constant sits between the two: below it the most a forwarder loses is
// a memmove of under 2 KiB an item, and between it and 4 KiB the most a
// body loses is half again what a copy would cost it.
const SpliceCutoff = 2048

// splice is one borrowed item of a vectored frame: Data goes on the
// wire between Buf[:Off] and Buf[Off:].
type splice struct {
	Off  int
	Data []byte
}

// Frame is a pooled encode buffer together with the splices of the
// frame last encoded into it.  With no splices Buf is the whole frame.
type Frame struct {
	Buf     []byte
	splices []splice // ascending Off
	pooled  bool
}

var frames = NewPool(func(f *Frame) *bool { return &f.pooled }, func(f *Frame) {
	clear(f.splices) // a pooled frame must not pin the sender's items
	*f = Frame{Buf: f.Buf[:0], splices: f.splices[:0]}
})

// GetFrame borrows an empty frame from the pool.
func GetFrame() *Frame {
	f := frames.Get()
	if f.Buf == nil {
		f.Buf = make([]byte, 0, 4096)
	}
	return f
}

// PutFrame returns a frame to the pool, dropping what it borrowed.
// Oversized buffers are dropped so one huge payload does not pin memory
// forever.
func PutFrame(f *Frame) {
	if cap(f.Buf) > 1<<20 {
		return
	}
	frames.Put(f)
}

// Encode replaces the frame's contents with v encoded as one vectored
// frame: the bytes Append would produce, except that large items of an
// ItemsMarshaler stay where they are and are only referenced.  The
// caller must keep those items unchanged until the frame's segments
// have been written out.
func (f *Frame) Encode(v any) error {
	f.splices = f.splices[:0]
	var err error
	f.Buf, err = appendFrame(f.Buf[:0], v, &f.splices)
	return err
}

// Borrows reports whether the frame references memory it does not own.
func (f *Frame) Borrows() bool { return len(f.splices) > 0 }

// Len is the frame's size on the wire.
func (f *Frame) Len() int {
	n := len(f.Buf)
	for i := range f.splices {
		n += len(f.splices[i].Data)
	}
	return n
}

// Segments appends the frame's bytes to dst in wire order, as slices
// of Buf interleaved with the spliced items — the iovec of one writev.
// Kept out of line: inlined into the coalescer's enqueue it runs under
// the connection's mutex and costs push-tcp-bulk CPU (DESIGN.md §13.2).
//
//go:noinline
func (f *Frame) Segments(dst [][]byte) [][]byte {
	prev := 0
	for _, s := range f.splices {
		// Never empty: at least the item's length varint lies between.
		dst = append(dst, f.Buf[prev:s.Off], s.Data)
		prev = s.Off
	}
	if prev < len(f.Buf) {
		dst = append(dst, f.Buf[prev:])
	}
	return dst
}
