package transput

import (
	"bytes"
	"io"

	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/itemio"
)

// detachReader hands the consuming body outright ownership of every
// item: you own the bytes.  Over a real link an item of
// wire.SpliceCutoff bytes or more surfaces from a port as a slab view of
// the receive buffer; a user body may keep or drop it freely, so it is
// detached here, at the same boundary shard frames are (detachPayload):
// handed over in place when the port's handle is its last, its read
// chunk then never recycled, so a body that retains it keeps that chunk
// — at most max(64 KiB, its frame) — reachable; copied otherwise.
// Smaller items were copied at the frame reader and pass through
// untouched, as do the heap items of netsim and sources; small items
// share arena blocks (disjoint, cap == len), so a body that retains one
// of them keeps its block — 4 KiB of the reader's or writer's recent
// items — reachable with it.
type detachReader struct{ r ItemReader }

func (d detachReader) Next() ([]byte, error) {
	item, err := d.r.Next()
	if err != nil {
		return nil, err
	}
	return wire.Detach(item), nil
}

// Cancel forwards early exit to the underlying reader.
func (d detachReader) Cancel(msg string) {
	if c, ok := d.r.(interface{ Cancel(string) }); ok {
		c.Cancel(msg)
	}
}

// detachBody wraps a user body so its input readers satisfy the
// ItemReader ownership contract across real links.  It is the only way
// a user body is detached: the pipeline walk applies it innermost, once,
// to every sequential element — source (no inputs: a no-op) and sink
// included.  Shard and merge plumbing wrap outside it and keep their
// frame views zero-copy (their surfaced payloads are already detached,
// making this a pass-through that costs one missed chunk lookup an item).
func detachBody(body Body) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		wrapped := make([]ItemReader, len(ins))
		for i := range ins {
			wrapped[i] = detachReader{ins[i]}
		}
		return body(wrapped, outs)
	}
}

// sliceReader serves items from a fixed slice; used by tests, devices
// and the record layer.
type sliceReader struct {
	items [][]byte
	pos   int
}

// NewSliceReader returns an ItemReader over the given items.  The
// slice is not copied.
func NewSliceReader(items [][]byte) ItemReader {
	return &sliceReader{items: items}
}

func (r *sliceReader) Next() ([]byte, error) {
	if r.pos >= len(r.items) {
		return nil, io.EOF
	}
	it := r.items[r.pos]
	r.pos++
	return it, nil
}

// CollectWriter accumulates items in memory; used by sinks and tests.
type CollectWriter struct {
	Items  [][]byte
	closed bool
	err    error
	arena  *wire.Arena
}

// Put appends a copy of item.
func (w *CollectWriter) Put(item []byte) error {
	if w.closed {
		return ErrClosed
	}
	w.Items = append(w.Items, itemio.CopyItem(&w.arena, item))
	return nil
}

// Close marks the writer finished.
func (w *CollectWriter) Close() error {
	w.closed, w.arena = true, nil
	return nil
}

// CloseWithError records the abort reason.
func (w *CollectWriter) CloseWithError(err error) error {
	w.closed, w.arena = true, nil
	w.err = err
	return nil
}

// Err returns the abort reason recorded by CloseWithError, if any.
func (w *CollectWriter) Err() error { return w.err }

// Bytes concatenates all collected items.
func (w *CollectWriter) Bytes() []byte {
	return bytes.Join(w.Items, nil)
}

// LineSplitter converts a byte stream into line items.  The transput
// protocol carries arbitrary homogeneous records (§6); for the classic
// Unix-style filters of the paper the record is a text line, and this
// helper produces them.  Lines retain their trailing newline except
// possibly the last.
func SplitLines(data []byte) [][]byte {
	var items [][]byte
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			items = append(items, append([]byte(nil), data...))
			break
		}
		items = append(items, append([]byte(nil), data[:i+1]...))
		data = data[i+1:]
	}
	return items
}

// JoinItems concatenates items into one byte slice.
func JoinItems(items [][]byte) []byte { return bytes.Join(items, nil) }

// ioReader adapts an ItemReader to io.Reader, treating items as a
// contiguous byte stream.
type ioReader struct {
	r    ItemReader
	rest []byte
	err  error
}

// NewIOReader adapts an ItemReader to io.Reader.
func NewIOReader(r ItemReader) io.Reader { return &ioReader{r: r} }

func (x *ioReader) Read(p []byte) (int, error) {
	for len(x.rest) == 0 {
		if x.err != nil {
			return 0, x.err
		}
		item, err := x.r.Next()
		if err != nil {
			x.err = err
			return 0, err
		}
		x.rest = item
	}
	n := copy(p, x.rest)
	x.rest = x.rest[n:]
	return n, nil
}

// ioWriter adapts an ItemWriter to io.WriteCloser.  Each Write call
// emits one item (a chunk); callers that need record framing should
// use the record layer instead.
type ioWriter struct {
	w ItemWriter
}

// NewIOWriter adapts an ItemWriter to io.WriteCloser.
func NewIOWriter(w ItemWriter) io.WriteCloser { return &ioWriter{w: w} }

func (x *ioWriter) Write(p []byte) (int, error) {
	if err := x.w.Put(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (x *ioWriter) Close() error { return x.w.Close() }

// Drain reads r to end-of-stream, returning the number of items seen.
// It propagates any non-EOF error.
func Drain(r ItemReader) (int, error) {
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// Copy pumps items from r to w until end of stream, then closes w.
// On error it aborts w with that error.  It returns the item count.
// Copy is the "data pump" function that conventional filters perform
// implicitly (§3); in the asymmetric disciplines only sources/sinks
// pump.
func Copy(w ItemWriter, r ItemReader) (int, error) {
	n := 0
	for {
		item, err := r.Next()
		if err == io.EOF {
			return n, w.Close()
		}
		if err != nil {
			_ = w.CloseWithError(err)
			return n, err
		}
		if err := w.Put(item); err != nil {
			return n, err
		}
		n++
	}
}
