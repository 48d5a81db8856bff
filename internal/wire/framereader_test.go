package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"asymstream/internal/metrics"
)

// viewRecID is a record whose items field is not its last, so decode
// equivalence across the copying and in-place paths is testable: one
// [][]byte field (aliasing large items in place) and one varint.
const viewRecID = 101

type viewRec struct {
	Items  [][]byte
	Seq    int64
	pooled bool
}

func (r *viewRec) WireID() uint16 { return viewRecID }

func (r *viewRec) AppendWire(dst []byte) ([]byte, error) {
	dst = AppendItemsField(dst, r.Items)
	return AppendVarintField(dst, r.Seq), nil
}

func (r *viewRec) ReadWire(b, owner []byte, a *Arena) (int, error) {
	items, k, err := ReadItemsFieldViewInto(r.Items, b, owner, a)
	if err != nil {
		return 0, err
	}
	seq, n, err := ReadVarintField(b[k:])
	r.Items, r.Seq = items, seq
	return k + n, err
}

// ReleaseWirePayload releases the items of a rejected body.
func (r *viewRec) ReleaseWirePayload() {
	ReleaseAll(r.Items)
	viewRecs.Put(r)
}

// viewRecs zeroes a recycled record's vector rather than keep it: tests
// hold on to a decoded record's vector.
var viewRecs = NewPool(func(r *viewRec) *bool { return &r.pooled }, nil)

func init() { Register(viewRecs) }

// chunkedReader serves a byte stream in caller-chosen cut sizes,
// simulating a socket that tears frames across arbitrary reads.
type chunkedReader struct {
	data []byte
	cuts []byte // successive read sizes; 0 entries read 1 byte
	pos  int
	turn int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if c.pos >= len(c.data) {
		return 0, io.EOF
	}
	n := 1
	if len(c.cuts) > 0 {
		n = int(c.cuts[c.turn%len(c.cuts)])
		c.turn++
		if n <= 0 {
			n = 1
		}
	}
	if n > len(p) {
		n = len(p)
	}
	if rem := len(c.data) - c.pos; n > rem {
		n = rem
	}
	copy(p, c.data[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

// encodeStream concatenates the test frames every torn-read test
// parses back.
func encodeStream(t testing.TB) ([]byte, []any) {
	t.Helper()
	vals := []any{
		[]byte("alpha"),
		"grüße",
		int64(-1983),
		[][]byte{[]byte("a"), {}, []byte("line\n")},
		&viewRec{Items: [][]byte{[]byte("x"), []byte("yy")}, Seq: 7},
		[]byte(bytes.Repeat([]byte("Z"), 300)), // bigger than tiny chunks
	}
	var stream []byte
	for _, v := range vals {
		enc, err := Append(stream, v)
		if err != nil {
			t.Fatalf("Append(%v): %v", v, err)
		}
		stream = enc
	}
	return stream, vals
}

// canon normalises a decoded value for comparison across the copying
// and view decode paths (views detach to plain bytes; empty items and
// nil items compare equal).
func canon(v any) string {
	switch x := v.(type) {
	case []byte:
		return fmt.Sprintf("b:%q", x)
	case [][]byte:
		s := "v:"
		for _, it := range x {
			s += fmt.Sprintf("%q,", it)
		}
		return s
	case *viewRec:
		return fmt.Sprintf("r:%d:%s", x.Seq, canon(x.Items))
	default:
		return fmt.Sprintf("%T:%v", v, v)
	}
}

// decodedItems returns the items a decoded value carries, if any.
func decodedItems(v any) [][]byte {
	switch x := v.(type) {
	case [][]byte:
		return x
	case *viewRec:
		return x.Items
	}
	return nil
}

// releaseDecoded drops any slab views a decoded value carries.
func releaseDecoded(v any) {
	if r, ok := v.(PayloadReleaser); ok { // a registered record of another package's
		r.ReleaseWirePayload()
		return
	}
	ReleaseAll(decodedItems(v))
}

func TestFrameReaderTornReads(t *testing.T) {
	stream, vals := encodeStream(t)
	for _, cuts := range [][]byte{nil, {1}, {2}, {3, 1, 7}, {64}, {255}} {
		met := &metrics.Set{}
		slab := NewSlab(met, 128) // far smaller than the stream: forces rotation
		fr := NewFrameReader(&chunkedReader{data: stream, cuts: cuts}, slab, 0)
		var wire int
		for i, want := range vals {
			v, n, err := fr.Next()
			if err != nil {
				t.Fatalf("cuts %v: frame %d: %v", cuts, i, err)
			}
			if got, w := canon(v), canon(want); got != w {
				t.Fatalf("cuts %v: frame %d: got %s want %s", cuts, i, got, w)
			}
			wire += n
			releaseDecoded(v)
		}
		if wire != len(stream) {
			t.Fatalf("cuts %v: consumed %d wire bytes, stream is %d", cuts, wire, len(stream))
		}
		if _, _, err := fr.Next(); err != io.EOF {
			t.Fatalf("cuts %v: want io.EOF at end, got %v", cuts, err)
		}
		fr.Close()
		if leaked := slab.Close(); leaked != 0 {
			t.Fatalf("cuts %v: slab leaked %d views", cuts, leaked)
		}
	}
}

// TestFrameReaderViewsSurviveRotation pins the ownership contract on
// both sides of SpliceCutoff: an item handed out stays valid after the
// reader rotates to fresh buffers and even after the reader closes.  A
// large item does so as a view that owns the chunk it arrived in; a
// small one as a heap copy, so the chunk it arrived in recycles while
// the item is still held.
func TestFrameReaderViewsSurviveRotation(t *testing.T) {
	for _, c := range []struct {
		name string
		item []byte
		view bool
	}{
		{"large", bytes.Repeat([]byte("keepme"), SpliceCutoff/6+1), true},
		{"small", []byte("keepme"), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			stream, err := Append(nil, &viewRec{Items: [][]byte{c.item}, Seq: 1})
			if err != nil {
				t.Fatal(err)
			}
			// Enough follow-on data to force several 128-byte rotations.
			for i := 0; i < 8; i++ {
				if stream, err = Append(stream, bytes.Repeat([]byte{byte('a' + i)}, 100)); err != nil {
					t.Fatal(err)
				}
			}
			slab := NewSlab(&metrics.Set{}, 128)
			fr := NewFrameReader(&chunkedReader{data: stream, cuts: []byte{5}}, slab, 0)
			v, _, err := fr.Next()
			if err != nil {
				t.Fatal(err)
			}
			held := v.(*viewRec).Items[0]
			if IsView(held) != c.view {
				t.Fatalf("IsView = %v, want %v", !c.view, c.view)
			}
			arrival, _ := findChunk(fr.buf)
			for {
				w, _, err := fr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				releaseDecoded(w)
			}
			want := int64(1) // the reader's current buffer
			if c.view {
				want++ // and the item
			}
			if got := slab.Outstanding(); got != want {
				t.Fatalf("%d views outstanding after rotation, want %d", got, want)
			}
			arrival.mu.Lock()
			pinned := arrival.sealed
			arrival.mu.Unlock()
			if pinned != c.view {
				t.Fatalf("arrival chunk pinned = %v with the item held, want %v", pinned, c.view)
			}
			fr.Close()
			if !bytes.Equal(held, c.item) {
				t.Fatalf("item corrupted after rotation/close: %q", held)
			}
			if Release(held) != c.view {
				t.Fatalf("Release = %v, want %v", !c.view, c.view)
			}
			if leaked := slab.Close(); leaked != 0 {
				t.Fatalf("slab leaked %d views", leaked)
			}
		})
	}
}

// scribbleSmall overwrites every item that is not a view and appends to
// it, as a body that owns its input may.  With the items disjoint and
// cap == len, neither reaches another item or the receive buffer.
func scribbleSmall(items [][]byte) {
	for _, it := range items {
		if !IsView(it) {
			for j := range it {
				it[j] = 0xFF
			}
			_ = append(it, 0xEE, 0xEE)
		}
	}
}

// checkCopySmallBorrowLarge is the read side's rule as a property:
// three frames of items with the given lengths, read through a torn
// stream, decode to what the copying Decode sees; an item is a view
// exactly when it reaches SpliceCutoff; every item has cap == len; and
// scribbling over a frame's small items changes no large item and no
// later frame.
func checkCopySmallBorrowLarge(t *testing.T, lens []int, cuts []byte) {
	t.Helper()
	const frames = 3
	var stream []byte
	want := make([][][]byte, frames)
	for f := range want {
		items := make([][]byte, len(lens))
		for i, n := range lens {
			items[i] = make([]byte, n)
			for j := range items[i] {
				items[i][j] = byte(f*101 + i*31 + j)
			}
		}
		from := len(stream)
		var err error
		if stream, err = Append(stream, &viewRec{Items: items, Seq: int64(f)}); err != nil {
			t.Fatal(err)
		}
		ref, _, err := Decode(stream[from:])
		if err != nil {
			t.Fatalf("lens %v: reference Decode: %v", lens, err)
		}
		want[f] = ref.(*viewRec).Items
	}

	slab := NewSlab(&metrics.Set{}, 4096)
	fr := NewFrameReader(&chunkedReader{data: stream, cuts: cuts}, slab, 0)
	got := make([][][]byte, 0, frames)
	largeIntact := func(when string) {
		for f, items := range got {
			for i, it := range items {
				if IsView(it) && !bytes.Equal(it, want[f][i]) {
					t.Fatalf("lens %v: frame %d item %d changed %s", lens, f, i, when)
				}
			}
		}
	}
	for f := 0; f < frames; f++ {
		v, _, err := fr.Next()
		if err != nil {
			t.Fatalf("lens %v: frame %d: %v", lens, f, err)
		}
		rec := v.(*viewRec)
		if rec.Seq != int64(f) || len(rec.Items) != len(lens) {
			t.Fatalf("lens %v: frame %d decoded as seq %d with %d items", lens, f, rec.Seq, len(rec.Items))
		}
		for i, it := range rec.Items {
			if !bytes.Equal(it, want[f][i]) {
				t.Fatalf("lens %v: frame %d item %d differs from Decode's", lens, f, i)
			}
			if cap(it) != len(it) {
				t.Fatalf("lens %v: frame %d item %d has cap %d, len %d", lens, f, i, cap(it), len(it))
			}
			if view := len(it) >= SpliceCutoff; IsView(it) != view {
				t.Fatalf("lens %v: frame %d item %d (%d bytes): IsView = %v", lens, f, i, len(it), !view)
			}
		}
		got = append(got, rec.Items)
		scribbleSmall(rec.Items)
		largeIntact("under a scribble")
	}
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("lens %v: want io.EOF after %d frames, got %v", lens, frames, err)
	}
	fr.Close()
	largeIntact("by the end of the stream")
	for _, items := range got {
		ReleaseAll(items)
	}
	if leaked := slab.Close(); leaked != 0 {
		t.Fatalf("lens %v: %d views leaked", lens, leaked)
	}
}

func TestReadItemsCopySmallBorrowLarge(t *testing.T) {
	const c = SpliceCutoff
	bulk := make([]int, 64)
	for i := range bulk {
		bulk[i] = 16 << 10
	}
	for _, lens := range [][]int{
		nil, {0}, {1}, {c - 1}, {c}, {c + 1},
		{0, 1, 64, c - 1}, // all small
		{c, 4 * c, c},     // all large
		{c - 1, c, 0, c, c - 1, 3 * c, 1},
		bulk,
	} {
		for _, cuts := range [][]byte{{1}, {3, 1, 7}, {255}} {
			if len(cuts) == 1 && cuts[0] == 1 && len(lens) == len(bulk) {
				continue // a megabyte a byte at a time proves nothing more
			}
			checkCopySmallBorrowLarge(t, lens, cuts)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		lens := make([]int, rng.Intn(24))
		for j := range lens {
			switch rng.Intn(3) {
			case 0:
				lens[j] = rng.Intn(c) // small
			case 1:
				lens[j] = c - 2 + rng.Intn(4) // straddling
			default:
				lens[j] = c + rng.Intn(8*c) // large
			}
		}
		cuts := make([]byte, 1+rng.Intn(4))
		for j := range cuts {
			cuts[j] = byte(16 + rng.Intn(240))
		}
		checkCopySmallBorrowLarge(t, lens, cuts)
	}
}

// TestReadItemsFieldViewInto: the appending form keeps what the vector
// held, reuses its capacity, follows the same copy-small/borrow-large
// rule, copies small items into the arena it is given with no
// allocation while the arena's block has room, and on a malformed field
// hands the vector back as it came with nothing registered.
func TestReadItemsFieldViewInto(t *testing.T) {
	s := NewSlab(nil, 0)
	defer s.Close()
	src := [][]byte{make([]byte, 32), make([]byte, SpliceCutoff), nil, bytes.Repeat([]byte{9}, 7)}
	owner := s.Alloc(4096)
	defer Release(owner)
	field := AppendItemsField(owner[:0], src)

	var a Arena
	keep := []byte("kept")
	vec := append(make([][]byte, 0, 16), keep)
	got, n, err := ReadItemsFieldViewInto(vec, field, owner, &a)
	if err != nil || n != len(field) || len(got) != 1+len(src) || &got[0] != &vec[0] || string(got[0]) != "kept" {
		t.Fatalf("%d items, %d of %d bytes, %v; want the caller's vector extended in place", len(got), n, len(field), err)
	}
	for i, it := range got[1:] {
		if !bytes.Equal(it, src[i]) || IsView(it) != (len(it) >= SpliceCutoff) {
			t.Fatalf("item %d: %d bytes, view %v", i, len(it), IsView(it))
		}
	}
	if ReleaseAll(got) != 1 {
		t.Fatal("want exactly the one large item registered")
	}

	small := AppendItemsField(nil, [][]byte{make([]byte, 8), make([]byte, 8)})
	if n := testing.AllocsPerRun(100, func() {
		if got, _, err = ReadItemsFieldViewInto(vec[:0], small, nil, &a); err != nil || len(got) != 2 {
			t.Fatal(len(got), err)
		}
	}); n != 0 {
		t.Errorf("%.0f allocations into a vector and an arena block with room, want none", n)
	}

	before := s.Outstanding()
	for cut := 1; cut < len(field); cut += 7 {
		got, _, err := ReadItemsFieldViewInto(vec, field[:cut], owner, &a)
		if err == nil || len(got) != len(vec) || s.Outstanding() != before {
			t.Fatalf("field cut at %d: %d items, %v, %d views registered", cut, len(got), err, s.Outstanding()-before)
		}
	}
}

func TestFrameReaderErrors(t *testing.T) {
	stream, _ := encodeStream(t)

	// Mid-frame end of stream.
	fr := NewFrameReader(&chunkedReader{data: stream[:len(stream)-3]}, nil, 0)
	for {
		v, _, err := fr.Next()
		if err != nil {
			if err != io.ErrUnexpectedEOF {
				t.Fatalf("truncated stream: want io.ErrUnexpectedEOF, got %v", err)
			}
			break
		}
		releaseDecoded(v)
	}
	fr.Close()

	// A length prefix above MaxFrameBytes fails before allocating.
	huge := []byte{TagBytes, 0xFF, 0xFF, 0xFF, 0xFF}
	fr = NewFrameReader(bytes.NewReader(huge), nil, 0)
	if _, _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	fr.Close()

	// Empty stream is a clean EOF.
	fr = NewFrameReader(bytes.NewReader(nil), nil, 0)
	if _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF on empty stream, got %v", err)
	}
	fr.Close()
}

// FuzzFrameReader is the stream-reassembly fuzzer: arbitrary bytes,
// torn at arbitrary read boundaries, must decode to exactly the frame
// sequence the in-process Decode sees on the same bytes — and must
// never panic or leak a slab view, whatever the input.
func FuzzFrameReader(f *testing.F) {
	stream, _ := encodeStream(f)
	f.Add(stream, []byte{1})
	f.Add(stream, []byte{3, 1, 7})
	f.Add(stream[:len(stream)-2], []byte{64})
	f.Add([]byte{TagBytes, 0xFF, 0xFF, 0xFF, 0xFF, 'x'}, []byte{2})
	f.Add([]byte{TagRecord, 0, 0, 0, 2, viewRecID, 0x00}, []byte{1, 2})
	// A transput.TransferReply as its encoder writes it — record 2:
	// Status, AbortMsg, Base, Backlog, then the items — whose decoders
	// frame_test.go links into this binary.
	rep, start := openFrame(nil, TagRecord)
	rep = binary.AppendUvarint(rep, 2)
	rep = AppendVarintField(rep, 0)
	rep = AppendStringField(rep, "")
	rep = AppendVarintField(rep, 1<<20)
	rep = AppendVarintField(rep, 48)
	rep = AppendItemsField(rep, [][]byte{[]byte("ab"), {}, bytes.Repeat([]byte("Z"), SpliceCutoff)})
	f.Add(closeFrame(rep, start, 0), []byte{5, 2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		// Reference: frame-by-frame copying Decode over the whole
		// buffer, stopping at the first error.
		var want []string
		off := 0
		for off < len(data) {
			v, n, err := Decode(data[off:])
			if err != nil {
				break
			}
			want = append(want, canon(v))
			off += n
		}

		met := &metrics.Set{}
		slab := NewSlab(met, 256)
		fr := NewFrameReader(&chunkedReader{data: data, cuts: cuts}, slab, 0)
		for i := 0; ; i++ {
			v, n, err := fr.Next()
			if err != nil {
				// The reassembled stream may legitimately fail where
				// the reference did (or later at the torn tail), but
				// it must never decode fewer clean frames.
				if i < len(want) {
					t.Fatalf("frame %d: reference decoded it, reader failed: %v", i, err)
				}
				break
			}
			if i >= len(want) {
				// A frame the reference rejected must not decode; the
				// only excuse is the reference stopping on a frame
				// whose MaxFrameBytes guard tripped differently.
				releaseDecoded(v)
				t.Fatalf("frame %d: reader decoded a frame the reference rejected", i)
			}
			if got := canon(v); got != want[i] {
				t.Fatalf("frame %d: got %s want %s", i, got, want[i])
			}
			if n < HeaderBytes {
				t.Fatalf("frame %d: consumed %d < header", i, n)
			}
			// What a consumer does to items it owns must not reach the
			// frames still to come.
			scribbleSmall(decodedItems(v))
			releaseDecoded(v)
		}
		fr.Close()
		if leaked := slab.Close(); leaked != 0 {
			t.Fatalf("slab leaked %d views", leaked)
		}
	})
}

// loopReader serves the same bytes over and over, as much a Read as the
// caller has room for.
type loopReader struct {
	data []byte
	pos  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.pos:])
	l.pos = (l.pos + n) % len(l.data)
	return n, nil
}

// TestBulkDetachAllocs pins what a body pays a frame of 16 items of
// 16 KiB read off a wire, Detaching every item: each is handed over in
// place, so the frame costs its read chunk — never parked again, since a
// body holds bytes in it — with that chunk's bookkeeping, and the
// decoded record, but no copy and no malloc an item.
func TestBulkDetachAllocs(t *testing.T) {
	const batch, size = 16, 16 << 10
	items := make([][]byte, batch)
	for i := range items {
		items[i] = make([]byte, size)
	}
	frame, err := Append(nil, &viewRec{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	slab := NewSlab(nil, 0)
	defer slab.Close()
	fr := NewFrameReader(&loopReader{data: frame}, slab, 0)
	defer fr.Close()
	body := func() {
		v, _, err := fr.Next()
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range v.(*viewRec).Items {
			if out := Detach(it); &out[0] != &it[0] {
				t.Fatal("a 16 KiB item the body held the last handle on was copied")
			}
		}
	}
	for i := 0; i < 16; i++ {
		body()
	}
	if n := testing.AllocsPerRun(100, body); n > bulkDetachCeiling {
		t.Errorf("a 16-item frame of 16 KiB items, every item detached: %.1f allocs, want <= %d", n, bulkDetachCeiling)
	}
}

// bulkDetachCeiling is the figure measured, with and without -race: the
// frame-sized chunk and its header (2), and the record with its vector
// (2).  The chunk's view table is in its header, and listing and
// unlisting the chunk rewrite the address index in place.  No pool is
// involved (the body never returns the record), so -race reads the same.
const bulkDetachCeiling = 4

// BenchmarkReadItems is the read side of transport's
// BenchmarkTransmitItemSize: one 16-item frame through FrameReader.Next
// and its consumer, at item sizes on both sides of SpliceCutoff — below
// it the reader copies the items out, from it on they are views.  The
// consumer is either a body's boundary, which Detaches every item (a
// miss below the cutoff, the copy from it on), or plumbing that passes
// the items on and Releases them once sent.  ns/op and allocs/op are
// per frame.
func BenchmarkReadItems(b *testing.B) {
	const batch = 16
	for _, consumer := range []string{"detach", "release"} {
		for _, size := range []int{64, 256, 1 << 10, SpliceCutoff - 1, SpliceCutoff, 4 << 10, 16 << 10} {
			b.Run(fmt.Sprintf("%s/%dB", consumer, size), func(b *testing.B) {
				items := make([][]byte, batch)
				for i := range items {
					items[i] = make([]byte, size)
				}
				frame, err := Append(nil, &viewRec{Items: items})
				if err != nil {
					b.Fatal(err)
				}
				slab := NewSlab(nil, 0)
				defer slab.Close()
				fr := NewFrameReader(&loopReader{data: frame}, slab, 0)
				defer fr.Close()
				var kept []byte
				b.SetBytes(int64(batch * size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, _, err := fr.Next()
					if err != nil {
						b.Fatal(err)
					}
					got := v.(*viewRec).Items
					if consumer == "release" {
						kept = got[batch-1]
						ReleaseAll(got)
						continue
					}
					for _, it := range got {
						kept = Detach(it)
					}
				}
				if len(kept) != size {
					b.Fatalf("last item is %d bytes, want %d", len(kept), size)
				}
			})
		}
	}
}
