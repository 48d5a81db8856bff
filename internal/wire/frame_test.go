package wire_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"asymstream/internal/metrics"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// itemsOfLens builds items of the given lengths with recognisable,
// position-dependent contents.
func itemsOfLens(lens []int) [][]byte {
	if len(lens) == 0 {
		return nil
	}
	items := make([][]byte, len(lens))
	for i, n := range lens {
		it := make([]byte, n)
		for j := range it {
			it[j] = byte(i*31 + j)
		}
		items[i] = it
	}
	return items
}

// checkVectored is the property: for both item-bearing records, the
// vectored frame flattened is wire.Append's output byte for byte, its
// Len is that length, it borrows exactly when an item reaches the
// cutoff, and a FrameReader decodes the flattened bytes to an equal
// record.
func checkVectored(t *testing.T, lens []int) {
	t.Helper()
	items := itemsOfLens(lens)
	wantBorrow := false
	for _, n := range lens {
		wantBorrow = wantBorrow || n >= wire.SpliceCutoff
	}
	recs := []any{
		&transput.DeliverRequest{
			Channel: transput.ChannelID{Num: 7, Cap: uid.UID{Hi: 1, Lo: 2}},
			Items:   items, End: len(lens)%2 == 1, Writer: uid.UID{Hi: 3, Lo: 4}, Base: int64(len(lens)),
		},
		&transput.TransferReply{Items: items, Status: transput.StatusEnd, AbortMsg: "m", Base: int64(len(lens)) << 20, Backlog: len(lens) + 1},
	}
	slab := wire.NewSlab(&metrics.Set{}, 0)
	for _, rec := range recs {
		want, err := wire.Append(nil, rec)
		if err != nil {
			t.Fatalf("Append(%T): %v", rec, err)
		}
		f := wire.GetFrame()
		if err := f.Encode(rec); err != nil {
			t.Fatalf("Encode(%T): %v", rec, err)
		}
		flat := bytes.Join(f.Segments(nil), nil)
		if !bytes.Equal(flat, want) {
			t.Fatalf("%T lens %v: vectored frame differs from Append (%d vs %d bytes)", rec, lens, len(flat), len(want))
		}
		if f.Len() != len(want) {
			t.Errorf("%T lens %v: Len = %d, want %d", rec, lens, f.Len(), len(want))
		}
		if f.Borrows() != wantBorrow {
			t.Errorf("%T lens %v: Borrows = %v, want %v", rec, lens, f.Borrows(), wantBorrow)
		}
		wire.PutFrame(f)

		fr := wire.NewFrameReader(bytes.NewReader(flat), slab, 0)
		got, n, err := fr.Next()
		if err != nil || n != len(want) {
			t.Fatalf("%T lens %v: FrameReader.Next = %d bytes, %v; want %d", rec, lens, n, err, len(want))
		}
		// Equal up to nil versus empty items, which the format does not
		// distinguish: same type, same encoding.
		again, err := wire.Append(nil, got)
		if err != nil || reflect.TypeOf(got) != reflect.TypeOf(rec) || !bytes.Equal(again, want) {
			t.Errorf("%T lens %v: round trip gave a different record (%T, %v)", rec, lens, got, err)
		}
		if r, ok := got.(wire.PayloadReleaser); ok {
			r.ReleaseWirePayload()
		}
		fr.Close()
	}
	if leaked := slab.Close(); leaked != 0 {
		t.Errorf("lens %v: %d views leaked", lens, leaked)
	}
}

func TestVectoredFrameEqualsAppend(t *testing.T) {
	const c = wire.SpliceCutoff
	bulk := make([]int, 64)
	for i := range bulk {
		bulk[i] = 16 << 10
	}
	for _, lens := range [][]int{
		nil, {0}, {c - 1}, {c}, {c + 1},
		{0, 1, 64, c - 1}, // all small
		{c, 4 * c, c},     // all large
		{c - 1, c, 0, c, c - 1, 3 * c, 1},
		bulk,
	} {
		checkVectored(t, lens)
	}
	rng := rand.New(rand.NewSource(14))
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
		checkVectored(t, lens)
	}
}

// FuzzVectoredFrame draws the item lengths from the fuzzer: byte pairs,
// big-endian, so lengths run from 0 to 64 KiB on either side of the
// cutoff.
func FuzzVectoredFrame(f *testing.F) {
	const c = wire.SpliceCutoff
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{byte((c - 1) >> 8), byte((c - 1) & 0xFF), byte(c >> 8), byte(c & 0xFF)})
	f.Add([]byte{0, 64, 0, 64, 0, 64})
	f.Add([]byte{64, 0, 64, 0, 64, 0})
	f.Add([]byte{0, 1, 64, 0, 0, 0, 4, 0, 3, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > 64 {
			b = b[:64]
		}
		lens := make([]int, len(b)/2)
		for i := range lens {
			lens[i] = int(b[2*i])<<8 | int(b[2*i+1])
		}
		checkVectored(t, lens)
	})
}
