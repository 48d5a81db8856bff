package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// testRec exercises the Record/Register path without importing the
// transput package (which imports this one).
type testRec struct {
	A      int64
	B      string
	pooled bool
}

const testRecID = 100

func (r *testRec) WireID() uint16 { return testRecID }

func (r *testRec) AppendWire(dst []byte) ([]byte, error) {
	dst = AppendVarintField(dst, r.A)
	dst = AppendStringField(dst, r.B)
	return dst, nil
}

func (r *testRec) ReadWire(b, _ []byte, _ *Arena) (int, error) {
	a, k, err := ReadVarintField(b)
	if err != nil {
		return 0, err
	}
	s, n, err := ReadStringField(b[k:])
	r.A, r.B = a, s
	return k + n, err
}

var testRecs = NewPool(func(r *testRec) *bool { return &r.pooled }, nil)

func init() { Register(testRecs) }

func roundTrip(t *testing.T, v any) any {
	t.Helper()
	enc, err := Append(nil, v)
	if err != nil {
		t.Fatalf("Append(%v): %v", v, err)
	}
	got, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(%v): %v", v, err)
	}
	if n != len(enc) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
	}
	return got
}

func TestRoundTripScalars(t *testing.T) {
	if got := roundTrip(t, []byte("hello")).([]byte); string(got) != "hello" {
		t.Errorf("bytes: %q", got)
	}
	if got := roundTrip(t, []byte{}).([]byte); len(got) != 0 {
		t.Errorf("empty bytes: %q", got)
	}
	if got := roundTrip(t, "grüße").(string); got != "grüße" {
		t.Errorf("string: %q", got)
	}
	for _, v := range []int64{0, 1, -1, 1983, -1983, 1 << 62, -(1 << 62)} {
		if got := roundTrip(t, v).(int64); got != v {
			t.Errorf("int64 %d: %d", v, got)
		}
	}
}

func TestRoundTripByteSlices(t *testing.T) {
	in := [][]byte{[]byte("a"), {}, []byte("line 2\n"), []byte("ccc")}
	got := roundTrip(t, in).([][]byte)
	if len(got) != len(in) {
		t.Fatalf("len = %d, want %d", len(got), len(in))
	}
	for i := range in {
		if !bytes.Equal(got[i], in[i]) {
			t.Errorf("item %d: %q, want %q", i, got[i], in[i])
		}
	}
}

func TestRoundTripRecord(t *testing.T) {
	in := &testRec{A: -7, B: "record"}
	got, ok := roundTrip(t, in).(*testRec)
	if !ok || got.A != in.A || got.B != in.B {
		t.Fatalf("record round trip: %+v", got)
	}
	if got == in {
		t.Error("decode must build a fresh record")
	}
}

type blob struct{ X, Y int }

func init() { gob.Register(blob{}) }

func TestRoundTripGobFallback(t *testing.T) {
	enc, err := Append(nil, blob{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != TagGob {
		t.Fatalf("fallback tag = %d, want TagGob", enc[0])
	}
	got, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := got.(blob); !ok || b != (blob{3, 4}) {
		t.Fatalf("gob fallback: %#v", got)
	}
}

// TestDecodeNeverAliases pins the "caller may recycle the input
// immediately" contract.
func TestDecodeNeverAliases(t *testing.T) {
	enc, _ := Append(nil, []byte("aliased?"))
	got, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := got.([]byte)
	for i := range enc {
		enc[i] = 0xFF
	}
	if string(b) != "aliased?" {
		t.Error("decoded bytes alias the input buffer")
	}

	enc2, _ := Append(nil, [][]byte{[]byte("one"), []byte("two")})
	got2, _, err := Decode(enc2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range enc2 {
		enc2[i] = 0xFF
	}
	items := got2.([][]byte)
	if string(items[0]) != "one" || string(items[1]) != "two" {
		t.Error("decoded items alias the input buffer")
	}
}

// TestDecodeInCopiesThroughTheArena: DecodeIn decodes what Decode does,
// with the arena's rule for a value's bytes — a small TagBytes value and
// the small items of a vector or a record land in the arena's block, a
// large one gets an allocation of its own, never a view — and nothing it
// returns aliases the input.
func TestDecodeInCopiesThroughTheArena(t *testing.T) {
	var a Arena
	small, large := []byte("small value"), bytes.Repeat([]byte{7}, SpliceCutoff)
	for _, v := range []any{small, large, [][]byte{small, nil, large}, [][]byte{}, "s", int64(3),
		&testRec{A: 1, B: "b"}, &viewRec{Items: [][]byte{small, nil, large}, Seq: 2}} {
		enc, err := Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeIn(enc, &a)
		if err != nil || n != len(enc) {
			t.Fatalf("%T: %d of %d bytes, %v", v, n, len(enc), err)
		}
		for i := range enc {
			enc[i] ^= 0xFF
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: DecodeIn gave %.40v, Decode %.40v, or it aliases its input", v, got, want)
		}
		switch g := got.(type) {
		case []byte:
			if inBlock(&a, g) != (len(g) < SpliceCutoff) || cap(g) != len(g) {
				t.Errorf("%d B value: in the block %v, cap %d", len(g), inBlock(&a, g), cap(g))
			}
		case [][]byte:
			checkItemsInBlock(t, &a, g)
		case *viewRec:
			checkItemsInBlock(t, &a, g.Items)
		}
	}
	enc, _ := Append(nil, small)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeIn(enc, &a); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("DecodeIn(bytes) allocates %.1f/op, want <= 1 (boxing; the copy shares a block)", n)
	}
}

// checkItemsInBlock: a decoded vector's small items are in a's block,
// and none is a slab view.
func checkItemsInBlock(t *testing.T, a *Arena, items [][]byte) {
	t.Helper()
	for i, it := range items {
		if inBlock(a, it) != (len(it) > 0 && len(it) < SpliceCutoff) || IsView(it) {
			t.Errorf("item %d of %d B: in the block %v, a view %v", i, len(it), inBlock(a, it), IsView(it))
		}
	}
}

// TestFrameSizePinned pins the honest on-wire sizes the benchmarks and
// netsim accounting rely on.
func TestFrameSizePinned(t *testing.T) {
	payload := []byte("0123456789")
	enc, _ := Append(nil, payload)
	if len(enc) != HeaderBytes+len(payload) {
		t.Errorf("bytes frame = %d, want %d", len(enc), HeaderBytes+len(payload))
	}
	items := [][]byte{[]byte("ab"), []byte("cdef")}
	enc2, _ := Append(nil, items)
	if len(enc2) != HeaderBytes+ItemsFieldSize(items) {
		t.Errorf("items frame = %d, want %d", len(enc2), HeaderBytes+ItemsFieldSize(items))
	}
	// uvarint count 2 + (1+2) + (1+4) = 9 payload bytes.
	if ItemsFieldSize(items) != 9 {
		t.Errorf("ItemsFieldSize = %d, want 9", ItemsFieldSize(items))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", []byte{TagBytes, 0}, ErrTruncated},
		{"length past end", []byte{TagBytes, 0, 0, 0, 9, 'x'}, ErrTruncated},
		{"zero tag", make([]byte, 16), ErrUnknownTag},
		{"foreign tag", []byte{0x7F, 0, 0, 0, 0}, ErrUnknownTag},
		{"empty int64", []byte{TagInt64, 0, 0, 0, 0}, ErrMalformed},
		{"trailing int64", []byte{TagInt64, 0, 0, 0, 3, 2, 0, 0}, ErrMalformed},
		{"unregistered record", []byte{TagRecord, 0, 0, 0, 2, 0xFE, 0x7F}, ErrUnknownType},
		{"garbage gob", []byte{TagGob, 0, 0, 0, 2, 0xde, 0xad}, ErrMalformed},
	}
	for _, tc := range cases {
		if _, _, err := Decode(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestTruncationsError feeds every prefix of valid frames to Decode:
// all must error (never panic, never succeed short).
func TestTruncationsError(t *testing.T) {
	for _, v := range []any{[]byte("payload"), "str", int64(-99),
		[][]byte{[]byte("a"), []byte("bb")}, &testRec{A: 5, B: "x"}} {
		enc, err := Append(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(enc); i++ {
			if _, _, err := Decode(enc[:i]); err == nil {
				t.Errorf("%T: %d-byte prefix decoded", v, i)
			}
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(NewPool(func(r *testRec) *bool { return &r.pooled }, nil))
}

// TestAllocCeilings pins the allocation behaviour of the hot paths:
// encoding into a buffer with capacity is allocation-free, and decoding
// costs only the output value itself.
func TestAllocCeilings(t *testing.T) {
	payload := []byte("a modest line of pipeline data\n")
	var boxed any = payload // box once; the hot paths pass pre-boxed payloads
	dst := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := Append(dst[:0], boxed); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("Append([]byte) allocates %.1f/op, want 0", n)
	}
	enc, _ := Append(nil, payload)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("Decode(bytes) allocates %.1f/op, want <=2 (copy + boxing)", n)
	}
	encInt, _ := Append(nil, int64(7))
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := Decode(encInt); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Decode(int64) allocates %.1f/op, want <=1 (boxing)", n)
	}
}

func ExampleAppend() {
	enc, _ := Append(nil, []byte("hi"))
	v, n, _ := Decode(enc)
	fmt.Printf("%q %d\n", v, n)
	// Output: "hi" 7
}
