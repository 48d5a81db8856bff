// Package wire is the compact binary codec and buffer arena of the
// zero-copy data plane.  Every payload that crosses a simulated node
// boundary (netsim.EncodePayloads) and every record framed into a
// stream item (transput/records.go) moves through this package instead
// of opening a fresh gob stream.
//
// A frame is
//
//	[tag:1][length:4 big-endian][payload:length]
//
// The fixed 4-byte length field lets encoders append the payload first
// and backfill the length, so nothing is encoded twice and nothing is
// staged in a temporary buffer.  Tags cover the payload shapes the
// pipelines actually ship — []byte, string, int64, [][]byte and the
// registered protocol records — with gob surviving only as the tagged
// fallback for unregistered Go types.
//
// Decode never panics: truncated frames, malformed varints, foreign
// tags and unregistered record ids all return errors, which is what the
// fuzz target pins.  Decoded values never alias the input buffer; the
// caller may recycle it immediately.  One body decodes every frame:
// Decode, DecodeIn and FrameReader.Next differ only in the Arena and the
// slab view they pass it.  A protocol record is a type (Record) with a
// Pool, registered once (Register, record.go).
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
)

// Frame tags.  The zero tag is deliberately invalid so an all-zero
// buffer decodes to an error, not an empty value.
const (
	TagBytes      = 1 // payload is the byte slice verbatim
	TagString     = 2 // payload is the string bytes verbatim
	TagInt64      = 3 // payload is a signed varint
	TagByteSlices = 4 // uvarint count, then per-item uvarint length + bytes
	TagRecord     = 5 // uvarint type id, then the record's own encoding
	TagGob        = 6 // gob stream of a single `any` (fallback)
)

// HeaderBytes is the fixed per-frame overhead: 1 tag byte plus a 4-byte
// big-endian payload length.
const HeaderBytes = 5

var (
	// ErrTruncated reports a buffer that ends before the frame does.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrMalformed reports a frame whose payload does not parse under
	// its tag (bad varint, short field, trailing garbage).
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrUnknownTag reports a frame whose tag byte is not one this
	// package emits.
	ErrUnknownTag = errors.New("wire: unknown frame tag")
	// ErrUnknownType reports a TagRecord frame whose type id has no
	// registered decoder in this process.
	ErrUnknownType = errors.New("wire: unregistered record type")
)

// Marshaler is implemented by records that know their own compact
// encoding.  AppendWire appends the record body (no frame header) to
// dst and returns the extended slice.
type Marshaler interface {
	WireID() uint16
	AppendWire(dst []byte) ([]byte, error)
}

// ItemsMarshaler is a Marshaler whose body ends with an items field.
// Its AppendWire appends only what precedes that field; the encoder
// appends WireItems itself, which is where a vectored frame (frame.go)
// gets to splice a large item instead of copying it.  Decoders see the
// whole body, items field included.
type ItemsMarshaler interface {
	Marshaler
	WireItems() [][]byte
}

// PayloadReleaser is implemented by records whose payload items are
// refcounted slab views: once the far side has the bytes the
// sender-side views are dead weight and can go back to their slab.
// Every link that encodes a payload (netsim, sockets) releases through
// it — after the encode when the frame holds a copy, after the frame
// has been read when it borrows (Frame.Borrows).
type PayloadReleaser interface{ ReleaseWirePayload() }

// appendHeader appends a frame header with a known payload length.
func appendHeader(dst []byte, tag byte, n int) []byte {
	return append(dst, tag, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
}

// openFrame appends a header with a zero length to be backfilled by
// closeFrame once the payload has been appended.  It returns the offset
// of the header.
func openFrame(dst []byte, tag byte) ([]byte, int) {
	start := len(dst)
	return append(dst, tag, 0, 0, 0, 0), start
}

// closeFrame backfills the length: what was appended since openFrame
// plus the spliced bytes that are not in dst.
func closeFrame(dst []byte, start, spliced int) []byte {
	n := len(dst) - start - HeaderBytes + spliced
	binary.BigEndian.PutUint32(dst[start+1:start+HeaderBytes], uint32(n))
	return dst
}

// Append encodes v as one frame appended to dst.  Fast paths cover
// []byte, string, int64, [][]byte and Marshaler records; anything else
// rides the gob fallback inside a TagGob frame.  On error dst is
// returned truncated to its original length.
func Append(dst []byte, v any) ([]byte, error) { return appendFrame(dst, v, nil) }

// appendFrame is the one encoder.  With sp nil it is Append: every byte
// of the frame lands in dst.  With sp set (Frame.Encode) the items of an
// ItemsMarshaler at or above SpliceCutoff are recorded in *sp instead.
func appendFrame(dst []byte, v any, sp *[]splice) ([]byte, error) {
	switch x := v.(type) {
	case []byte:
		dst = appendHeader(dst, TagBytes, len(x))
		return append(dst, x...), nil
	case string:
		dst = appendHeader(dst, TagString, len(x))
		return append(dst, x...), nil
	case int64:
		dst, start := openFrame(dst, TagInt64)
		dst = binary.AppendVarint(dst, x)
		return closeFrame(dst, start, 0), nil
	case [][]byte:
		dst, start := openFrame(dst, TagByteSlices)
		dst = AppendItemsField(dst, x)
		return closeFrame(dst, start, 0), nil
	}
	if m, ok := v.(Marshaler); ok {
		dst, start := openFrame(dst, TagRecord)
		dst = binary.AppendUvarint(dst, uint64(m.WireID()))
		out, err := m.AppendWire(dst)
		if err != nil {
			return dst[:start], err
		}
		spliced := 0
		if im, ok := m.(ItemsMarshaler); ok {
			out, spliced = appendItems(out, im.WireItems(), sp)
		}
		return closeFrame(out, start, spliced), nil
	}
	return appendGob(dst, v)
}

// appendGob is the fallback kept out of Append's body: gob's Encode
// takes the value's address, and doing that inline would move Append's
// parameter to the heap on every call — one hidden allocation per frame
// even on the fast paths.
func appendGob(dst []byte, v any) ([]byte, error) {
	start := len(dst)
	buf := gobBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := gob.NewEncoder(buf).Encode(&v)
	if err != nil {
		gobBufPool.Put(buf)
		return dst[:start], err
	}
	dst = appendHeader(dst, TagGob, buf.Len())
	dst = append(dst, buf.Bytes()...)
	gobBufPool.Put(buf)
	return dst, nil
}

// Decode parses one frame from the front of b, returning the decoded
// value and the number of bytes consumed.  The value never aliases b.
func Decode(b []byte) (any, int, error) { return decode(b, nil, nil) }

// DecodeIn is Decode with the Arena's copy rule for a value's bytes: a
// TagBytes value, the items of a TagByteSlices vector and a record's
// items are copied through a (Arena.Copy; ReadItemsFieldViewInto with no
// owner), so small ones share its blocks.  With a nil a every copy is an
// allocation of its own.  The value never aliases b.
func DecodeIn(b []byte, a *Arena) (any, int, error) { return decode(b, nil, a) }

// decode is the one decode body.  owner is the live slab view b lies in
// (FrameReader.Next) or nil; only a record's large items use it, as
// sub-views of owner instead of copies (Record).
func decode(b, owner []byte, a *Arena) (any, int, error) {
	if len(b) < HeaderBytes {
		return nil, 0, ErrTruncated
	}
	tag := b[0]
	n := int(binary.BigEndian.Uint32(b[1:HeaderBytes]))
	if n < 0 || n > len(b)-HeaderBytes {
		return nil, 0, ErrTruncated
	}
	payload := b[HeaderBytes : HeaderBytes+n]
	total := HeaderBytes + n
	switch tag {
	case TagBytes:
		return a.Copy(payload), total, nil
	case TagString:
		return string(payload), total, nil
	case TagInt64:
		v, k := binary.Varint(payload)
		if k <= 0 || k != len(payload) {
			return nil, 0, fmt.Errorf("%w: int64 varint", ErrMalformed)
		}
		return v, total, nil
	case TagByteSlices:
		// Into an empty vector, not nil: an empty vector decodes to one.
		items, k, err := ReadItemsFieldViewInto([][]byte{}, payload, nil, a)
		if err != nil {
			return nil, 0, err
		}
		if k != len(payload) {
			return nil, 0, fmt.Errorf("%w: trailing bytes after item vector", ErrMalformed)
		}
		return items, total, nil
	case TagRecord:
		id, k := binary.Uvarint(payload)
		if k <= 0 || id > 0xFFFF {
			return nil, 0, fmt.Errorf("%w: record id varint", ErrMalformed)
		}
		r, ok := registry[uint16(id)]
		if !ok {
			return nil, 0, fmt.Errorf("%w: id %d", ErrUnknownType, id)
		}
		v, err := r.decode(payload[k:], owner, a)
		if err != nil {
			return nil, 0, err
		}
		return v, total, nil
	case TagGob:
		var v any
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&v); err != nil {
			return nil, 0, fmt.Errorf("%w: gob fallback: %v", ErrMalformed, err)
		}
		return v, total, nil
	default:
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
}

// --- field helpers for Marshaler implementations -------------------

// AppendUvarintField appends v as an unsigned varint.
func AppendUvarintField(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// ReadUvarintField reads an unsigned varint from the front of b.
func ReadUvarintField(b []byte) (uint64, int, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, 0, fmt.Errorf("%w: uvarint field", ErrMalformed)
	}
	return v, k, nil
}

// AppendVarintField appends v as a signed varint.
func AppendVarintField(dst []byte, v int64) []byte {
	return binary.AppendVarint(dst, v)
}

// ReadVarintField reads a signed varint from the front of b.
func ReadVarintField(b []byte) (int64, int, error) {
	v, k := binary.Varint(b)
	if k <= 0 {
		return 0, 0, fmt.Errorf("%w: varint field", ErrMalformed)
	}
	return v, k, nil
}

// AppendBytesField appends a length-prefixed byte field.
func AppendBytesField(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// BorrowBytesField reads a length-prefixed byte or string field and
// returns it in place, a sub-slice of b, for a caller that converts it
// itself (an intern table).
func BorrowBytesField(b []byte) ([]byte, int, error) {
	n, k, err := ReadUvarintField(b)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(b)-k) < n {
		return nil, 0, fmt.Errorf("%w: short field", ErrTruncated)
	}
	end := k + int(n)
	return b[k:end:end], end, nil
}

// AppendStringField appends a length-prefixed string field.
func AppendStringField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadStringField reads a length-prefixed string field.
func ReadStringField(b []byte) (string, int, error) {
	p, end, err := BorrowBytesField(b)
	return string(p), end, err
}

// AppendItemsField appends a vector of byte slices: uvarint count, then
// per-item uvarint length + bytes.  This is the honest on-wire shape of
// a batched payload — every item pays its own header.
func AppendItemsField(dst []byte, items [][]byte) []byte {
	dst, _ = appendItems(dst, items, nil)
	return dst
}

// appendItems appends the items field.  With sp set, an item of
// SpliceCutoff bytes or more is not copied: its place in dst and the
// caller's slice go on *sp, and the second result counts those bytes.
func appendItems(dst []byte, items [][]byte, sp *[]splice) ([]byte, int) {
	spliced := 0
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(len(it)))
		if sp != nil && len(it) >= SpliceCutoff {
			*sp = append(*sp, splice{Off: len(dst), Data: it})
			spliced += len(it)
			continue
		}
		dst = append(dst, it...)
	}
	return dst, spliced
}

// ReadItemsField reads a vector of byte slices.  Every item is a fresh
// copy: ReadItemsFieldViewInto with no owner and no arena.
func ReadItemsField(b []byte) ([][]byte, int, error) {
	return ReadItemsFieldViewInto(nil, b, nil, nil)
}

// ItemsFieldSize returns the encoded size of AppendItemsField(items)
// without encoding it — used by netsim's on-wire byte accounting.
func ItemsFieldSize(items [][]byte) int {
	n := uvarintLen(uint64(len(items)))
	for _, it := range items {
		n += uvarintLen(uint64(len(it))) + len(it)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

var gobBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
