package transport_test

import (
	"bytes"
	"errors"
	"testing"

	"asymstream/internal/transport"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// recordFrame frames body as the record with the given id (below 128,
// so its varint is the byte), the way wire.Append would.
func recordFrame(id byte, body []byte) []byte {
	n := 1 + len(body)
	return append([]byte{wire.TagRecord, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), id}, body...)
}

// recordErr is the Err of a decoded bridge record.
func recordErr(t *testing.T, v any) error {
	switch r := v.(type) {
	case *transport.RPCRequest:
		return r.Err()
	case *transport.RPCReply:
		return r.Err()
	}
	t.Fatalf("decoded a %T from a bridge record id", v)
	return nil
}

// FuzzBridgeRecords feeds arbitrary bytes to the bridge's two record
// decoders, which internal/wire's FuzzDecode cannot reach.  Hostile
// input is an error and never a panic; a record that does decode does
// not alias the input, and if it decoded whole it round-trips and stops
// doing so with one byte more after its nested frame.
func FuzzBridgeRecords(f *testing.F) {
	values := []any{spliced}
	for _, sh := range bridgeShapes {
		if b, ok := sh.v.([]byte); ok && len(b) > 1<<16 {
			continue // a megabyte to mutate, to reach the branch the short one reaches
		}
		values = append(values, sh.v)
	}
	records := []any{&transport.RPCReply{ID: 9, ErrMsg: "no such Eject"}}
	for _, v := range values {
		records = append(records,
			&transport.RPCRequest{ID: 7, Target: uid.UID{Hi: 1, Lo: 2}, Op: "Op", Value: v},
			&transport.RPCReply{ID: 1 << 40, Value: v})
	}
	for _, rec := range records {
		enc, err := wire.Append(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[wire.HeaderBytes+1:])
	}
	// Records as records' values, which must stop at the second level:
	// TestBridgeRecordsDoNotNest has the depth mutation will not reach.
	f.Add(nestedRecords(33, []byte{1, 0}, 4)[wire.HeaderBytes+1:])
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, id := range []byte{32, 33} {
			frame := recordFrame(id, body)
			v, n, err := wire.Decode(frame)
			if err != nil {
				continue
			}
			if n != len(frame) {
				t.Fatalf("id %d: consumed %d of %d bytes", id, n, len(frame))
			}
			enc, err := wire.Append(nil, v)
			if err != nil {
				continue // a gob value that decodes but does not encode is gob's
			}
			for i := range frame {
				frame[i] ^= 0xff
			}
			if again, _ := wire.Append(nil, v); !bytes.Equal(enc, again) {
				t.Fatalf("id %d: the decoded record aliases its input", id)
			}
			if recordErr(t, v) != nil {
				continue
			}
			back, _, err := wire.Decode(enc)
			if err != nil || recordErr(t, back) != nil {
				t.Fatalf("id %d: re-decode: %v, %v", id, err, back)
			}
			if again, _ := wire.Append(nil, back); !bytes.Equal(enc, again) {
				t.Fatalf("id %d: the record does not round-trip", id)
			}
			longer := append(append([]byte(nil), body...), 0)
			if v, _, err := wire.Decode(recordFrame(id, longer)); err == nil && !errors.Is(recordErr(t, v), wire.ErrMalformed) {
				t.Fatalf("id %d: a byte after the nested frame went unnoticed", id)
			}
		}
	})
}
