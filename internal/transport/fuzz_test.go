package transport_test

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
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

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameValue reports whether two decoded values encode alike.
func sameValue(a, b any) bool {
	ea, errA := wire.Append(nil, a)
	eb, errB := wire.Append(nil, b)
	if errA != nil || errB != nil {
		return errText(errA) == errText(errB) && reflect.DeepEqual(a, b)
	}
	return bytes.Equal(ea, eb)
}

// sameRecord reports whether two decoded bridge records carry the same
// fields, whichever pool (if any) each came from.
func sameRecord(a, b any) bool {
	switch x := a.(type) {
	case *transport.RPCRequest:
		y, ok := b.(*transport.RPCRequest)
		return ok && x.ID == y.ID && x.Target == y.Target && x.Op == y.Op &&
			errText(x.Err()) == errText(y.Err()) && sameValue(x.Value, y.Value)
	case *transport.RPCReply:
		y, ok := b.(*transport.RPCReply)
		return ok && x.ID == y.ID && x.ErrMsg == y.ErrMsg &&
			errText(x.Err()) == errText(y.Err()) && sameValue(x.Value, y.Value)
	}
	return false
}

// fuzzArena is the read loop's arena for FuzzBridgeRecords: one for
// every input, as one connection's reader has.
var fuzzArena wire.Arena

// FuzzBridgeRecords feeds arbitrary bytes to the bridge's two record
// decoders, which internal/wire's FuzzDecode cannot reach, through both
// paths: wire.Decode, and wire.DecodeViewIn with an arena shared across
// inputs, which is the read loop's.  Both decode into pooled records,
// which go back to their pools after each input, so every record after
// the first few is a recycled one.  Hostile input is an error and never
// a panic; the two paths agree with a decode into a record no pool
// issued, so no field survives reuse; a record that does decode does
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
			fuzzRecord(t, id, body)
		}
	})
}

// fuzzRecord is FuzzBridgeRecords on one record id.
func fuzzRecord(t *testing.T, id byte, body []byte) {
	frame := recordFrame(id, body)
	fresh, freshErr := transport.DecodeFresh(id, body)
	v, n, err := wire.Decode(frame)
	w, m, werr := wire.DecodeViewIn(frame, nil, &fuzzArena)
	defer transport.ReleaseRecord(v)
	defer transport.ReleaseRecord(w)
	if (err == nil) != (freshErr == nil) || (werr == nil) != (freshErr == nil) {
		t.Fatalf("id %d: Decode %v, DecodeViewIn %v, a fresh record %v", id, err, werr, freshErr)
	}
	if err != nil {
		return
	}
	if n != len(frame) || m != len(frame) {
		t.Fatalf("id %d: consumed %d and %d of %d bytes", id, n, m, len(frame))
	}
	if !sameRecord(v, fresh) || !sameRecord(w, fresh) {
		t.Fatalf("id %d: a pooled record differs from a fresh one: %+v, %+v, want %+v", id, v, w, fresh)
	}
	enc, err := wire.Append(nil, v)
	if err != nil {
		return // a gob value that decodes but does not encode is gob's
	}
	for i := range frame {
		frame[i] ^= 0xff
	}
	for _, r := range []any{v, w} {
		if again, _ := wire.Append(nil, r); !bytes.Equal(enc, again) {
			t.Fatalf("id %d: the decoded record aliases its input", id)
		}
	}
	if recordErr(t, v) != nil {
		return
	}
	back, _, err := wire.Decode(enc)
	defer transport.ReleaseRecord(back)
	if err != nil || recordErr(t, back) != nil {
		t.Fatalf("id %d: re-decode: %v, %v", id, err, back)
	}
	if again, _ := wire.Append(nil, back); !bytes.Equal(enc, again) {
		t.Fatalf("id %d: the record does not round-trip", id)
	}
	longer := append(append([]byte(nil), body...), 0)
	u, _, err := wire.Decode(recordFrame(id, longer))
	defer transport.ReleaseRecord(u)
	if err == nil && !errors.Is(recordErr(t, u), wire.ErrMalformed) {
		t.Fatalf("id %d: a byte after the nested frame went unnoticed", id)
	}
}

// TestBridgePooledRecordsCarryNothingOver decodes one record into a
// pooled record, releases it, and decodes a second into the same one,
// through both decode paths: a reply that failed after one that carried
// a value has no value, a request whose nested frame failed after a good
// one has its error and no value, and the other way about neither keeps
// the first one's error.
func TestBridgePooledRecordsCarryNothingOver(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // so a Put is the next Get
	target := uid.UID{Hi: 3, Lo: 4}
	body := func(rec any) []byte {
		enc, err := wire.Append(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		return enc[wire.HeaderBytes+1:]
	}
	badRequest := wire.AppendUvarintField(nil, 5)
	t16 := target.Bytes()
	badRequest = append(badRequest, t16[:]...)
	badRequest = wire.AppendStringField(badRequest, "Echo")
	badRequest = append(badRequest, 0xff, 0, 0, 0, 0) // no such tag

	badReply := append(wire.AppendUvarintField(nil, 3), 0) // ID 3, ErrMsg ""
	badReply = append(badReply, 0xff, 0, 0, 0, 0)
	replies := [][]byte{
		body(&transport.RPCReply{ID: 1, Value: []byte("a value")}),
		body(&transport.RPCReply{ID: 2, ErrMsg: "remote failure"}),
		badReply,
	}
	requests := [][]byte{
		body(&transport.RPCRequest{ID: 4, Target: target, Op: "Echo", Value: [][]byte{[]byte("x")}}),
		badRequest,
	}
	var arena wire.Arena
	decoders := map[string]func([]byte) (any, error){
		"Decode": func(b []byte) (any, error) { v, _, err := wire.Decode(b); return v, err },
		"DecodeViewIn": func(b []byte) (any, error) {
			v, _, err := wire.DecodeViewIn(b, nil, &arena)
			return v, err
		},
	}
	for name, decode := range decoders {
		for _, kind := range []struct {
			id     byte
			bodies [][]byte
		}{{33, replies}, {32, requests}} {
			for i, before := range kind.bodies {
				for j, after := range kind.bodies {
					if i == j {
						continue
					}
					first, err := decode(recordFrame(kind.id, before))
					if err != nil {
						t.Fatal(err)
					}
					transport.ReleaseRecord(first)
					second, err := decode(recordFrame(kind.id, after))
					if err != nil {
						t.Fatal(err)
					}
					if !raceEnabled && second != first {
						t.Fatalf("%s: the pool did not hand the record back; the test checks nothing", name)
					}
					fresh, _ := transport.DecodeFresh(kind.id, after)
					if !sameRecord(second, fresh) {
						t.Errorf("%s, record %d, body %d after body %d: decoded %+v, want %+v", name, kind.id, j, i, second, fresh)
					}
					switch r := second.(type) {
					case *transport.RPCReply:
						if r.ErrMsg != "" && r.Value != nil {
							t.Errorf("%s: an error reply after body %d kept the value %v", name, i, r.Value)
						}
					case *transport.RPCRequest:
						if r.ID == 5 && (r.Err() == nil || r.Value != nil) {
							t.Errorf("%s: a bad request after a good one: err %v, value %v", name, r.Err(), r.Value)
						}
					}
					transport.ReleaseRecord(second)
				}
			}
		}
	}
}
