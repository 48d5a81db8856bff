package transport_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// recordFrame frames body as the record with the given id (below 128,
// so its varint is the byte), the way wire.Append would.
func recordFrame(id uint16, body []byte) []byte {
	n := 1 + len(body)
	return append([]byte{wire.TagRecord, byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), byte(id)}, body...)
}

// recordErr is the failure a decoded record carries in place of a value
// (a bridge record's Err), nil for a record that has none.  A far
// kernel's error is a reply's field, which encodes, and not a failure.
func recordErr(v any) error {
	if r, ok := v.(interface{ Err() error }); ok && !errors.As(r.Err(), new(*kernel.RemoteError)) {
		return r.Err()
	}
	return nil
}

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameRecord reports whether two decoded records carry the same fields,
// whichever pool (if any) each came from: they encode alike and carry the
// same error.  A value that decodes but does not encode is gob's; two
// such compare by the encode error.
func sameRecord(a, b any) bool {
	ea, errA := wire.Append(nil, a)
	eb, errB := wire.Append(nil, b)
	return bytes.Equal(ea, eb) && errText(errA) == errText(errB) &&
		errText(recordErr(a)) == errText(recordErr(b))
}

// freshRecord is a zero record of type id that no pool issued.
func freshRecord(t testing.TB, id uint16) wire.Record {
	for _, r := range wire.Records() {
		if r.WireID() == id {
			return r
		}
	}
	t.Fatalf("no record %d registered", id)
	return nil
}

// readFresh decodes body into fresh by the registry's rule: the body
// must parse and end where the record does.
func readFresh(fresh wire.Record, body []byte) error {
	n, err := fresh.ReadWire(body, nil, nil)
	if err == nil && n != len(body) {
		err = wire.ErrMalformed
	}
	return err
}

// sampleRecords is one record of each registered type, fields set.
var sampleRecords = []wire.Marshaler{
	&transput.TransferRequest{Channel: transput.CapChan(uid.UID{Hi: 5, Lo: 6}), Max: 64},
	spliced,
	&transput.DeliverRequest{Channel: transput.Chan(2), Items: [][]byte{[]byte("x"), nil, []byte("yz")},
		End: true, Writer: uid.UID{Hi: 1, Lo: 9}, Base: 12},
	&transput.DeliverReply{Status: transput.StatusAborted, AbortMsg: "gone", Credits: 3},
	&transport.RPCRequest{ID: 7, Target: uid.UID{Hi: 1, Lo: 2}, Op: "Op", Value: "v"},
	transport.FailedReply(9, &kernel.RemoteError{Code: "no_such_eject", Msg: "kernel: no such Eject"}),
}

// TestEverySampleRecordIsRegistered keeps sampleRecords, and the rows of
// the tests below, in step with the registry.
func TestEverySampleRecordIsRegistered(t *testing.T) {
	ids := make(map[uint16]bool)
	for _, r := range sampleRecords {
		ids[r.WireID()] = true
	}
	for _, r := range wire.Records() {
		if !ids[r.WireID()] {
			t.Errorf("record %d (%T) has no sample", r.WireID(), r)
		}
	}
}

// TestRecordsEncodeAsRecords: every protocol record takes its own
// encoding, never the gob fallback (which the four transput records are
// not registered with).
func TestRecordsEncodeAsRecords(t *testing.T) {
	for _, r := range sampleRecords {
		enc, err := wire.Append(nil, r)
		if err != nil {
			t.Fatalf("%T: %v", r, err)
		}
		if enc[0] != wire.TagRecord {
			t.Errorf("%T: tag %d, want TagRecord (%d)", r, enc[0], wire.TagRecord)
		}
	}
}

// TestRecordsRejectTrailingBytes: a body with bytes after its last field
// is malformed, on both decode paths — a decode error, or for a bridge
// record the record's own error, so the connection stays in sync.
func TestRecordsRejectTrailingBytes(t *testing.T) {
	var arena wire.Arena
	for _, r := range sampleRecords {
		enc, err := wire.Append(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		frame := recordFrame(r.WireID(), append(enc[wire.HeaderBytes+1:len(enc):len(enc)], 0, 0))
		for name, a := range map[string]*wire.Arena{"Decode": nil, "DecodeIn": &arena} {
			v, _, err := wire.DecodeIn(frame, a)
			if !errors.Is(err, wire.ErrMalformed) && !errors.Is(recordErr(v), wire.ErrMalformed) {
				t.Errorf("%s %T with two bytes more: %v, %v; want wire.ErrMalformed", name, r, v, err)
			}
			wire.Recycle(v)
		}
	}
}

// fuzzArena is the read loop's arena for FuzzRecords: one for every
// input, as one connection's reader has.
var fuzzArena wire.Arena

// FuzzRecords feeds arbitrary bytes to every registered record's decoder
// through both paths: wire.Decode, and wire.DecodeIn with an arena shared
// across inputs, which is the read loop's.  Both decode into pooled
// records, which go back to their pools after each input, so every
// record after the first few is a recycled one.  Hostile input is an
// error and never a panic; the two paths agree with a decode into a
// record no pool issued, so no field survives reuse; a record that does
// decode does not alias the input, and if it decoded whole it
// round-trips and stops doing so with one byte more.
func FuzzRecords(f *testing.F) {
	records := append([]wire.Marshaler(nil), sampleRecords...)
	for _, sh := range bridgeShapes {
		if b, ok := sh.v.([]byte); ok && len(b) > 1<<16 {
			continue // a megabyte to mutate, to reach the branch the short one reaches
		}
		records = append(records,
			&transport.RPCRequest{ID: 7, Target: uid.UID{Hi: 1, Lo: 2}, Op: "Op", Value: sh.v},
			&transport.RPCReply{ID: 1 << 40, Value: sh.v})
	}
	records = append(records, &transport.RPCReply{ID: 3, Value: spliced})
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
		for _, fresh := range wire.Records() {
			fuzzRecord(t, fresh, body)
		}
	})
}

// fuzzRecord is FuzzRecords on one record type.
func fuzzRecord(t *testing.T, fresh wire.Record, body []byte) {
	id := fresh.WireID()
	frame := recordFrame(id, body)
	freshErr := readFresh(fresh, body)
	v, n, err := wire.Decode(frame)
	w, m, werr := wire.DecodeIn(frame, &fuzzArena)
	defer wire.Recycle(v)
	defer wire.Recycle(w)
	if (err == nil) != (freshErr == nil) || (werr == nil) != (freshErr == nil) {
		t.Fatalf("id %d: Decode %v, DecodeIn %v, a fresh record %v", id, err, werr, freshErr)
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
	if recordErr(v) != nil {
		return
	}
	back, _, err := wire.Decode(enc)
	defer wire.Recycle(back)
	if err != nil || recordErr(back) != nil {
		t.Fatalf("id %d: re-decode: %v, %v", id, err, back)
	}
	if again, _ := wire.Append(nil, back); !bytes.Equal(enc, again) {
		t.Fatalf("id %d: the record does not round-trip", id)
	}
	longer := append(append([]byte(nil), body...), 0)
	u, _, err := wire.Decode(recordFrame(id, longer))
	defer wire.Recycle(u)
	if !errors.Is(err, wire.ErrMalformed) && !errors.Is(recordErr(u), wire.ErrMalformed) {
		t.Fatalf("id %d: a byte after the record went unnoticed: %v", id, err)
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

	badReply := append(wire.AppendUvarintField(nil, 3), 0) // ID 3, Msg ""
	badReply = append(badReply, 0xff, 0, 0, 0, 0)
	replies := [][]byte{
		body(&transport.RPCReply{ID: 1, Value: []byte("a value")}),
		body(transport.FailedReply(2, &kernel.RemoteError{Code: "no_such_eject", Msg: "remote failure"})),
		badReply,
	}
	requests := [][]byte{
		body(&transport.RPCRequest{ID: 4, Target: target, Op: "Echo", Value: [][]byte{[]byte("x")}}),
		badRequest,
	}
	var arena wire.Arena
	for name, a := range map[string]*wire.Arena{"Decode": nil, "DecodeIn": &arena} {
		decode := func(b []byte) (any, error) { v, _, err := wire.DecodeIn(b, a); return v, err }
		for _, kind := range []struct {
			id     uint16
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
					wire.Recycle(first)
					second, err := decode(recordFrame(kind.id, after))
					if err != nil {
						t.Fatal(err)
					}
					if !raceEnabled && second != first {
						t.Fatalf("%s: the pool did not hand the record back; the test checks nothing", name)
					}
					fresh := freshRecord(t, kind.id)
					if err := readFresh(fresh, after); err != nil || !sameRecord(second, fresh) {
						t.Errorf("%s, record %d, body %d after body %d: decoded %+v, want %+v (%v)", name, kind.id, j, i, second, fresh, err)
					}
					switch r := second.(type) {
					case *transport.RPCReply:
						if r.Err() != nil && r.Value != nil {
							t.Errorf("%s: an error reply after body %d kept the value %v", name, i, r.Value)
						}
					case *transport.RPCRequest:
						if r.ID == 5 && (r.Err() == nil || r.Value != nil) {
							t.Errorf("%s: a bad request after a good one: err %v, value %v", name, r.Err(), r.Value)
						}
					}
					wire.Recycle(second)
				}
			}
		}
	}
}

// TestBridgeReplyLayout pins the reply's bytes: a success is
// uvarint ID | "" | frame(Value), and a failure uvarint ID | Msg | Code,
// which reads back as the far kernel's error.  A failure without its
// code, or with bytes after it, is malformed.
func TestBridgeReplyLayout(t *testing.T) {
	value, _ := wire.Append(nil, "v")
	success := append([]byte{1, 0}, value...)
	failure := wire.AppendStringField(wire.AppendStringField([]byte{9}, "m"), "no_such_eject")
	for _, c := range []struct {
		rec  any
		body []byte
	}{
		{&transport.RPCReply{ID: 1, Value: "v"}, success},
		{transport.FailedReply(9, &kernel.RemoteError{Code: "no_such_eject", Msg: "m"}), failure},
	} {
		if enc, err := wire.Append(nil, c.rec); err != nil || !bytes.Equal(enc, recordFrame(33, c.body)) {
			t.Errorf("%+v encodes as % x (%v), want % x", c.rec, enc, err, recordFrame(33, c.body))
		}
	}
	v, _, err := wire.Decode(recordFrame(33, failure))
	var re *kernel.RemoteError
	if err != nil || !errors.As(v.(*transport.RPCReply).Err(), &re) || re.Msg != "m" || !errors.Is(re, kernel.ErrNoSuchEject) {
		t.Errorf("a failure decodes as %+v, %v", v, err)
	}
	wire.Recycle(v)
	for _, body := range [][]byte{failure[:3], append(failure[:len(failure):len(failure)], 0)} {
		v, _, err := wire.Decode(recordFrame(33, body))
		if err != nil || !errors.Is(recordErr(v), wire.ErrMalformed) {
			t.Errorf("% x: %v, %v; want the reply's own ErrMalformed", body, v, err)
		}
		wire.Recycle(v)
	}
}
