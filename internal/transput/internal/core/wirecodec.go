// Compact wire encodings for the hot stream-protocol records.  The
// Transfer/Deliver request and reply records cross a simulated node
// boundary once per exchange; encoding them through internal/wire
// instead of gob removes the per-hop type-description traffic and the
// reflective walk.  The control-plane records (Channels, Abort) stay on
// the gob fallback — they run once per stream, not once per batch.
//
// Each record is a wire.Record registered with its pool by id, which
// keeps internal/wire free of an import of this package.  Ids are part
// of the simulated wire format; renumbering them is a protocol change.
package core

import (
	"fmt"

	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// Wire record ids for this package's records.
const (
	wireIDTransferRequest = 1
	wireIDTransferReply   = 2
	wireIDDeliverRequest  = 3
	wireIDDeliverReply    = 4
)

func init() {
	wire.Register(TransferRequests)
	wire.Register(TransferReplies)
	wire.Register(DeliverRequests)
	wire.Register(DeliverReplies)
}

// Every decoded record comes from these pools, and so does every reply a
// channel serves into no record of its sender's (TransferRequest.Reply).
// A reply goes back once its client has absorbed it (or a link has
// encoded it: ReleaseWirePayload), and a decoded request once its serving
// face has read it (a Transfer) or absorbed its items (a Deliver).  A
// record that reaches no releaser falls to the GC; the pools are
// best-effort.  A vector goes back with its record, emptied.
var (
	TransferRequests = wire.NewPool(func(r *TransferRequest) *bool { return &r.pooled }, nil)
	TransferReplies  = wire.NewPool(func(r *TransferReply) *bool { return &r.pooled }, (*TransferReply).reset)
	DeliverRequests  = wire.NewPool(func(r *DeliverRequest) *bool { return &r.pooled },
		func(r *DeliverRequest) { clear(r.Items); *r = DeliverRequest{Items: r.Items[:0]} })
	DeliverReplies = wire.NewPool(func(r *DeliverReply) *bool { return &r.pooled }, nil)
)

// --- ChannelID -----------------------------------------------------

func appendChannelID(dst []byte, c ChannelID) []byte {
	dst = wire.AppendVarintField(dst, int64(c.Num))
	b := c.Cap.Bytes()
	return append(dst, b[:]...)
}

func readChannelID(b []byte) (ChannelID, int, error) {
	num, k, err := wire.ReadVarintField(b)
	if err != nil {
		return ChannelID{}, 0, err
	}
	if len(b)-k < 16 {
		return ChannelID{}, 0, fmt.Errorf("%w: short channel capability", wire.ErrTruncated)
	}
	var cap16 [16]byte
	copy(cap16[:], b[k:k+16])
	return ChannelID{Num: ChannelNum(num), Cap: uid.FromBytes(cap16)}, k + 16, nil
}

// --- TransferRequest -----------------------------------------------

// WireID implements wire.Marshaler.
func (r *TransferRequest) WireID() uint16 { return wireIDTransferRequest }

// AppendWire implements wire.Marshaler.
func (r *TransferRequest) AppendWire(dst []byte) ([]byte, error) {
	dst = appendChannelID(dst, r.Channel)
	return wire.AppendVarintField(dst, int64(r.Max)), nil
}

// ReadWire implements wire.Record.
func (r *TransferRequest) ReadWire(b, _ []byte, _ *wire.Arena) (int, error) {
	ch, k, err := readChannelID(b)
	if err != nil {
		return 0, err
	}
	max, n, err := wire.ReadVarintField(b[k:])
	r.Channel, r.Max = ch, int(max)
	return k + n, err
}

// --- TransferReply -------------------------------------------------

// WireID implements wire.Marshaler.
func (r *TransferReply) WireID() uint16 { return wireIDTransferReply }

// AppendWire implements wire.Marshaler: the scalars; the encoder
// appends the items field after them (wire.ItemsMarshaler).
func (r *TransferReply) AppendWire(dst []byte) ([]byte, error) {
	dst = wire.AppendVarintField(dst, int64(r.Status))
	dst = wire.AppendStringField(dst, r.AbortMsg)
	dst = wire.AppendVarintField(dst, r.Base)
	return wire.AppendVarintField(dst, int64(r.Backlog)), nil
}

// WireItems implements wire.ItemsMarshaler.
func (r *TransferReply) WireItems() [][]byte { return r.Items }

// readWireItems reads an item-bearing record's last field into dst
// (wire.ReadItemsFieldViewInto).  An empty vector decodes to nil,
// whatever dst held.
func readWireItems(dst [][]byte, b, owner []byte, a *wire.Arena) ([][]byte, int, error) {
	dst, n, err := wire.ReadItemsFieldViewInto(dst, b, owner, a)
	if len(dst) == 0 {
		dst = nil
	}
	return dst, n, err
}

// ReadWire implements wire.Record: Items of wire.SpliceCutoff bytes or
// more alias the receive buffer as tracked sub-views of owner, which the
// receiving port owns and releases; smaller ones are copies in a.
func (r *TransferReply) ReadWire(b, owner []byte, a *wire.Arena) (int, error) {
	st, k, err := wire.ReadVarintField(b)
	if err != nil {
		return 0, err
	}
	r.Status = Status(st)
	msg, n, err := wire.ReadStringField(b[k:])
	if err != nil {
		return 0, err
	}
	r.AbortMsg = msg
	k += n
	base, n, err := wire.ReadVarintField(b[k:])
	if err != nil {
		return 0, err
	}
	r.Base = base
	k += n
	backlog, n, err := wire.ReadVarintField(b[k:])
	if err != nil {
		return 0, err
	}
	r.Backlog = int(backlog)
	k += n
	r.Items, n, err = readWireItems(r.Items, b[k:], owner, a)
	return k + n, err
}

// ReleaseWirePayload lets a link hand slab views back after an encoded
// cross-node hop: the decoded copy supersedes the original, so the
// sender-side views are done — and so is the record, if it is the
// pool's (a server's reply, which nothing reads once it is sent).
// Tolerant of ordinary heap items.
func (r *TransferReply) ReleaseWirePayload() {
	wire.ReleaseAll(r.Items)
	TransferReplies.Put(r)
}

// reset empties the record for its next life, keeping the vector's
// capacity.
func (r *TransferReply) reset() { clear(r.Items); *r = TransferReply{Items: r.Items[:0]} }

// --- DeliverRequest ------------------------------------------------

// WireID implements wire.Marshaler.
func (r *DeliverRequest) WireID() uint16 { return wireIDDeliverRequest }

// AppendWire implements wire.Marshaler — see TransferReply.AppendWire.
func (r *DeliverRequest) AppendWire(dst []byte) ([]byte, error) {
	dst = appendChannelID(dst, r.Channel)
	if r.End {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	w := r.Writer.Bytes()
	dst = append(dst, w[:]...)
	return wire.AppendVarintField(dst, r.Base), nil
}

// WireItems implements wire.ItemsMarshaler.
func (r *DeliverRequest) WireItems() [][]byte { return r.Items }

// ReadWire implements wire.Record — see TransferReply.ReadWire.
func (r *DeliverRequest) ReadWire(b, owner []byte, a *wire.Arena) (int, error) {
	ch, k, err := readChannelID(b)
	if err != nil {
		return 0, err
	}
	r.Channel = ch
	if len(b)-k < 1+16 {
		return 0, fmt.Errorf("%w: short deliver header", wire.ErrTruncated)
	}
	r.End = b[k] == 1
	k++
	var w16 [16]byte
	copy(w16[:], b[k:k+16])
	r.Writer = uid.FromBytes(w16)
	k += 16
	base, n, err := wire.ReadVarintField(b[k:])
	if err != nil {
		return 0, err
	}
	r.Base = base
	k += n
	r.Items, n, err = readWireItems(r.Items, b[k:], owner, a)
	return k + n, err
}

// ReleaseWirePayload — see TransferReply.ReleaseWirePayload.  A link
// calls it on the sender's request, a Pusher's own, which stays the
// Pusher's; a decoded request that reaches no server goes back to the
// pool.  When every item is one of the Pusher's copies (copies set), the
// large ones also go back to its arena for its next Put.
func (r *DeliverRequest) ReleaseWirePayload() {
	wire.ReleaseAll(r.Items)
	r.Copies.Reclaim(r.Items)
	r.Copies = nil
	DeliverRequests.Put(r)
}

// --- DeliverReply --------------------------------------------------

// WireID implements wire.Marshaler.
func (r *DeliverReply) WireID() uint16 { return wireIDDeliverReply }

// AppendWire implements wire.Marshaler.
func (r *DeliverReply) AppendWire(dst []byte) ([]byte, error) {
	dst = wire.AppendVarintField(dst, int64(r.Status))
	dst = wire.AppendStringField(dst, r.AbortMsg)
	return wire.AppendVarintField(dst, int64(r.Credits)), nil
}

// ReadWire implements wire.Record.
func (r *DeliverReply) ReadWire(b, _ []byte, _ *wire.Arena) (int, error) {
	st, k, err := wire.ReadVarintField(b)
	if err != nil {
		return 0, err
	}
	r.Status = Status(st)
	msg, n, err := wire.ReadStringField(b[k:])
	if err != nil {
		return 0, err
	}
	r.AbortMsg = msg
	k += n
	credits, n, err := wire.ReadVarintField(b[k:])
	r.Credits = int(credits)
	return k + n, err
}

// ReleaseWirePayload recycles a pool record once an encoded hop has
// superseded it — see TransferReply.ReleaseWirePayload.  It holds no
// views.
func (r *DeliverReply) ReleaseWirePayload() { DeliverReplies.Put(r) }
