// Compact wire encodings for the hot stream-protocol records.  The
// Transfer/Deliver request and reply records cross a simulated node
// boundary once per exchange; encoding them through internal/wire
// instead of gob removes the per-hop type-description traffic and the
// reflective walk.  The control-plane records (Channels, Abort) stay on
// the gob fallback — they run once per stream, not once per batch.
//
// The decoders are registered with the wire package by id, which keeps
// internal/wire free of an import of this package.  Ids are part of the
// simulated wire format; renumbering them is a protocol change.
package transput

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
	wire.Register(wireIDTransferRequest, "transput.TransferRequest", decodeTransferRequest)
	wire.Register(wireIDTransferReply, "transput.TransferReply", decodeTransferReply)
	wire.Register(wireIDDeliverRequest, "transput.DeliverRequest", decodeDeliverRequest)
	wire.Register(wireIDDeliverReply, "transput.DeliverReply", decodeDeliverReply)

	// The two item-bearing records also get in-place decoders: a real
	// transport's read loop (wire.FrameReader) decodes them straight out
	// of the receive buffer, and the receiving port owns the items it is
	// handed (wire.ReadItemsFieldViewInto: large ones as slab sub-views,
	// small ones copied into the reader's arena) — the same
	// ownership-transfer contract a local hop uses, now across a socket.
	//
	// All four decoders take their record from a pool: a reply from the
	// reply pools, which the client releases, and a request from the
	// request pools, which the serving face releases once it has read the
	// request (a Transfer) or absorbed its items (a Deliver).
	wire.RegisterView(wireIDTransferReply, decodeTransferReplyView)
	wire.RegisterView(wireIDDeliverRequest, decodeDeliverRequestView)
}

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

func decodeTransferRequest(b []byte) (any, error) {
	r := acquireTransferRequest()
	if err := r.readWire(b); err != nil {
		releaseTransferRequest(r)
		return nil, err
	}
	return r, nil
}

func (r *TransferRequest) readWire(b []byte) error {
	ch, k, err := readChannelID(b)
	if err != nil {
		return err
	}
	max, _, err := wire.ReadVarintField(b[k:])
	r.Channel, r.Max = ch, int(max)
	return err
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

func decodeTransferReply(b []byte) (any, error) { return readTransferReply(b, nil, nil) }

// decodeTransferReplyView is the in-place dual of decodeTransferReply:
// Items of wire.SpliceCutoff bytes or more alias the receive buffer as
// tracked sub-views of owner, which the caller (and ultimately the
// receiving port) owns and releases; smaller ones are copies in the
// frame reader's arena a.
func decodeTransferReplyView(b, owner []byte, a *wire.Arena) (any, error) {
	return readTransferReply(b, owner, a)
}

// readTransferReply decodes into a record of the reply pool — the
// receiving port releases it as it does a local server's — and, for a
// view, into the item vector the record brings with it.
func readTransferReply(b, owner []byte, a *wire.Arena) (any, error) {
	r := acquireTransferReply(0)
	if err := r.readWire(b, owner, a); err != nil {
		releaseTransferReply(r)
		return nil, err
	}
	return r, nil
}

// readWireItems reads an item-bearing record's last field into dst: in
// place when a frame reader passed its arena (wire.ReadItemsFieldViewInto),
// as heap copies for the copying decoder, which has none.  An empty
// vector decodes to nil, whatever dst held.
func readWireItems(dst [][]byte, b, owner []byte, a *wire.Arena) ([][]byte, error) {
	var err error
	if a != nil {
		dst, _, err = wire.ReadItemsFieldViewInto(dst, b, owner, a)
	} else {
		dst, _, err = wire.ReadItemsField(b)
	}
	if len(dst) == 0 {
		dst = nil
	}
	return dst, err
}

func (r *TransferReply) readWire(b, owner []byte, a *wire.Arena) error {
	st, k, err := wire.ReadVarintField(b)
	if err != nil {
		return err
	}
	r.Status = Status(st)
	msg, n, err := wire.ReadStringField(b[k:])
	if err != nil {
		return err
	}
	r.AbortMsg = msg
	k += n
	base, n, err := wire.ReadVarintField(b[k:])
	if err != nil {
		return err
	}
	r.Base = base
	k += n
	backlog, n, err := wire.ReadVarintField(b[k:])
	if err != nil {
		return err
	}
	r.Backlog = int(backlog)
	r.Items, err = readWireItems(r.Items, b[k+n:], owner, a)
	return err
}

// ReleaseWirePayload lets a link hand slab views back after an encoded
// cross-node hop: the decoded copy supersedes the original, so the
// sender-side views are done — and so is the record, if it is the
// pool's (a server's reply, which nothing reads once it is sent).
// Tolerant of ordinary heap items.
func (r *TransferReply) ReleaseWirePayload() {
	wire.ReleaseAll(r.Items)
	if r.pooled {
		releaseTransferReply(r)
	}
}

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
	return wire.AppendUvarintField(dst, r.Seq), nil
}

// WireItems implements wire.ItemsMarshaler.
func (r *DeliverRequest) WireItems() [][]byte { return r.Items }

func decodeDeliverRequest(b []byte) (any, error) { return readDeliverRequest(b, nil, nil) }

// decodeDeliverRequestView is the in-place dual of
// decodeDeliverRequest — see decodeTransferReplyView.
func decodeDeliverRequestView(b, owner []byte, a *wire.Arena) (any, error) {
	return readDeliverRequest(b, owner, a)
}

// readDeliverRequest decodes into a record of the request pool, and its
// item vector into the one the record brings with it; the serving face
// releases both once the items are absorbed.
func readDeliverRequest(b, owner []byte, a *wire.Arena) (any, error) {
	r := acquireDeliverRequest()
	if err := r.readWire(b, owner, a); err != nil {
		releaseDeliverRequest(r)
		return nil, err
	}
	return r, nil
}

func (r *DeliverRequest) readWire(b, owner []byte, a *wire.Arena) error {
	ch, k, err := readChannelID(b)
	if err != nil {
		return err
	}
	r.Channel = ch
	if len(b)-k < 1+16 {
		return fmt.Errorf("%w: short deliver header", wire.ErrTruncated)
	}
	r.End = b[k] == 1
	k++
	var w16 [16]byte
	copy(w16[:], b[k:k+16])
	r.Writer = uid.FromBytes(w16)
	k += 16
	seq, n, err := wire.ReadUvarintField(b[k:])
	if err != nil {
		return err
	}
	r.Seq = seq
	r.Items, err = readWireItems(r.Items, b[k+n:], owner, a)
	return err
}

// ReleaseWirePayload — see TransferReply.ReleaseWirePayload.  A link
// calls it on the sender's request, a Pusher's own, which stays the
// Pusher's; a decoded request that reaches no server goes back to the
// pool.
func (r *DeliverRequest) ReleaseWirePayload() {
	wire.ReleaseAll(r.Items)
	releaseDeliverRequest(r)
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

func decodeDeliverReply(b []byte) (any, error) {
	r := acquireDeliverReply()
	if err := r.readWire(b); err != nil {
		releaseDeliverReply(r)
		return nil, err
	}
	return r, nil
}

func (r *DeliverReply) readWire(b []byte) error {
	st, k, err := wire.ReadVarintField(b)
	if err != nil {
		return err
	}
	r.Status = Status(st)
	msg, n, err := wire.ReadStringField(b[k:])
	if err != nil {
		return err
	}
	r.AbortMsg = msg
	k += n
	credits, _, err := wire.ReadVarintField(b[k:])
	r.Credits = int(credits)
	return err
}

// ReleaseWirePayload recycles a pool record once an encoded hop has
// superseded it — see TransferReply.ReleaseWirePayload.  It holds no
// views.
func (r *DeliverReply) ReleaseWirePayload() {
	if r.pooled {
		releaseDeliverReply(r)
	}
}
