// Package core is the one token both disciplines share (Chrobot &
// Daszczuk's dualism: one token, the initiative reversed): the wire
// protocol, the channel record behind every passive face, the channel
// table a passive port resolves requests through, and the exchange engine
// behind every active face.  The pull face (package pull: InPort,
// OutPort) and the push face (package push: Pusher, WOInPort) each import
// core and never each other; transput's layout test holds the rule.
//
// This file defines the wire protocol: operation names, request/reply
// records, status codes, and channel identifiers.  The Transfer and
// Deliver records are wire.Records (wirecodec.go); the control-plane
// records (Channels, Abort) still cross a node boundary as gob.
package core

import (
	"encoding/gob"
	"errors"
	"fmt"

	"asymstream/internal/uid"
	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/itemio"
)

// Operation names in the Eden invocation namespace.
const (
	// OpTransfer is the read-only discipline's single data-plane
	// operation (§7 calls it Transfer): "give me up to Max items from
	// channel C".  Invoking it is active input; responding is passive
	// output.
	OpTransfer = "Transput.Transfer"
	// OpDeliver is the write-only dual: "accept these items on channel
	// C".  Invoking it is active output; responding is passive input.
	OpDeliver = "Transput.Deliver"
	// OpChannels asks an Eject to advertise its channels: name →
	// ChannelID.  Whoever sets up a pipeline "must ask each filter for
	// the UIDs of its channels, and then pass them on" (§5).
	OpChannels = "Transput.Channels"
	// OpAbort tears a stream down out-of-band (not in the paper, but
	// any real deployment needs it; the paper's streams only end
	// normally).
	OpAbort = "Transput.Abort"
)

// ChannelNum identifies a channel in integer mode.  Channel 0 is the
// primary output by convention; reports use channel 1.
type ChannelNum int

// Conventional channel numbers used throughout the filter library.
const (
	ChannelOutput ChannelNum = 0
	ChannelReport ChannelNum = 1
)

// ChannelID qualifies a Transfer or Deliver.  Exactly one addressing
// mode is used per channel:
//
//   - integer mode: Num is meaningful, Cap is uid.Nil.  Simple, but "if
//     E is told to read from F's channel 1, nothing prevents it from
//     reading from F's channel 2 as well" (§5).
//   - capability mode: Cap is a UID minted for the channel; Num is
//     ignored by the server.  Unforgeable.
type ChannelID struct {
	Num ChannelNum
	Cap uid.UID
}

// Chan is shorthand for an integer-mode ChannelID.
func Chan(n ChannelNum) ChannelID { return ChannelID{Num: n} }

// CapChan is shorthand for a capability-mode ChannelID.
func CapChan(c uid.UID) ChannelID { return ChannelID{Cap: c} }

// IsCap reports whether the identifier is in capability mode.
func (c ChannelID) IsCap() bool { return !c.Cap.IsNil() }

// String renders the identifier for logs.
func (c ChannelID) String() string {
	if c.IsCap() {
		return "cap:" + c.Cap.String()
	}
	return fmt.Sprintf("ch:%d", int(c.Num))
}

// Status is the stream-level result of a Transfer or Deliver.
type Status int

const (
	// StatusOK: data accompanies the reply (Transfer) or was accepted
	// (Deliver).
	StatusOK Status = iota
	// StatusEnd: the stream has ended; no more data will ever flow.
	// "A file opened for input would respond to read invocations with
	// the appropriate data, and eventually with an indication that the
	// end of the file had been reached" (§4).
	StatusEnd
	// StatusNoSuchChannel: the channel identifier matches nothing.
	StatusNoSuchChannel
	// StatusNotPermitted: capability check failed.
	StatusNotPermitted
	// StatusAborted: the stream was torn down with an error.
	StatusAborted
)

// String names the status for logs.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusEnd:
		return "end"
	case StatusNoSuchChannel:
		return "no-such-channel"
	case StatusNotPermitted:
		return "not-permitted"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors surfaced by the port APIs.
var (
	// ErrNoSuchChannel corresponds to StatusNoSuchChannel.
	ErrNoSuchChannel = errors.New("transput: no such channel")
	// ErrNotPermitted corresponds to StatusNotPermitted.
	ErrNotPermitted = errors.New("transput: channel access not permitted")
)

// TransferRequest asks a source for data (active input).
type TransferRequest struct {
	Channel ChannelID
	// Max bounds the items returned.  Max=1 reproduces the paper's
	// one-datum-per-invocation accounting; larger values are the A1
	// batching ablation.  Max<=0 means 1.
	Max int
	// Reply, when set, is the sender's own reply record, which a server
	// in the same process fills instead of drawing one from the pool
	// (ChanRef.Take).  It is never encoded: a decoded request has none.
	// Its sender sets it only where the reply is consumed before the
	// record's next exchange.
	Reply *TransferReply

	// pooled marks a record the request pool issued (a copy decoded off
	// an encoded hop), which its server releases once it has read it.  A
	// port's own request, reused every exchange, is never marked.
	pooled bool
}

// TransferReply carries data back (passive output).
type TransferReply struct {
	// Items holds between 0 and Max items.  Items may accompany
	// StatusEnd when the final batch and the end indication coincide;
	// Items is empty only on a non-OK status.
	Items  [][]byte
	Status Status
	// AbortMsg holds the reason when Status is StatusAborted.
	AbortMsg string
	// Base is the stream offset of Items[0]: the count of items the
	// channel had served before this reply.  A windowed reader (several
	// Transfer invocations in flight at once) hands the reply on only in
	// Base's turn; with a single outstanding Transfer the field is
	// redundant and ignored.
	Base int64
	// Backlog is the passive side's flow-control grant, the dual of
	// DeliverReply.Credits: how many items the channel still held once
	// this reply's were taken.  A windowed reader keeps no more Transfers
	// at the source than that could fill, so it neither parks workers on
	// a drained channel nor splits one refill into several partial
	// replies.  A server that leaves it 0 gets one Transfer at a time.
	Backlog int

	// pooled marks a record the reply pool issued (a server's OK reply,
	// a decoded copy) and has not taken back.  Only such a record may be
	// recycled by a link on its sender's behalf: one a caller built is
	// the caller's to reuse.
	pooled bool
}

// DeliverRequest pushes data at a sink (active output).
type DeliverRequest struct {
	Channel ChannelID
	Items   [][]byte
	// End marks this writer's final delivery.  Items may accompany it.
	End bool
	// pooled (see TransferRequest.pooled) sits in End's padding, so a
	// Pusher, which holds a request by value, does not grow by it.  Its
	// server releases a pooled request once it has absorbed the items.
	pooled bool
	// Reply is the sender's own reply record (see TransferRequest.Reply),
	// filled by ChanRef.Absorb.
	Reply *DeliverReply
	// Writer identifies the active-output port when it keeps several
	// Deliver invocations in flight (a Pusher at Window > 1), and Base is
	// the offset of Items[0] in that writer's stream, as TransferReply.Base
	// is in the channel's.  The sink holds a delivery until its Base is
	// the writer's turn, so concurrency cannot reorder the stream.  A nil
	// Writer (a Pusher at Window 1, one outstanding Deliver) bypasses the
	// turn entirely, and Base is then ignored.
	Writer uid.UID
	Base   int64
	// Copies is the Pusher's arena when every item is one of its copies,
	// which takes back the large ones once an encoded hop has sent them
	// (ReleaseWirePayload).  Nil when the batch holds a PutOwned item.
	Copies *wire.Arena
}

// DeliverReply acknowledges a delivery (passive input).  The reply is
// withheld until the sink has buffered every item, which is how back
// pressure propagates upstream in the write-only discipline.
type DeliverReply struct {
	Status   Status
	AbortMsg string
	// Credits is the passive side's flow-control grant: how many more
	// items it could buffer without blocking, measured after this
	// delivery was absorbed.  A windowed writer shrinks its in-flight
	// window when credits run low so it does not park sink workers.
	// Unbounded sinks report a large value.
	Credits int

	pooled bool // see TransferReply.pooled
}

// ChannelsRequest asks an Eject to advertise its channels.
type ChannelsRequest struct{}

// ChannelAdvert describes one advertised channel.
type ChannelAdvert struct {
	Name string // e.g. "Output", "Report"
	ID   ChannelID
	// Dir is "out" for channels served by Transfer (the Eject is a
	// source on it) and "in" for channels accepting Deliver.
	Dir string
}

// ChannelsReply lists an Eject's channels.
type ChannelsReply struct {
	Channels []ChannelAdvert
}

// AbortRequest tears down one channel (or all, when Channel is the
// zero ChannelID and All is set).
type AbortRequest struct {
	Channel ChannelID
	All     bool
	Msg     string
}

// AbortReply acknowledges an abort.
type AbortReply struct{}

// PayloadSize implementations let the kernel meter BytesMoved without
// reflection.  Sizes count data bytes plus a small fixed header charge
// per item and per message, approximating a wire format.
const (
	msgHeaderBytes  = 16
	itemHeaderBytes = 4
)

func itemsSize(items [][]byte) int {
	n := msgHeaderBytes
	for _, it := range items {
		n += itemHeaderBytes + len(it)
	}
	return n
}

// PayloadSize reports the metered size of the request.
func (r *TransferRequest) PayloadSize() int { return msgHeaderBytes }

// PayloadSize reports the metered size of the reply.
func (r *TransferReply) PayloadSize() int { return itemsSize(r.Items) }

// PayloadSize reports the metered size of the request.
func (r *DeliverRequest) PayloadSize() int { return itemsSize(r.Items) }

// PayloadSize reports the metered size of the reply.
func (r *DeliverReply) PayloadSize() int { return msgHeaderBytes }

// The control records cross a node boundary as gob under the names they
// had when this package was transput's, so the wire bytes do not depend
// on which package declares them.
func init() {
	gob.RegisterName("*transput.ChannelsRequest", &ChannelsRequest{})
	gob.RegisterName("*transput.ChannelsReply", &ChannelsReply{})
	gob.RegisterName("*transput.AbortRequest", &AbortRequest{})
	gob.RegisterName("*transput.AbortReply", &AbortReply{})
}

// StatusErr maps a non-OK status to a port-level error.
func StatusErr(s Status, abortMsg string) error {
	switch s {
	case StatusNoSuchChannel:
		return ErrNoSuchChannel
	case StatusNotPermitted:
		return ErrNotPermitted
	case StatusAborted:
		return &itemio.AbortedError{Msg: abortMsg}
	default:
		return fmt.Errorf("transput: unexpected status %v", s)
	}
}
