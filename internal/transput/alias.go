// Package transput implements the paper's contribution: an asymmetric
// stream communication system for an object-oriented operating system.
//
// The paper identifies four primitive transput operations — active
// input, passive output, active output, passive input — of which only
// a *corresponding pair* is needed to move data:
//
//   - The "read only" discipline uses active input + passive output.
//     A consumer invokes Transfer on its source; the source responds
//     with data.  There is no Write invocation anywhere at the
//     inter-Eject level.  Types: InPort (active input) and OutPort
//     (passive output).
//
//   - The "write only" discipline is the exact dual: active output +
//     passive input.  A producer invokes Deliver on its sink; the sink
//     responds by accepting the data.  Types: Pusher (active output)
//     and WOInPort (passive input).
//
//     The two active types are faces over one windowed exchange engine
//     (core's link.go), as the three passive ones are over one channel
//     record (core's channel.go): stop-and-wait is that engine at Window 1, run on the
//     port's own caller.
//
//   - The conventional discipline (the Unix model transliterated into
//     Eden, the paper's baseline) uses both active operations with a
//     PassiveBuffer Eject interposed between every pair of stages.
//
// Channels (§5): every Transfer and Deliver is qualified by a channel
// identifier, so one Eject can expose several independent streams
// (Output, Report, ...).  Identifiers are small integers by default;
// in capability mode they are UIDs, which makes them unforgeable — the
// only Ejects able to read channel 2 are those explicitly given its
// capability.
//
// The package is split along that table, and the import graph states
// the discipline rule (layout_test.go checks it):
//
//	internal/itemio  the item interfaces, Body and the fused edge; no port, no kernel
//	internal/core    the protocol, the channel record, the channel table, the exchange engine
//	internal/pull    InPort and OutPort: active input, passive output
//	internal/push    Pusher and WOInPort: active output, passive input
//
// pull and push import core and never each other.  This file re-exports
// the names the rest of the module uses.
package transput

import (
	"asymstream/internal/kernel"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/pull"
	"asymstream/internal/transput/internal/push"
	"asymstream/internal/uid"
)

// Items and stage bodies (package itemio).
type (
	ItemReader   = itemio.ItemReader
	ItemWriter   = itemio.ItemWriter
	Body         = itemio.Body
	AbortedError = itemio.AbortedError
)

var (
	ErrAborted = itemio.ErrAborted
	ErrClosed  = itemio.ErrClosed
)

// PutOwned hands item to w with ownership transfer when w supports it
// (itemio.PutOwned).
func PutOwned(w ItemWriter, item []byte) error { return itemio.PutOwned(w, item) }

// The protocol (package core).
type (
	ChannelNum      = core.ChannelNum
	ChannelID       = core.ChannelID
	TransferRequest = core.TransferRequest
	TransferReply   = core.TransferReply
	DeliverRequest  = core.DeliverRequest
	DeliverReply    = core.DeliverReply
	ChannelsRequest = core.ChannelsRequest
	ChannelsReply   = core.ChannelsReply
	ChannelAdvert   = core.ChannelAdvert
	AbortRequest    = core.AbortRequest
	AbortReply      = core.AbortReply
)

const (
	OpTransfer = core.OpTransfer
	OpDeliver  = core.OpDeliver
	OpChannels = core.OpChannels
	OpAbort    = core.OpAbort

	ChannelOutput = core.ChannelOutput
	ChannelReport = core.ChannelReport

	StatusOK      = core.StatusOK
	StatusEnd     = core.StatusEnd
	StatusAborted = core.StatusAborted

	DefaultCapacity = core.DefaultCapacity
	MaxWindow       = core.MaxWindow
)

var (
	ErrNoSuchChannel = core.ErrNoSuchChannel
	ErrNotPermitted  = core.ErrNotPermitted
)

// Chan names channel n in integer mode.
func Chan(n ChannelNum) ChannelID { return core.Chan(n) }

// CapChan names a channel by its capability.
func CapChan(c uid.UID) ChannelID { return core.CapChan(c) }

// The read-only discipline's ports (package pull).
type (
	InPort        = pull.InPort
	InPortConfig  = pull.InPortConfig
	OutPort       = pull.OutPort
	OutPortConfig = pull.OutPortConfig
	ChannelWriter = pull.ChannelWriter
)

// NewInPort creates an active-input port (pull.NewInPort).
func NewInPort(k *kernel.Kernel, self, source uid.UID, channel ChannelID, cfg InPortConfig) *InPort {
	return pull.NewInPort(k, self, source, channel, cfg)
}

// NewOutPort creates a passive-output port (pull.NewOutPort).
func NewOutPort(k *kernel.Kernel, cfg OutPortConfig) *OutPort { return pull.NewOutPort(k, cfg) }

// The write-only discipline's ports (package push).
type (
	Pusher         = push.Pusher
	PusherConfig   = push.PusherConfig
	WOInPort       = push.WOInPort
	WOInPortConfig = push.WOInPortConfig
	ChannelReader  = push.ChannelReader
)

// NewPusher creates an active-output port (push.NewPusher).
func NewPusher(k *kernel.Kernel, self, target uid.UID, channel ChannelID, cfg PusherConfig) *Pusher {
	return push.NewPusher(k, self, target, channel, cfg)
}

// NewWOInPort creates a passive-input port (push.NewWOInPort).
func NewWOInPort(k *kernel.Kernel, cfg WOInPortConfig) *WOInPort { return push.NewWOInPort(k, cfg) }
