// Package device implements the peripheral Ejects of §4: terminals,
// printers, the null sink, the date/time source and static data
// sources.  (Figures 3 and 4's report window is a sink node of their
// graph, internal/experiments.)
//
// "Output devices such as terminals and printers would provide a
// potentially infinite supply of Read invocations.  Connecting a
// terminal to a filter Eject would be rather like starting a pump; it
// would suck data through the filter and generate a partial vacuum (in
// the form of outstanding read invocations) on the far side."
//
// Devices are commanded by invocation, like everything in Eden: a
// terminal is asked (via Device.ReadFrom) to start pulling from a
// source, a printer is asked (via Printer.Print) to print a stream —
// "A file could be printed simply by requesting the printer server to
// read from the file" (§4).
package device

import (
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// Operation names served by devices.
const (
	// OpReadFrom commands a sink device to pull a stream to
	// completion.  The invocation's reply is withheld until the stream
	// ends, so the invoker learns the outcome — this is how "printing
	// a file" completes.
	OpReadFrom = "Device.ReadFrom"
	// OpPrint is OpReadFrom with printer job semantics (banner, page
	// accounting, serialised jobs).
	OpPrint = "Printer.Print"
)

// ReadFromRequest names the stream a sink device should consume: the
// source Eject's UID plus the channel identifier — all that is ever
// needed to redirect transput in Eden (§8: "Special file or stream
// descriptors are not needed").
type ReadFromRequest struct {
	Source  uid.UID
	Channel transput.ChannelID
	// Batch/Prefetch tune the device's InPort (0 = defaults).
	Batch    int
	Prefetch int
	// Label tags the stream (the printer's banner).
	Label string
}

// ReadFromReply reports a completed pull.
type ReadFromReply struct {
	Items int64
	Bytes int64
}

func init() {
	gob.Register(&ReadFromRequest{})
	gob.Register(&ReadFromReply{})
}

// pump pulls a stream to completion, handing each item to emit.
func pump(k *kernel.Kernel, self uid.UID, req *ReadFromRequest, emit func([]byte) error) (items, bytes int64, err error) {
	in := transput.NewInPort(k, self, req.Source, req.Channel, transput.InPortConfig{
		Batch:    req.Batch,
		Prefetch: req.Prefetch,
	})
	for {
		item, err := in.Next()
		if err == io.EOF {
			return items, bytes, nil
		}
		if err != nil {
			return items, bytes, err
		}
		items++
		bytes += int64(len(item))
		if err := emit(item); err != nil {
			in.Cancel(err.Error())
			return items, bytes, err
		}
	}
}

// Terminal is a sink device that renders pulled items to an io.Writer
// (its "screen").  Multiple concurrent ReadFrom jobs are permitted;
// their output interleaves at item granularity, like windows on a
// real terminal.
type Terminal struct {
	k    *kernel.Kernel
	self uid.UID
	mu   sync.Mutex
	w    io.Writer
}

// NewTerminal creates and registers a terminal on the given node.
func NewTerminal(k *kernel.Kernel, node netsim.NodeID, w io.Writer) (*Terminal, uid.UID, error) {
	t := &Terminal{k: k, w: w}
	id := k.NewUID()
	t.self = id
	if err := k.CreateWithUID(id, t, node); err != nil {
		return nil, uid.Nil, err
	}
	return t, id, nil
}

// EdenType implements kernel.Eject.
func (t *Terminal) EdenType() string { return "device.Terminal" }

// Serve implements kernel.Eject.
func (t *Terminal) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case OpReadFrom:
		req, ok := inv.Payload.(*ReadFromRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		items, bytes, err := pump(t.k, t.self, req, func(item []byte) error {
			t.mu.Lock()
			defer t.mu.Unlock()
			_, werr := t.w.Write(item)
			return werr
		})
		if err != nil {
			inv.Fail(err)
			return
		}
		inv.Reply(&ReadFromReply{Items: items, Bytes: bytes})
	case transput.OpChannels:
		inv.Reply(&transput.ChannelsReply{})
	default:
		inv.Fail(fmt.Errorf("%w: %q on Terminal", kernel.ErrNoSuchOperation, inv.Op))
	}
}

// NullSink "is an Eject which reads indiscriminately and ignores the
// data it is given" (§4).
type NullSink struct {
	k    *kernel.Kernel
	self uid.UID
}

// NewNullSink creates and registers a null sink on the given node.
func NewNullSink(k *kernel.Kernel, node netsim.NodeID) (*NullSink, uid.UID, error) {
	s := &NullSink{k: k}
	id := k.NewUID()
	s.self = id
	if err := k.CreateWithUID(id, s, node); err != nil {
		return nil, uid.Nil, err
	}
	return s, id, nil
}

// EdenType implements kernel.Eject.
func (s *NullSink) EdenType() string { return "device.NullSink" }

// Serve implements kernel.Eject.
func (s *NullSink) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case OpReadFrom:
		req, ok := inv.Payload.(*ReadFromRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		items, bytes, err := pump(s.k, s.self, req, func([]byte) error { return nil })
		if err != nil {
			inv.Fail(err)
			return
		}
		inv.Reply(&ReadFromReply{Items: items, Bytes: bytes})
	case transput.OpChannels:
		inv.Reply(&transput.ChannelsReply{})
	default:
		inv.Fail(fmt.Errorf("%w: %q on NullSink", kernel.ErrNoSuchOperation, inv.Op))
	}
}

// Printer is a print server: jobs are serialised, each rendered with a
// banner and trailing form feed.
type Printer struct {
	k    *kernel.Kernel
	self uid.UID
	mu   sync.Mutex // serialises jobs
	w    io.Writer
	jobs int
}

// NewPrinter creates and registers a printer on the given node.
func NewPrinter(k *kernel.Kernel, node netsim.NodeID, w io.Writer) (*Printer, uid.UID, error) {
	p := &Printer{k: k, w: w}
	id := k.NewUID()
	p.self = id
	if err := k.CreateWithUID(id, p, node); err != nil {
		return nil, uid.Nil, err
	}
	return p, id, nil
}

// EdenType implements kernel.Eject.
func (p *Printer) EdenType() string { return "device.Printer" }

// Serve implements kernel.Eject.
func (p *Printer) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case OpPrint, OpReadFrom:
		req, ok := inv.Payload.(*ReadFromRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.jobs++
		banner := req.Label
		if banner == "" {
			banner = fmt.Sprintf("job %d", p.jobs)
		}
		if _, err := fmt.Fprintf(p.w, "=== %s ===\n", banner); err != nil {
			inv.Fail(err)
			return
		}
		items, bytes, err := pump(p.k, p.self, req, func(item []byte) error {
			_, werr := p.w.Write(item)
			return werr
		})
		if err != nil {
			inv.Fail(err)
			return
		}
		if _, err := io.WriteString(p.w, "\f"); err != nil {
			inv.Fail(err)
			return
		}
		inv.Reply(&ReadFromReply{Items: items, Bytes: bytes})
	case transput.OpChannels:
		inv.Reply(&transput.ChannelsReply{})
	default:
		inv.Fail(fmt.Errorf("%w: %q on Printer", kernel.ErrNoSuchOperation, inv.Op))
	}
}

// Jobs reports how many print jobs have been accepted.
func (p *Printer) Jobs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jobs
}
