package device

import (
	"fmt"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// ClockSource is the paper's example of a degenerate source: "An Eject
// which responds to a read invocation by returning the current date
// and time is a source" (§4).  It is the purest passive output: each
// Transfer is answered with a freshly generated item, on demand, and
// the stream never ends.
type ClockSource struct {
	now    func() time.Time
	format string
}

// NewClockSource creates and registers a clock on the given node.
// now may be nil (wall clock); format may be empty (RFC 3339).
func NewClockSource(k *kernel.Kernel, node netsim.NodeID, now func() time.Time, format string) (*ClockSource, uid.UID, error) {
	if now == nil {
		now = time.Now
	}
	if format == "" {
		format = time.RFC3339
	}
	c := &ClockSource{now: now, format: format}
	id, err := k.Create(c, node)
	if err != nil {
		return nil, uid.Nil, err
	}
	return c, id, nil
}

// EdenType implements kernel.Eject.
func (c *ClockSource) EdenType() string { return "device.ClockSource" }

// Serve implements kernel.Eject: every Transfer gets one timestamp
// item per requested slot (Max timestamps per invocation when
// batching).
func (c *ClockSource) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case transput.OpTransfer:
		req, ok := inv.Payload.(*transput.TransferRequest)
		if !ok {
			inv.Fail(kernel.ErrNoSuchOperation)
			return
		}
		max := req.Max
		if max <= 0 {
			max = 1
		}
		items := make([][]byte, max)
		for i := range items {
			items[i] = []byte(c.now().Format(c.format) + "\n")
		}
		inv.Reply(&transput.TransferReply{Items: items, Status: transput.StatusOK})
	case transput.OpChannels:
		inv.Reply(&transput.ChannelsReply{Channels: []transput.ChannelAdvert{
			{Name: "Output", ID: transput.Chan(transput.ChannelOutput), Dir: "out"},
		}})
	case transput.OpAbort:
		// A clock has no state to tear down.
		inv.Reply(&transput.AbortReply{})
	default:
		inv.Fail(fmt.Errorf("%w: %q on ClockSource", kernel.ErrNoSuchOperation, inv.Op))
	}
}

// StaticSource registers a read-only source Eject that serves a fixed
// sequence of items and then ends — the in-memory stand-in for "a
// file opened for input" (§4): a one-node graph built with cfg's Name,
// Anticipation, CapabilityMode and LazyStart, whose outlet it returns.
func StaticSource(k *kernel.Kernel, node netsim.NodeID, items [][]byte, cfg transput.ROStageConfig) (uid.UID, transput.ChannelID, error) {
	cp := make([][]byte, len(items))
	for i, it := range items {
		cp[i] = append([]byte(nil), it...)
	}
	if cfg.Name == "" {
		cfg.Name = "static-source"
	}
	p, err := transput.BuildGraph(k, transput.ReadOnly, transput.Graph{
		Nodes: []transput.Filter{{Name: cfg.Name, Body: func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			_, err := transput.Copy(outs[0], transput.NewSliceReader(cp))
			return err
		}}},
		Edges: []transput.Edge{{From: 0, To: transput.Outlet}},
	}, transput.Options{
		Anticipation: cfg.Anticipation, CapabilityMode: cfg.CapabilityMode, LazyStart: cfg.LazyStart,
		Placement: func(transput.Role, int) netsim.NodeID { return node },
	})
	if err != nil {
		return uid.Nil, transput.ChannelID{}, err
	}
	p.Start()
	id, ch := p.Outlet(0)
	return id, ch, nil
}
