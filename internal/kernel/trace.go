package kernel

import (
	"time"

	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// TraceEvent describes one completed invocation.  Tracing exists for
// the same reason the metrics do — the paper's arguments are about
// invocation traffic, and a reproduction should let you *look at* that
// traffic — but at per-event rather than aggregate granularity.
type TraceEvent struct {
	// MsgID is the Invocation's: unique per kernel, not ordered across
	// goroutines.  0 marks an invocation that reached no Eject (unknown
	// UID, partitioned link, an Eject that kept deactivating).
	MsgID    uint64
	From     uid.UID
	Target   uid.UID
	Op       string
	FromNode netsim.NodeID
	ToNode   netsim.NodeID
	// Err is empty for a successful reply.
	Err string
	// Start is when the invocation was issued; Elapsed covers issue to
	// reply delivery (including both network hops and queueing).
	Start   time.Time
	Elapsed time.Duration
}

// TraceFunc receives one event per completed invocation.  It is called
// synchronously on the reply path, so implementations must be fast and
// must not invoke (that would recurse); the shell's bounded ring, which
// its `trace N` source reads, is the intended consumer.
type TraceFunc func(TraceEvent)

// traceStart stamps the call if tracing is enabled: once the request
// has crossed the link, or at the point send gave up before that.
func (k *Kernel) traceStart(c *Call, from uid.UID) {
	if k.cfg.Trace == nil {
		return
	}
	c.traceFrom = from
	c.traceStart = time.Now()
	c.traced = true
}

// traceFinish emits the completion event.
func (c *Call) traceFinish(r reply) {
	if !c.traced {
		return
	}
	ev := TraceEvent{
		MsgID:    c.msgID,
		From:     c.traceFrom,
		Target:   c.target,
		Op:       c.op,
		FromNode: c.fromNode,
		ToNode:   c.toNode,
		Start:    c.traceStart,
		Elapsed:  time.Since(c.traceStart),
	}
	if r.err != nil {
		ev.Err = r.err.Error()
	}
	c.k.cfg.Trace(ev)
}
