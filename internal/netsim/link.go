// Link extraction: the kernel routes every cross-node hop through this
// interface instead of calling the simulator directly, so the same
// invocation machinery can run over the in-process latency model
// (Network), a Unix domain socket, or TCP loopback — the socket links
// in socketlink.go.  The simulator remains the default and
// the reference semantics: Transmit moves one payload from node a to
// node b and returns the payload as it exists on b (a codec round trip
// when the link serialises), plus the number of wire bytes charged.
package netsim

import "asymstream/internal/metrics"

// Link carries payloads between simulated nodes.  Implementations must
// be safe for concurrent Transmits; a == b is the local fast path and
// must not touch the wire.  Frames sent on one (a, b) direction are
// delivered in Transmit order — the stream protocol's windowed credit
// machinery (TransferReply.Base, DeliverReply.Credits) assumes nothing
// stronger.
type Link interface {
	// Transmit moves payload from node a to node b, returning the
	// payload to deliver on b and the wire bytes charged.
	Transmit(a, b NodeID, payload any) (any, int64, error)
	// Nodes returns the number of nodes the link joins.
	Nodes() int
	// Kind names the transport ("netsim", "unix", "tcp") for
	// diagnostics and Options.Transport validation.
	Kind() string
	// Close releases sockets, goroutines and read slabs.  Pending
	// Transmits fail; Close is idempotent.
	Close() error
}

// MetricsBinder is implemented by Links that meter WireBytes /
// WireFramesEncoded / SlabLeaked into a kernel's metrics set.  The
// kernel binds its set at construction, before any traffic flows.
type MetricsBinder interface {
	BindMetrics(*metrics.Set)
}

// Kind implements Link.
func (n *Network) Kind() string { return "netsim" }

// Close implements Link.  The simulator holds no external resources.
func (n *Network) Close() error { return nil }
