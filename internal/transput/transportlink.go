// Transport selection: which wire the pipeline's cross-node hops ride.
// The default is the in-process simulated network; "unix" and "tcp"
// swap in a real socket mesh (netsim.SocketNetwork) underneath the same
// kernel, ports and protocol — nothing above the link changes, which
// is the point: the paper's location-independent invocation means the
// transport is a deployment decision, not an API one.
package transput

import (
	"fmt"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
)

// Transport names the link a pipeline's kernel must be running on.
type Transport string

const (
	// TransportNetsim is the in-process simulated network (the default;
	// "" means the same).
	TransportNetsim Transport = "netsim"
	// TransportUnix carries cross-node hops over Unix domain sockets.
	TransportUnix Transport = "unix"
	// TransportTCP carries cross-node hops over TCP loopback.
	TransportTCP Transport = "tcp"
)

// check validates that the kernel's link matches the requested
// transport.  BuildPipeline calls it so a pipeline asking for a real
// wire cannot silently run on the simulator (or vice versa).
func (t Transport) check(k *kernel.Kernel) error {
	want := string(t)
	if want == "" {
		return nil
	}
	if got := k.LinkKind(); got != want {
		return fmt.Errorf("transput: pipeline wants transport %q but kernel link is %q (build the kernel with NewTransportKernel)", want, got)
	}
	return nil
}

// NewTransportKernel builds a kernel whose cross-node hops run over t.
// For netsim (or "") it is exactly kernel.New; for unix/tcp it wires a
// netsim.SocketNetwork sized to cfg.Net.Nodes into the kernel's
// link slot.  The kernel owns the link and closes it on Shutdown.
func NewTransportKernel(cfg kernel.Config, t Transport) (*kernel.Kernel, error) {
	switch t {
	case "", TransportNetsim:
		return kernel.New(cfg), nil
	case TransportUnix, TransportTCP:
		nodes := cfg.Net.Nodes
		if nodes < 1 {
			nodes = 1
		}
		link, err := netsim.NewSocketNetwork(string(t), nodes)
		if err != nil {
			return nil, err
		}
		cfg.Link = link
		return kernel.New(cfg), nil
	default:
		return nil, fmt.Errorf("transput: unknown transport %q", t)
	}
}
