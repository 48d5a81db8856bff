package transport

import (
	"net"
	"testing"

	"asymstream/internal/netsim"
)

// MaxIdleWorkers is the bound on one connection's parked workers.
const MaxIdleWorkers = maxIdleWorkers

// The bridge's two records, for tests that speak its wire by hand.
type (
	RPCRequest = rpcRequest
	RPCReply   = rpcReply
)

// Err is why a decoded request carries no value.
func (r *rpcRequest) Err() error { return r.err }

// Err is the failure a reply carries instead of a value.
func (r *rpcReply) Err() error { return r.err }

// FailedReply is a reply that fails its call with err.
func FailedReply(id uint64, err error) *RPCReply { return &rpcReply{ID: id, err: err} }

// MaxInternedOps is the op intern table's bound.
const MaxInternedOps = maxInternedOps

// InternedOps is how many ops the table holds.
func InternedOps() int { return len(ops.load()) }

// FreshOps gives the rest of a test an empty op table and the process
// its own one back at cleanup, so that a test which fills the table
// leaves the ops other tests intern alone.
func FreshOps(tb testing.TB) {
	ops.mu.Lock()
	old := ops.m.Swap(nil)
	ops.mu.Unlock()
	tb.Cleanup(func() {
		ops.mu.Lock()
		ops.m.Store(old)
		ops.mu.Unlock()
	})
}

// ClosedPeer is a Peer whose write side is dead and whose read loop
// never ran, so that an Invoke gets as far as send.
func ClosedPeer() *Peer {
	c, _ := net.Pipe()
	p := &Peer{conn: c, out: netsim.NewCoalescer(c), calls: make(map[uint64]chan *rpcReply)}
	p.Close()
	return p
}
