// Package netsim simulates the network substrate underneath the Eden
// kernel: several VAX-class "nodes" joined by a 10 Mbit Ethernet in
// the 1983 prototype, here a configurable latency/bandwidth model.
//
// The paper's efficiency argument (§4) rests on invocation being
// location-independent and therefore dearer than a system call; the
// payoff of the read-only discipline is that it halves the number of
// invocations.  This package is what makes that cost real in the
// reproduction: every cross-node hop can be charged a latency, counted
// on a per-link meter, and optionally pushed through gob encoding so
// that payload copying costs appear in wall-clock measurements too.
//
// Failure injection (drops and partitions) exists so the kernel's
// error paths can be tested; the paper's pipelines assume a healthy
// network, and the benchmarks run with failures disabled.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/metrics"
	"asymstream/internal/wire"
)

// NodeID names a simulated machine.  Node 0 always exists.
type NodeID int

// Config controls the cost and fault model of a Network.
type Config struct {
	// Nodes is the number of simulated machines (minimum 1).
	Nodes int
	// LocalLatency is charged to an invocation whose source and target
	// Ejects share a node (models the kernel trap + queueing).
	LocalLatency time.Duration
	// CrossLatency is charged when the invocation crosses nodes
	// (models Ethernet + remote kernel).  The paper's premise is
	// CrossLatency >> a system call.
	CrossLatency time.Duration
	// CrossCPU busy-spins for the given duration on each cross-node
	// hop instead of sleeping.  This models the 1983 reality that
	// invocation cost was mostly *protocol processing on the CPUs*
	// (VAXen assembling and parsing Ethernet packets), which — unlike
	// wire latency — cannot be hidden by concurrency.  Halving the
	// number of invocations halves this cost, which is exactly the
	// paper's efficiency claim.
	CrossCPU time.Duration
	// InvocationCPU busy-spins on EVERY hop, local or remote.  The
	// paper's premise is that invocation is costly *because it is
	// location-independent* — a local invocation runs the same
	// machinery as a remote one — so experiments that test the
	// invocation-halving payoff charge this uniformly.
	InvocationCPU time.Duration
	// BytesPerSecond, when non-zero, charges additional latency of
	// size/BytesPerSecond to cross-node messages, modelling link
	// bandwidth (10 Mbit/s ≈ 1.25e6 bytes/s in the prototype).
	BytesPerSecond int64
	// EncodePayloads pushes every cross-node payload through the
	// compact wire codec (gob for unregistered types) and back, so the
	// measurement includes real serialisation work and WireBytes is
	// honest: the exact frame size — header plus payload — that would
	// cross the Ethernet.
	EncodePayloads bool
	// DropRate is the probability in [0,1) that a cross-node message
	// is lost (the send returns ErrDropped).  Tests only.
	DropRate float64
	// Seed seeds the fault-injection RNG; 0 means a fixed default.
	Seed int64
}

// ErrDropped is returned when fault injection discards a message.
var ErrDropped = errors.New("netsim: message dropped")

// ErrPartitioned is returned when the two nodes are partitioned.
var ErrPartitioned = errors.New("netsim: nodes partitioned")

// ErrNoSuchNode is returned for an out-of-range NodeID.
var ErrNoSuchNode = errors.New("netsim: no such node")

// LinkStats carries the per-direction traffic meters for a node pair.
type LinkStats struct {
	Messages int64
	Bytes    int64
}

// linkMeter is the internal, shard-per-pair form of LinkStats: plain
// atomics, so concurrent Transmits on different links (and even on the
// same link) never serialise on a network-wide mutex.
type linkMeter struct {
	messages atomic.Int64
	bytes    atomic.Int64
}

// Network is a simulated interconnect.  All methods are safe for
// concurrent use.
type Network struct {
	cfg Config
	met *metrics.Set

	// meters holds one pre-allocated meter per unordered node pair,
	// indexed by pairIndex.  Lock-free on the Transmit path.
	meters []linkMeter

	// faulty is true while any partition exists or DropRate > 0; the
	// Transmit fast path checks it once and skips the fault mutex
	// entirely when the network is healthy (the benchmark and paper
	// pipeline configurations).
	faulty atomic.Bool

	mu         sync.Mutex // guards rng and partitions only
	rng        *rand.Rand
	partitions map[[2]NodeID]bool
}

// New creates a Network.  met may be nil, in which case a private
// metrics set is used.
func New(cfg Config, met *metrics.Set) *Network {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if met == nil {
		met = &metrics.Set{}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1983
	}
	n := &Network{
		cfg:        cfg,
		met:        met,
		meters:     make([]linkMeter, cfg.Nodes*cfg.Nodes),
		rng:        rand.New(rand.NewSource(seed)),
		partitions: make(map[[2]NodeID]bool),
	}
	if cfg.DropRate > 0 {
		n.faulty.Store(true)
	}
	return n
}

// pairIndex maps an unordered node pair to its meter slot.
func (n *Network) pairIndex(a, b NodeID) int {
	if a > b {
		a, b = b, a
	}
	return int(a)*n.cfg.Nodes + int(b)
}

// Nodes returns the number of simulated machines.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

func pair(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// Partition severs connectivity between two nodes until Heal is
// called.  Local traffic (a == b) cannot be partitioned.
func (n *Network) Partition(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[pair(a, b)] = true
	n.faulty.Store(true)
}

// Heal restores connectivity between two nodes.
func (n *Network) Heal(a, b NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, pair(a, b))
	if len(n.partitions) == 0 && n.cfg.DropRate <= 0 {
		n.faulty.Store(false)
	}
}

// Link returns a copy of the traffic stats for the (unordered) node
// pair.
func (n *Network) Link(a, b NodeID) LinkStats {
	if int(a) < 0 || int(a) >= n.cfg.Nodes || int(b) < 0 || int(b) >= n.cfg.Nodes {
		return LinkStats{}
	}
	m := &n.meters[n.pairIndex(a, b)]
	return LinkStats{Messages: m.messages.Load(), Bytes: m.bytes.Load()}
}

// spin burns CPU for roughly d without yielding the processor —
// protocol-processing cost that concurrency cannot hide.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Transmit models moving payload from node a to node b.  It returns
// the payload to deliver (a gob round-tripped copy when
// EncodePayloads is set, the original otherwise) and the number of
// wire bytes charged.  Latency is charged by sleeping, so zero-latency
// configurations are free.
func (n *Network) Transmit(a, b NodeID, payload any) (any, int64, error) {
	if int(a) < 0 || int(a) >= n.cfg.Nodes || int(b) < 0 || int(b) >= n.cfg.Nodes {
		return nil, 0, fmt.Errorf("%w: %d->%d (have %d nodes)", ErrNoSuchNode, a, b, n.cfg.Nodes)
	}
	if n.cfg.InvocationCPU > 0 {
		spin(n.cfg.InvocationCPU)
	}
	if a == b {
		if n.cfg.LocalLatency > 0 {
			time.Sleep(n.cfg.LocalLatency)
		}
		return payload, 0, nil
	}

	// Fault injection is off in every benchmark and paper-pipeline
	// configuration; one atomic load keeps the healthy path off the
	// fault mutex.
	if n.faulty.Load() {
		n.mu.Lock()
		if n.partitions[pair(a, b)] {
			n.mu.Unlock()
			return nil, 0, ErrPartitioned
		}
		dropped := n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate
		n.mu.Unlock()
		if dropped {
			return nil, 0, ErrDropped
		}
	}

	out := payload
	var wireBytes int64
	if n.cfg.EncodePayloads {
		// The codec round trip lives in its own function: the gob
		// fallback takes the payload's address, and doing that here
		// would move the parameter to the heap on every call — one
		// hidden allocation per hop even with encoding off.
		var err error
		out, wireBytes, err = n.encodeRoundTrip(payload)
		if err != nil {
			return nil, 0, err
		}
		n.met.WireBytes.Add(wireBytes)
		n.met.WireFramesEncoded.Inc()
	}

	delay := n.cfg.CrossLatency
	if n.cfg.BytesPerSecond > 0 && wireBytes > 0 {
		delay += time.Duration(wireBytes * int64(time.Second) / n.cfg.BytesPerSecond)
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if n.cfg.CrossCPU > 0 {
		spin(n.cfg.CrossCPU)
	}

	m := &n.meters[n.pairIndex(a, b)]
	m.messages.Add(1)
	m.bytes.Add(wireBytes)
	return out, wireBytes, nil
}

// encodeRoundTrip pushes payload through the wire codec and back,
// charging the encoded frame size — header plus payload, the bytes
// that would actually cross the Ethernet — as wire bytes.
func (n *Network) encodeRoundTrip(payload any) (any, int64, error) {
	f := wire.GetFrame()
	enc, err := wire.Append(f.Buf[:0], payload)
	if err != nil {
		wire.PutFrame(f)
		return nil, 0, fmt.Errorf("netsim: encode: %w", err)
	}
	nb := int64(len(enc))
	decoded, _, err := wire.Decode(enc)
	f.Buf = enc
	wire.PutFrame(f)
	if err != nil {
		return nil, 0, fmt.Errorf("netsim: decode: %w", err)
	}
	if r, ok := payload.(wire.PayloadReleaser); ok {
		r.ReleaseWirePayload()
	}
	return decoded, nb, nil
}
