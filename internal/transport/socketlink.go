// Package transport carries the kernel's cross-node traffic over real
// kernel sockets.  It implements netsim.Link three ways — the netsim
// simulator itself (the default, unchanged), Unix domain sockets and
// TCP loopback — so the reproduction's invocation machinery, credit
// protocol and slab data plane run unmodified over an actual wire.
//
// The perf core is syscall amortization: every (from, to) node
// direction has a caller-driven write coalescer (coalescer.go), so N
// concurrent Transmits — many multiplexed channels, windowed
// invocations in flight — cost one writev, not N.  Frames are vectored
// (wire.Frame): an item payload of wire.SpliceCutoff bytes or more is
// not copied into the frame buffer but rides the writev iovec where it
// lies, borrowed from the sender until the far side has read the frame
// (see Transmit and the coalescer's invariant).  The read side is a
// wire.FrameReader under the same rule: bytes land in a slab chunk,
// frames are decoded in place, and item payloads of SpliceCutoff bytes
// or more are handed to ports as ownership-transferred sub-views
// without an intermediate copy, while the smaller items are copied into
// the reader's wire.Arena, whose 4 KiB blocks successive frames share.
// The decoded records come from the ports' pools, requests and replies
// alike, so a batch-1 hop allocates nothing.  Ports own what they are
// handed either way, which is how WireBytesSaved and SlabLeaked==0 keep
// holding across a real socket.
//
// This file is the single-process form: all N simulated nodes live in
// one OS process and each unordered node pair shares one full-duplex
// socket.  bridge.go is the multi-process form (one kernel per OS
// process, invocations bridged by UID).
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/wire"
)

// Link kinds, as reported by netsim.Link.Kind and selected by
// transput.Options.Transport.
const (
	KindNetsim = "netsim"
	KindUnix   = "unix"
	KindTCP    = "tcp"
)

// ErrLinkClosed is returned by Transmit after Close.
var ErrLinkClosed = errors.New("transport: link closed")

// xfer is one in-flight Transmit: enqueued with its frame, completed
// by the receiving direction's read loop, in wire order.
type xfer struct {
	done chan xres // capacity 1, reused across pooled lives
}

type xres struct {
	v   any
	err error
}

var xferPool = sync.Pool{New: func() any {
	return &xfer{done: make(chan xres, 1)}
}}

// dir is one direction of one node pair: frames the sender side
// enqueues on the coalescer (whose conn is the write end) are read back
// on rconn by the receiver side (both ends live in this process), and
// each decoded frame completes the coalescer's oldest waiter.
type dir struct {
	coalescer
	rconn    net.Conn
	readSlab *wire.Slab
}

// readLoop re-assembles and decodes frames off the socket and
// completes waiters in order.  Item-bearing records decode in place;
// their items — views of the read buffer from wire.SpliceCutoff bytes
// up, copies in the reader's arena below — are owned by whichever port
// the kernel delivers the payload to.
func (d *dir) readLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	fr := wire.NewFrameReader(d.rconn, d.readSlab, 0)
	defer fr.Close()
	for {
		v, _, err := fr.Next()
		if err != nil {
			if err == io.EOF {
				err = ErrLinkClosed
			}
			d.fail(err)
			return
		}
		x := d.popWaiter()
		if x == nil {
			// A failed write drained this frame's waiter before the
			// frame, already in the socket, was read: nobody is left to
			// own the views it decoded into.
			if r, ok := v.(wire.PayloadReleaser); ok {
				r.ReleaseWirePayload()
			}
			d.fail(errors.New("transport: frame with no matching transmit"))
			return
		}
		x.done <- xres{v: v}
	}
}

// SocketNetwork joins N in-process simulated nodes with real sockets —
// one full-duplex connection per unordered node pair, Unix domain or
// TCP loopback.  It implements netsim.Link; hand it to kernel.Config
// via transput.NewTransportKernel.
type SocketNetwork struct {
	kind   string
	nodes  int
	dirs   []*dir // [from*nodes+to]; nil on the diagonal
	tmpdir string

	metp      atomic.Pointer[metrics.Set]
	startOnce sync.Once
	started   atomic.Bool
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// NewSocketNetwork dials up the full mesh for the given node count.
// kind is KindUnix or KindTCP.  Goroutines and read slabs start
// lazily on first Transmit, after the kernel has bound its metrics.
func NewSocketNetwork(kind string, nodes int) (*SocketNetwork, error) {
	if kind != KindUnix && kind != KindTCP {
		return nil, fmt.Errorf("transport: unknown kind %q (want %q or %q)", kind, KindUnix, KindTCP)
	}
	if nodes < 1 {
		nodes = 1
	}
	s := &SocketNetwork{kind: kind, nodes: nodes, dirs: make([]*dir, nodes*nodes)}
	s.metp.Store(&metrics.Set{})
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			ca, cb, err := s.socketPair(a, b)
			if err != nil {
				_ = s.Close()
				return nil, err
			}
			ab := &dir{coalescer: coalescer{conn: ca}, rconn: cb}
			ba := &dir{coalescer: coalescer{conn: cb}, rconn: ca}
			s.dirs[a*nodes+b] = ab
			s.dirs[b*nodes+a] = ba
		}
	}
	return s, nil
}

// socketPair returns the two ends of one established connection
// between nodes a and b.
func (s *SocketNetwork) socketPair(a, b int) (net.Conn, net.Conn, error) {
	// The kinds are the net package's network names.
	addr := "127.0.0.1:0"
	if s.kind == KindUnix {
		if s.tmpdir == "" {
			var err error
			if s.tmpdir, err = os.MkdirTemp("", "asymstream-uds-"); err != nil {
				return nil, nil, fmt.Errorf("transport: %w", err)
			}
		}
		addr = filepath.Join(s.tmpdir, fmt.Sprintf("n%d-n%d.sock", a, b))
	}
	ln, err := net.Listen(s.kind, addr)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: listen %s: %w", s.kind, err)
	}
	defer ln.Close()
	type dialRes struct {
		c   net.Conn
		err error
	}
	ch := make(chan dialRes, 1)
	go func() {
		c, err := net.Dial(s.kind, ln.Addr().String())
		ch <- dialRes{c, err}
	}()
	ac, aerr := ln.Accept()
	dr := <-ch
	if aerr != nil || dr.err != nil {
		if ac != nil {
			ac.Close()
		}
		if dr.c != nil {
			dr.c.Close()
		}
		if aerr == nil {
			aerr = dr.err
		}
		return nil, nil, fmt.Errorf("transport: connect %s: %w", s.kind, aerr)
	}
	return dr.c, ac, nil
}

// BindMetrics implements netsim.MetricsBinder: the kernel installs its
// metrics set before any traffic flows.
func (s *SocketNetwork) BindMetrics(m *metrics.Set) { s.metp.Store(m) }

// Nodes implements netsim.Link.
func (s *SocketNetwork) Nodes() int { return s.nodes }

// Kind implements netsim.Link.
func (s *SocketNetwork) Kind() string { return s.kind }

// start launches the per-direction reader goroutines and creates the
// read slabs, bound to whatever metrics set is installed.
func (s *SocketNetwork) start() {
	met := s.metp.Load()
	for _, d := range s.dirs {
		if d == nil {
			continue
		}
		d.readSlab = wire.NewSlab(met, 0)
		s.wg.Add(1)
		go d.readLoop(&s.wg)
	}
	s.started.Store(true)
}

// Transmit implements netsim.Link: encode the payload as one wire
// frame, enqueue it on the direction's coalescer, and wait for the far
// side's read loop to decode it.  Sender-side slab views are released
// once nothing can read them any more: right after the encode when the
// frame holds a copy of every item, exactly as on a netsim encoded hop,
// and after the wait when the frame borrows its large items — the far
// side has then read the whole frame (or the connection is dead and
// drained; see the coalescer's invariant).
func (s *SocketNetwork) Transmit(a, b netsim.NodeID, payload any) (any, int64, error) {
	if int(a) < 0 || int(a) >= s.nodes || int(b) < 0 || int(b) >= s.nodes {
		return nil, 0, fmt.Errorf("%w: %d->%d (have %d nodes)", netsim.ErrNoSuchNode, a, b, s.nodes)
	}
	if a == b {
		return payload, 0, nil
	}
	if s.closed.Load() {
		return nil, 0, ErrLinkClosed
	}
	s.startOnce.Do(s.start)
	d := s.dirs[int(a)*s.nodes+int(b)]

	f := wire.GetFrame()
	if err := f.Encode(payload); err != nil {
		wire.PutFrame(f)
		return nil, 0, fmt.Errorf("transport: encode: %w", err)
	}
	rel, _ := payload.(wire.PayloadReleaser)
	if rel != nil && !f.Borrows() {
		rel.ReleaseWirePayload()
		rel = nil
	}
	nb := int64(f.Len())

	x := xferPool.Get().(*xfer)
	err := d.enqueue(f, x)
	var res xres
	if err == nil {
		res = <-x.done
		err = res.err
	}
	xferPool.Put(x)
	if rel != nil {
		rel.ReleaseWirePayload()
	}
	if err != nil {
		return nil, 0, err
	}
	met := s.metp.Load()
	met.WireBytes.Add(nb)
	met.WireFramesEncoded.Inc()
	return res.v, nb, nil
}

// Close implements netsim.Link: tear down every socket, drain pending
// Transmits with an error, stop the goroutines and run the read slabs'
// leak audit (outstanding views land in SlabLeaked).  Idempotent.
func (s *SocketNetwork) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, d := range s.dirs {
		if d != nil {
			d.conn.Close() // each socket end is exactly one direction's write side
		}
	}
	s.wg.Wait()
	for _, d := range s.dirs {
		if d == nil {
			continue
		}
		d.fail(ErrLinkClosed) // drain anything enqueued after the loops died
		if d.readSlab != nil {
			d.readSlab.Close()
		}
	}
	if s.tmpdir != "" {
		os.RemoveAll(s.tmpdir)
	}
	return nil
}
