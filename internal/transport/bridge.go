// Multi-process bridge: one Eden kernel per OS process, invocations
// carried between them over the same framed wire the single-process
// link uses.  A server process calls Serve on a listener; a client
// process Dials it and either invokes remote Ejects directly
// (Peer.Invoke) or attaches a proxy Eject under the remote UID, after
// which every local invocation of that UID — InPort pulls, Pusher
// deliveries, anything — transparently crosses the socket.  Requests
// are multiplexed by id on one connection, so many channels and many
// windowed invocations share a socket and the write coalescer batches
// their frames into single writevs.
//
// Bridge frames are ordinary wire frames carrying two records, each
// ending in the invocation's value as a nested wire frame:
//
//	rpcRequest   uvarint ID | 16-byte Target | string Op | frame(Value)
//	rpcReply     uvarint ID | string Msg | string Code iff Msg != "" | frame(Value) iff Msg == ""
//
// Msg and Code are a failure's kernel.RemoteError (kernel.ToWire's).
// The nested frame is the record's last field, so it needs no length
// of its own: it runs to the end of the record, and bytes after it are
// malformed, as is a value that is itself one of these two records (so
// the grammar nests exactly one level).  The encoder appends it in place (wire.Append into the
// frame being built) and the record decoder decodes it where it lies,
// so a value is encoded once and decoded once a crossing, and nothing
// between Peer.Invoke's argument and the far kernel's is a []byte.  The
// decode is the copying one — a bridge hop crosses an address-space
// boundary, so the zero-copy slab contract (which is per-process) ends
// and restarts at each kernel's own ports — and it runs on the read
// loop, so a value never aliases a read buffer that could rotate under
// the request it was handed off with.  It copies by the arena rule
// (wire.DecodeIn with the frame reader's Arena): a value's small bytes
// land in the reader's shared 4 KiB blocks, so a held value pins at most
// that much of its neighbours, and larger ones get their own allocation.
// The records themselves come from pools, and a request's Op from a
// bounded intern table, so a round trip allocates only the boxes of the
// values it carries.
//
// Both ends of a bridge are built from this tree: the layout carries no
// version and has never been negotiated.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// The single-process socket mesh is netsim's; these forward the names
// callers outside internal/ still reach through this package.
const (
	KindUnix = netsim.KindUnix
	KindTCP  = netsim.KindTCP
)

// NewSocketNetwork is netsim.NewSocketNetwork.
func NewSocketNetwork(kind string, nodes int) (*netsim.SocketNetwork, error) {
	return netsim.NewSocketNetwork(kind, nodes)
}

// Wire record ids for the bridge frames.  transput owns 1–4; the
// bridge starts at 32 to leave room for future protocol records.
const (
	wireIDRPCRequest = 32
	wireIDRPCReply   = 33
)

func init() {
	wire.Register(rpcRequests)
	wire.Register(rpcReplies)
	kernel.RegisterError("bridge_closed", ErrBridgeClosed)
}

// ErrBridgeClosed is what an Invoke returns, wrapped, when the
// connection and not the remote Eject failed it (pending when it died,
// or made after).  Its code-table row lets a proxy's invoker match it too.
var ErrBridgeClosed = errors.New("transport: bridge connection closed")

type rpcRequest struct {
	ID     uint64
	Target uid.UID
	Op     string
	Value  any
	// err is why a received request has no Value: its nested frame did
	// not decode.  The record itself did, so the stream is in sync and
	// the failure is this request's, answered under its ID.
	err    error
	pooled bool
}

// Every record the bridge builds comes from these pools, on both sides:
// an encoded one lives until Coalescer.Send has encoded it, which is
// before it returns, and a decoded one until it has been served (a
// request) or read (a reply).
var (
	rpcRequests = wire.NewPool(func(r *rpcRequest) *bool { return &r.pooled }, nil)
	rpcReplies  = wire.NewPool(func(r *rpcReply) *bool { return &r.pooled }, nil)
)

// Bounds on the op intern table: room for every op a program names, and
// too little for a peer that sends a fresh one a request to grow memory.
const (
	maxInternedOps     = 256
	maxInternedOpBytes = 64
)

// opTable interns the Op of a decoded request, so that an op seen before
// costs no allocation.  Readers load the map without a lock; a new op is
// added to a copy under mu, which is then published.  A full table, or a
// name longer than maxInternedOpBytes, gets a string of its own, as it
// would with no table.  There is one a process, like the record pools:
// the decoders reach it through the wire registry, which passes them no
// connection.
type opTable struct {
	m  atomic.Pointer[map[string]string]
	mu sync.Mutex
}

var ops opTable

// load is the current table, nil before the first op.
func (t *opTable) load() map[string]string {
	if p := t.m.Load(); p != nil {
		return *p
	}
	return nil
}

func (t *opTable) intern(b []byte) string {
	m := t.load()
	if s, ok := m[string(b)]; ok {
		return s
	}
	if len(m) >= maxInternedOps || len(b) > maxInternedOpBytes {
		return string(b)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m = t.load()
	if s, ok := m[string(b)]; ok {
		return s
	}
	if len(m) >= maxInternedOps {
		return string(b)
	}
	next := make(map[string]string, len(m)+1)
	maps.Copy(next, m)
	s := string(b)
	next[s] = s
	t.m.Store(&next)
	return s
}

// WireID implements wire.Marshaler.
func (r *rpcRequest) WireID() uint16 { return wireIDRPCRequest }

// AppendWire implements wire.Marshaler.
func (r *rpcRequest) AppendWire(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarintField(dst, r.ID)
	t := r.Target.Bytes()
	dst = append(dst, t[:]...)
	dst = wire.AppendStringField(dst, r.Op)
	return wire.Append(dst, r.Value)
}

// ReadWire implements wire.Record.  The nested frame runs to the end of
// the body, which a record therefore always consumes whole: what is
// wrong with the frame, bytes after it included, is the record's err.
// Nothing aliases the read chunk (a value is copied through a), so owner
// goes unused.
func (r *rpcRequest) ReadWire(b, _ []byte, a *wire.Arena) (int, error) {
	id, k, err := wire.ReadUvarintField(b)
	if err != nil {
		return 0, err
	}
	r.ID = id
	if len(b)-k < 16 {
		return 0, fmt.Errorf("%w: short rpc target", wire.ErrTruncated)
	}
	var t16 [16]byte
	copy(t16[:], b[k:k+16])
	r.Target = uid.FromBytes(t16)
	k += 16
	op, n, err := wire.BorrowBytesField(b[k:])
	if err != nil {
		return 0, err
	}
	r.Op = ops.intern(op)
	r.Value, r.err = decodeValue(b[k+n:], a)
	return len(b), nil
}

// decodeValue decodes the nested frame that is the rest of a record.
// A bridge record is never a value: refusing one here is what bounds
// the decoders' recursion (they reach wire.DecodeIn only through this
// function), which a hostile peer could otherwise drive, eight bytes a
// level, through the goroutine's whole stack.
func decodeValue(rest []byte, a *wire.Arena) (any, error) {
	if len(rest) > wire.HeaderBytes && rest[0] == wire.TagRecord {
		if id, _ := binary.Uvarint(rest[wire.HeaderBytes:]); id == wireIDRPCRequest || id == wireIDRPCReply {
			return nil, fmt.Errorf("%w: bridge record %d as a value", wire.ErrMalformed, id)
		}
	}
	v, n, err := wire.DecodeIn(rest, a)
	if err != nil {
		return nil, err
	}
	if n != len(rest) {
		return nil, fmt.Errorf("%w: %d bytes after the nested frame", wire.ErrMalformed, len(rest)-n)
	}
	return v, nil
}

type rpcReply struct {
	ID    uint64
	Value any // on success
	// err is why the call failed: the far kernel's *kernel.RemoteError,
	// or a failure on this side of the wire (the nested frame did not
	// decode, or the connection died with the call pending).
	err    error
	pooled bool
}

// WireID implements wire.Marshaler.
func (r *rpcReply) WireID() uint16 { return wireIDRPCReply }

// AppendWire implements wire.Marshaler.
func (r *rpcReply) AppendWire(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarintField(dst, r.ID)
	if r.err == nil {
		return wire.Append(wire.AppendStringField(dst, ""), r.Value)
	}
	re := kernel.ToWire(r.err)
	return wire.AppendStringField(wire.AppendStringField(dst, re.Msg), re.Code), nil
}

// ReadWire implements wire.Record — see rpcRequest.ReadWire.
func (r *rpcReply) ReadWire(b, _ []byte, a *wire.Arena) (int, error) {
	id, k, err := wire.ReadUvarintField(b)
	if err != nil {
		return 0, err
	}
	r.ID = id
	msg, n, err := wire.ReadStringField(b[k:])
	if err != nil {
		return 0, err
	}
	rest := b[k+n:]
	if msg == "" {
		r.Value, err = decodeValue(rest, a)
	} else if code, n, cerr := wire.ReadStringField(rest); cerr != nil || n != len(rest) {
		err = fmt.Errorf("%w: an error reply's code", wire.ErrMalformed)
	} else {
		r.err = &kernel.RemoteError{Code: code, Msg: msg}
	}
	if err != nil {
		r.err = fmt.Errorf("transport: decode reply: %w", err)
	}
	return len(b), nil
}

// Serve accepts bridge connections and dispatches their requests into
// k as kernel invocations (from uid.Nil, like any external driver).
// It returns when the listener closes.
func Serve(ln net.Listener, k *kernel.Kernel) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go serveConn(conn, k)
	}
}

// maxIdleWorkers bounds the workers one connection keeps parked.  It
// bounds nothing else: a request that finds no worker parked always
// gets a new one.
const maxIdleWorkers = 16

// connServer is the serving end of one bridge connection, the paper's
// coordinator and worker processes: the read loop decodes requests and
// hands each to a worker, and the workers invoke and reply.  A parked
// invocation (a passive output waiting for data) holds its worker, never
// the read loop, so it does not block the connection's other channels.
type connServer struct {
	k    *kernel.Kernel
	out  *netsim.Coalescer
	srcs *connSources

	// work is unbuffered, so a send succeeds only into a worker parked
	// on it; closed when the connection ends, which is what ends them.
	work chan *rpcRequest
	idle atomic.Int32 // workers parked on work, or about to be
	wg   sync.WaitGroup
}

func serveConn(conn net.Conn, k *kernel.Kernel) {
	s := &connServer{k: k, out: netsim.NewCoalescer(conn), work: make(chan *rpcRequest),
		srcs: &connSources{k: k, grants: map[string]struct{}{}}}
	defer s.out.Close()
	fr := wire.NewFrameReader(conn, nil, 0)
	defer fr.Close()
	// Registered before the WaitGroup's defer so it runs after Wait:
	// the disconnect sweep must not race in-flight pulls.
	defer s.srcs.closeAll()
	defer s.wg.Wait()
	defer close(s.work)
	for {
		v, _, err := fr.Next()
		if err != nil {
			return
		}
		req, ok := v.(*rpcRequest)
		if !ok {
			return // protocol error; drop the connection
		}
		select {
		case s.work <- req:
		default:
			s.wg.Add(1)
			go s.worker(req)
		}
	}
}

// worker serves req and then whatever the read loop hands it, until
// the connection ends or enough workers are parked without it.  It is
// started only for a request no parked worker could take, so a steady
// connection is served by goroutines whose stacks have already grown
// to what an invocation needs.
func (s *connServer) worker(req *rpcRequest) {
	defer s.wg.Done()
	for {
		s.serve(req)
		rpcRequests.Put(req)
		if s.idle.Add(1) > maxIdleWorkers {
			s.idle.Add(-1)
			return
		}
		var ok bool
		req, ok = <-s.work
		s.idle.Add(-1)
		if !ok {
			return
		}
	}
}

// serve runs one request as a kernel invocation and sends its reply.
func (s *connServer) serve(req *rpcRequest) {
	rep := rpcReplies.Get()
	rep.ID = req.ID
	if req.err != nil {
		rep.err = req.err
	} else if res, err := s.k.Invoke(uid.Nil, req.Target, req.Op, req.Value); err != nil {
		rep.err = err
		if oe, ok := err.(*kernel.OpError); ok {
			rep.err = oe.Err // the caller's kernel names the op and target itself
		}
	} else {
		s.srcs.note(req, res)
		rep.Value = res
	}
	// A send fails otherwise only once the connection is gone, with
	// nobody left to tell.
	if err := s.out.Send(rep); errors.Is(err, netsim.ErrEncode) {
		// The result has no wire form; the caller still gets an answer.
		rep.Value, rep.err = nil, err
		_ = s.out.Send(rep)
	}
	rpcReplies.Put(rep)
}

// Peer is a client-side bridge connection to a remote kernel.  Safe
// for concurrent use; concurrent Invokes multiplex on the socket.
type Peer struct {
	conn net.Conn
	out  *netsim.Coalescer

	nextID atomic.Uint64

	cmu   sync.Mutex
	calls map[uint64]chan *rpcReply
	cerr  error // wraps ErrBridgeClosed; set once, by the read loop as it ends
}

// replyChans recycles the capacity-1 channels pending calls wait on.  A
// registered channel gets exactly one send — whoever takes it out of
// Peer.calls owns that send — so it is empty again once received from.
var replyChans = sync.Pool{New: func() any { return make(chan *rpcReply, 1) }}

// splitAddr parses the bridge address notation: "unix:PATH",
// "tcp:HOST:PORT", or a bare "HOST:PORT" (TCP).
func splitAddr(addr string) (network, target string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return netsim.KindUnix, rest
	}
	return netsim.KindTCP, strings.TrimPrefix(addr, "tcp:")
}

// Listen opens a listener for addr in the same "unix:PATH",
// "tcp:HOST:PORT" (or bare "HOST:PORT") notation Dial accepts.
func Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen(splitAddr(addr))
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Dial connects to a bridge server.  addr is "unix:PATH",
// "tcp:HOST:PORT", or a bare "HOST:PORT" (TCP).
func Dial(addr string) (*Peer, error) {
	conn, err := net.Dial(splitAddr(addr))
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	p := &Peer{conn: conn, out: netsim.NewCoalescer(conn), calls: make(map[uint64]chan *rpcReply)}
	go p.readLoop()
	return p, nil
}

func (p *Peer) readLoop() {
	fr := wire.NewFrameReader(p.conn, nil, 0)
	defer fr.Close()
	for {
		v, _, err := fr.Next()
		if err != nil {
			if err == io.EOF {
				p.failCalls(ErrBridgeClosed)
			} else {
				p.failCalls(fmt.Errorf("%w: %w", ErrBridgeClosed, err))
			}
			return
		}
		rep, ok := v.(*rpcReply)
		if !ok {
			p.failCalls(fmt.Errorf("%w: unexpected frame %T", ErrBridgeClosed, v))
			return
		}
		p.cmu.Lock()
		ch := p.calls[rep.ID]
		delete(p.calls, rep.ID)
		p.cmu.Unlock()
		if ch != nil {
			ch <- rep // Invoke releases it
		} else {
			rpcReplies.Put(rep)
		}
	}
}

// failCalls refuses every later call with err and fails the pending
// ones with it, each through a reply of its own, which its Invoke
// releases like any other.
func (p *Peer) failCalls(err error) {
	p.cmu.Lock()
	p.cerr = err
	calls := p.calls
	p.calls = nil
	p.cmu.Unlock()
	for _, ch := range calls {
		rep := rpcReplies.Get()
		rep.err = err
		ch <- rep
	}
}

// Invoke performs one remote invocation: payload is wire-encoded into
// the request's frame, carried to the server and dispatched into its
// kernel, and the reply's value decoded back.  The far kernel's error is
// the one its own Invoke returned; one that wraps ErrBridgeClosed is
// the connection's and says nothing about the remote Eject.
func (p *Peer) Invoke(target uid.UID, op string, payload any) (any, error) {
	id := p.nextID.Add(1)
	ch := replyChans.Get().(chan *rpcReply)
	p.cmu.Lock()
	if p.cerr != nil {
		err := p.cerr
		p.cmu.Unlock()
		replyChans.Put(ch)
		return nil, err
	}
	p.calls[id] = ch
	p.cmu.Unlock()

	req := rpcRequests.Get()
	req.ID, req.Target, req.Op, req.Value = id, target, op, payload
	err := p.out.Send(req)
	rpcRequests.Put(req)
	if err != nil {
		// ch is dropped, not recycled: if the read loop ended meanwhile,
		// failCalls has taken the call and its send.
		p.cmu.Lock()
		delete(p.calls, id)
		p.cmu.Unlock()
		if errors.Is(err, netsim.ErrEncode) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %w", ErrBridgeClosed, err)
	}
	rep := <-ch
	replyChans.Put(ch)
	v, err := rep.Value, rep.err
	rpcReplies.Put(rep)
	if re, ok := err.(*kernel.RemoteError); ok {
		return nil, &kernel.OpError{Op: op, Target: target.String(), Err: re}
	}
	return v, err
}

// Close tears the connection down; outstanding Invokes fail.
func (p *Peer) Close() error {
	p.out.Close()
	return nil
}

// proxyEject forwards every invocation of a UID to the remote kernel
// that actually hosts the Eject.  Ports on this side need no changes:
// they invoke the UID as always and the bridge carries the exchange.
type proxyEject struct {
	peer   *Peer
	target uid.UID
}

// EdenType implements kernel.Eject.
func (p *proxyEject) EdenType() string { return "transport.Proxy" }

// Serve implements kernel.Eject.  Remote.Close is the far control
// Eject's op: a remote stream's proxy forwards it there.
func (p *proxyEject) Serve(inv *kernel.Invocation) {
	target := p.target
	if inv.Op == opClose {
		target = ControlUID
	}
	res, err := p.peer.Invoke(target, inv.Op, inv.Payload)
	if oe, ok := err.(*kernel.OpError); ok {
		err = oe.Err // this kernel names the op and target itself
	}
	if err != nil {
		inv.Fail(err)
		return
	}
	inv.Reply(res)
}

// AttachProxy binds a proxy for a remote Eject under its own UID in
// the local kernel, so local ports address it location-independently —
// the paper's invariant, now spanning OS processes.
func AttachProxy(k *kernel.Kernel, peer *Peer, remote uid.UID, node netsim.NodeID) error {
	return k.CreateWithUID(remote, &proxyEject{peer: peer, target: remote}, node)
}
