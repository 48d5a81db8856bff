// Multi-process bridge: one Eden kernel per OS process, invocations
// carried between them over the same framed wire the single-process
// link uses.  A server process calls Serve on a listener; a client
// process Dials it and either invokes remote Ejects directly
// (Peer.Invoke) or attaches a proxy Eject under the remote UID, after
// which every local invocation of that UID — InPort pulls, WOOutPort
// deliveries, anything — transparently crosses the socket.  Requests
// are multiplexed by id on one connection, so many channels and many
// windowed invocations share a socket and the write coalescer batches
// their frames into single writevs.
//
// Bridge frames are ordinary wire frames carrying two records:
//
//	rpcRequest{ID, Target, Op, Payload}   Payload = nested wire frame
//	rpcReply{ID, ErrMsg, Payload}
//
// The nested payload round-trips through the copying codec on both
// sides — a bridge hop crosses an address-space boundary, so the
// zero-copy slab contract (which is per-process) ends and restarts at
// each kernel's own ports.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// Wire record ids for the bridge frames.  transput owns 1–4; the
// bridge starts at 32 to leave room for future protocol records.
const (
	wireIDRPCRequest = 32
	wireIDRPCReply   = 33
)

func init() {
	wire.Register(wireIDRPCRequest, "transport.rpcRequest", decodeRPCRequest)
	wire.Register(wireIDRPCReply, "transport.rpcReply", decodeRPCReply)
}

type rpcRequest struct {
	ID      uint64
	Target  uid.UID
	Op      string
	Payload []byte // nested wire frame
}

// WireID implements wire.Marshaler.
func (r *rpcRequest) WireID() uint16 { return wireIDRPCRequest }

// AppendWire implements wire.Marshaler.
func (r *rpcRequest) AppendWire(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarintField(dst, r.ID)
	t := r.Target.Bytes()
	dst = append(dst, t[:]...)
	dst = wire.AppendStringField(dst, r.Op)
	return wire.AppendBytesField(dst, r.Payload), nil
}

func decodeRPCRequest(b []byte) (any, error) {
	r := &rpcRequest{}
	id, k, err := wire.ReadUvarintField(b)
	if err != nil {
		return nil, err
	}
	r.ID = id
	if len(b)-k < 16 {
		return nil, fmt.Errorf("%w: short rpc target", wire.ErrTruncated)
	}
	var t16 [16]byte
	copy(t16[:], b[k:k+16])
	r.Target = uid.FromBytes(t16)
	k += 16
	op, n, err := wire.ReadStringField(b[k:])
	if err != nil {
		return nil, err
	}
	r.Op = op
	k += n
	pay, _, err := wire.ReadBytesField(b[k:])
	if err != nil {
		return nil, err
	}
	r.Payload = pay
	return r, nil
}

type rpcReply struct {
	ID      uint64
	ErrMsg  string // "" means success
	Payload []byte // nested wire frame (valid only on success)
}

// WireID implements wire.Marshaler.
func (r *rpcReply) WireID() uint16 { return wireIDRPCReply }

// AppendWire implements wire.Marshaler.
func (r *rpcReply) AppendWire(dst []byte) ([]byte, error) {
	dst = wire.AppendUvarintField(dst, r.ID)
	dst = wire.AppendStringField(dst, r.ErrMsg)
	return wire.AppendBytesField(dst, r.Payload), nil
}

func decodeRPCReply(b []byte) (any, error) {
	r := &rpcReply{}
	id, k, err := wire.ReadUvarintField(b)
	if err != nil {
		return nil, err
	}
	r.ID = id
	msg, n, err := wire.ReadStringField(b[k:])
	if err != nil {
		return nil, err
	}
	r.ErrMsg = msg
	k += n
	pay, _, err := wire.ReadBytesField(b[k:])
	if err != nil {
		return nil, err
	}
	r.Payload = pay
	return r, nil
}

// Serve accepts bridge connections and dispatches their requests into
// k as kernel invocations (from uid.Nil, like any external driver).
// It returns when the listener closes.  Each request runs on its own
// goroutine, so a parked invocation (passive output waiting for data)
// never blocks the connection's other channels.
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

func serveConn(conn net.Conn, k *kernel.Kernel) {
	out := &coalescer{conn: conn}
	defer out.close()
	fr := wire.NewFrameReader(conn, nil, 0)
	defer fr.Close()
	srcs := newConnSources(k)
	// Registered before the WaitGroup's defer so it runs after Wait:
	// the disconnect sweep must not race in-flight pulls.
	defer srcs.closeAll()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		v, _, err := fr.Next()
		if err != nil {
			return
		}
		req, ok := v.(*rpcRequest)
		if !ok {
			return // protocol error; drop the connection
		}
		wg.Add(1)
		go func(req *rpcRequest) {
			defer wg.Done()
			rep := &rpcReply{ID: req.ID}
			payload, _, err := wire.Decode(req.Payload)
			if err != nil {
				rep.ErrMsg = err.Error()
			} else if res, err := k.Invoke(uid.Nil, req.Target, req.Op, payload); err != nil {
				rep.ErrMsg = err.Error()
			} else {
				srcs.note(req.Target, req.Op, res)
				if enc, err := wire.Append(nil, res); err != nil {
					rep.ErrMsg = err.Error()
				} else {
					rep.Payload = enc
				}
			}
			_ = out.send(rep) // fails only once the connection is gone: nobody left to tell
		}(req)
	}
}

// Peer is a client-side bridge connection to a remote kernel.  Safe
// for concurrent use; concurrent Invokes multiplex on the socket.
type Peer struct {
	conn net.Conn
	out  *coalescer

	nextID atomic.Uint64

	cmu   sync.Mutex
	calls map[uint64]chan *rpcReply
	cerr  error
}

// splitAddr parses the bridge address notation: "unix:PATH",
// "tcp:HOST:PORT", or a bare "HOST:PORT" (TCP).
func splitAddr(addr string) (network, target string) {
	if rest, ok := strings.CutPrefix(addr, "unix:"); ok {
		return KindUnix, rest
	}
	return KindTCP, strings.TrimPrefix(addr, "tcp:")
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
	p := &Peer{conn: conn, out: &coalescer{conn: conn}, calls: make(map[uint64]chan *rpcReply)}
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
				err = errors.New("transport: bridge connection closed")
			}
			p.failCalls(err)
			return
		}
		rep, ok := v.(*rpcReply)
		if !ok {
			p.failCalls(errors.New("transport: unexpected bridge frame"))
			return
		}
		p.cmu.Lock()
		ch := p.calls[rep.ID]
		delete(p.calls, rep.ID)
		p.cmu.Unlock()
		if ch != nil {
			ch <- rep
		}
	}
}

func (p *Peer) failCalls(err error) {
	p.cmu.Lock()
	if p.cerr == nil {
		p.cerr = err
	}
	calls := p.calls
	p.calls = make(map[uint64]chan *rpcReply)
	p.cmu.Unlock()
	for _, ch := range calls {
		ch <- &rpcReply{ErrMsg: err.Error()}
	}
}

// Invoke performs one remote invocation: payload is wire-encoded,
// carried to the server, dispatched into its kernel, and the reply
// decoded back.
func (p *Peer) Invoke(target uid.UID, op string, payload any) (any, error) {
	nested, err := wire.Append(nil, payload)
	if err != nil {
		return nil, fmt.Errorf("transport: encode payload: %w", err)
	}
	id := p.nextID.Add(1)
	ch := make(chan *rpcReply, 1)
	p.cmu.Lock()
	if p.cerr != nil {
		err := p.cerr
		p.cmu.Unlock()
		return nil, err
	}
	p.calls[id] = ch
	p.cmu.Unlock()
	if err := p.out.send(&rpcRequest{ID: id, Target: target, Op: op, Payload: nested}); err != nil {
		p.cmu.Lock()
		delete(p.calls, id)
		p.cmu.Unlock()
		return nil, err
	}
	rep := <-ch
	if rep.ErrMsg != "" {
		return nil, fmt.Errorf("transport: remote %s: %s", op, rep.ErrMsg)
	}
	res, _, err := wire.Decode(rep.Payload)
	if err != nil {
		return nil, fmt.Errorf("transport: decode reply: %w", err)
	}
	return res, nil
}

// Close tears the connection down; outstanding Invokes fail.
func (p *Peer) Close() error {
	p.out.close()
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

// Serve implements kernel.Eject.
func (p *proxyEject) Serve(inv *kernel.Invocation) {
	res, err := p.peer.Invoke(p.target, inv.Op, inv.Payload)
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
