// Remote streams: a client pulls a stream out of another process's
// kernel over an ordinary transput channel.  A serving process
// registers a control Eject under the well-known ControlUID — the one
// name a client must know a priori, playing the role of the paper's
// directory Eject.  "Remote.Open spec" builds a lazy read-only graph of
// one node over the spec's ItemSource, its output an outlet, and grants
// that outlet's capability: the stage's UID plus the channel's
// identifier (§5).  The client attaches a proxy under that UID and
// pulls it with an InPort — windowed, credited and abortable like any
// link (OpenStream).  "Remote.Close" with the grant, which the stream's
// proxy forwards to the control Eject, destroys the stream's pipeline
// (CloseStream).  Every exchange is an ordinary bridge invocation, so
// remote streams multiplex with everything else on the connection.
package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"asymstream/internal/kernel"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// ControlUID is the well-known bootstrap UID a bridge client invokes
// to open remote streams.  Fixed by convention — unforgeability does
// not apply to the one deliberately public name.
var ControlUID = uid.UID{Hi: 0x4544454e_43545251, Lo: 0x52454d4f_54455352}

// ItemSource produces the items of one remote stream on the serving
// side.  Next returns io.EOF when the stream ends.  An item belongs to
// the source until its next Next: the server copies it into the
// stream, so a source may hand out one buffer rewritten every call.
type ItemSource interface {
	Next() ([]byte, error)
	Close() error
}

// SliceSource serves a fixed batch of items, in order, as a remote
// stream.
type SliceSource struct {
	Items [][]byte
	pos   int
}

// Next implements ItemSource.
func (s *SliceSource) Next() ([]byte, error) {
	if s.pos >= len(s.Items) {
		return nil, io.EOF
	}
	it := s.Items[s.pos]
	s.pos++
	return it, nil
}

// Close implements ItemSource.
func (s *SliceSource) Close() error { return nil }

// OpenFunc maps a client's textual stream spec (e.g. "count 100" or
// "file /etc/motd") to a source.  The serving process chooses what
// specs it honours.
type OpenFunc func(spec string) (ItemSource, error)

// opClose, on ControlUID with a stream's grant as payload, destroys
// that stream's pipeline.
const opClose = "Remote.Close"

// streamLink is how a client pulls a remote stream: the settings
// pull-uds-adaptive measures over a Unix socket.  Over a bridge on a
// Unix socket they pull 64-byte items at a median 627 ns each (2 vCPU,
// 10 runs; the stop-and-wait pull of batches of 64 that this replaced
// took 325 ns).  BatchMax 128 and 256 and Window 2 and 8 read 595–672
// ns, within each other's quartiles: the cost is the server's copy
// into the channel and the second invocation a hop, not the batch.
var streamLink = transput.InPortConfig{BatchMin: 1, BatchMax: 64, Prefetch: 2, Window: 4}

// grant is Remote.Open's reply and Remote.Close's payload: the source
// stage's UID, then its channel's capability.
func grant(stage, cp uid.UID) []byte {
	a, b := stage.Bytes(), cp.Bytes()
	return append(a[:], b[:]...)
}

// parseGrant reads a Remote.Open reply; ok is false for anything else.
func parseGrant(res any) (stage, cp uid.UID, ok bool) {
	raw, _ := res.([]byte)
	if len(raw) != 32 {
		return uid.Nil, uid.Nil, false
	}
	return uid.FromBytes([16]byte(raw[:16])), uid.FromBytes([16]byte(raw[16:])), true
}

// controlEject serves Remote.Open and Remote.Close under ControlUID and
// keeps each open stream's pipeline under its grant.
type controlEject struct {
	k       *kernel.Kernel
	open    OpenFunc
	mu      sync.Mutex
	streams map[string]*transput.Pipeline
}

// EdenType implements kernel.Eject.
func (c *controlEject) EdenType() string { return "transport.RemoteControl" }

// Serve implements kernel.Eject.
func (c *controlEject) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case "Remote.Open":
		spec, ok := inv.Payload.(string)
		if !ok {
			inv.Fail(errors.New("transport: control: Remote.Open wants a string spec"))
			return
		}
		src, err := c.open(spec)
		if err != nil {
			inv.Fail(err)
			return
		}
		p, err := transput.BuildGraph(c.k, transput.ReadOnly, transput.Graph{
			// The body closes src also when nothing ever pulled the stream:
			// a lazy body runs once when its stage is destroyed.
			Nodes: []transput.Filter{{Name: "remote " + spec, Body: func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
				defer src.Close()
				_, err := transput.Copy(outs[0], src)
				return err
			}}},
			Edges: []transput.Edge{{From: 0, To: transput.Outlet}},
		}, transput.Options{CapabilityMode: true, LazyStart: true})
		if err != nil {
			_ = src.Close()
			inv.Fail(err)
			return
		}
		stage, ch := p.Outlet(0)
		g := grant(stage, ch.Cap)
		c.mu.Lock()
		c.streams[string(g)] = p
		c.mu.Unlock()
		inv.Reply(g)
	case opClose:
		g, _ := inv.Payload.([]byte)
		c.mu.Lock()
		p := c.streams[string(g)]
		delete(c.streams, string(g))
		c.mu.Unlock()
		if p == nil {
			inv.Fail(fmt.Errorf("%w: no remote stream %x", kernel.ErrNoSuchEject, g))
			return
		}
		p.Destroy() // the transient source disappears (§7)
		inv.Reply("closed")
	default:
		inv.Fail(fmt.Errorf("%w: %q on the remote control", kernel.ErrNoSuchOperation, inv.Op))
	}
}

// RegisterControl installs the remote control Eject under ControlUID on
// node 0 of k.  Call it once in a process that serves bridge clients
// (e.g. edenfs/edensh -serve).
func RegisterControl(k *kernel.Kernel, open OpenFunc) error {
	return k.CreateWithUID(ControlUID, &controlEject{k: k, open: open, streams: map[string]*transput.Pipeline{}}, 0)
}

// connSources tracks the grants one bridge connection has had from the
// control Eject, so a client that drops without Remote.Close (crash,
// network partition) does not strand ItemSources — possibly open files
// — in the serving kernel.  Destroy-on-disconnect mirrors the cleanup
// the paper's kernel performs for a dying process's transient Ejects
// (§7).
type connSources struct {
	k      *kernel.Kernel
	mu     sync.Mutex
	grants map[string]struct{}
}

// note observes one successful request from the connection: a
// Remote.Open adopts the grant it replied, a Remote.Close releases the
// grant it carried.
func (s *connSources) note(req *rpcRequest, res any) {
	if req.Target != ControlUID {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := res.([]byte); ok && req.Op == "Remote.Open" {
		s.grants[string(g)] = struct{}{}
	} else if g, ok := req.Value.([]byte); ok && req.Op == opClose {
		delete(s.grants, string(g))
	}
}

// closeAll sends Remote.Close for every grant the connection left open,
// as its client would have.  Called after the connection's requests
// have drained, so no in-flight pull races the destroy.
func (s *connSources) closeAll() {
	s.mu.Lock()
	grants := s.grants
	s.grants = nil
	s.mu.Unlock()
	for g := range grants {
		_, _ = s.k.Invoke(uid.Nil, ControlUID, opClose, []byte(g))
	}
}

// OpenStream asks the serving process to open spec, attaches a proxy
// for the granted stage in k, and returns the InPort that pulls it.
// Items arrive as the port's own (the bridge decodes into fresh
// memory); a failure of the far source ends the stream with its
// *transput.AbortedError.  CloseStream releases both ends.
func OpenStream(k *kernel.Kernel, peer *Peer, spec string) (*transput.InPort, error) {
	res, err := peer.Invoke(ControlUID, "Remote.Open", spec)
	if err != nil {
		return nil, err
	}
	stage, cp, ok := parseGrant(res)
	if !ok {
		return nil, fmt.Errorf("transport: Remote.Open returned %T, want a 32-byte grant", res)
	}
	if err := AttachProxy(k, peer, stage, 0); err != nil {
		_, _ = peer.Invoke(ControlUID, opClose, grant(stage, cp)) // the stream has no other owner
		return nil, err
	}
	return transput.NewInPort(k, uid.Nil, stage, transput.CapChan(cp), streamLink), nil
}

// CloseStream ends a stream OpenStream opened in k: it cancels the port
// (aborting the far channel if the stream is still live), sends the
// stream's grant in Remote.Close to its proxy, which forwards it to the
// far control Eject, where Pipeline.Destroy ends the stream, and
// destroys the local proxy even if the far side could not be reached.
func CloseStream(k *kernel.Kernel, in *transput.InPort) error {
	in.Cancel("stream closed")
	_, err := k.Invoke(uid.Nil, in.Source(), opClose, grant(in.Source(), in.Channel().Cap))
	_ = k.Destroy(in.Source())
	return err
}

// RemoteSource is OpenStream's stream on a kernel of its own, for
// callers that hold only a Peer.
type RemoteSource struct {
	k  *kernel.Kernel
	in *transput.InPort
}

// OpenRemote opens spec as OpenStream does, on a private kernel.
func OpenRemote(peer *Peer, spec string) (*RemoteSource, error) {
	k := kernel.New(kernel.Config{})
	in, err := OpenStream(k, peer, spec)
	if err != nil {
		k.Shutdown()
		return nil, err
	}
	return &RemoteSource{k: k, in: in}, nil
}

// Next returns the stream's next item; io.EOF marks the end.
func (r *RemoteSource) Next() ([]byte, error) { return r.in.Next() }

// Close closes the stream and the private kernel.
func (r *RemoteSource) Close() error {
	err := CloseStream(r.k, r.in)
	r.k.Shutdown()
	return err
}
