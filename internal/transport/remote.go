// Remote sources: the control plane that lets one process's shell pull
// a stream out of another process's kernel.  A serving process
// registers a control Eject under the well-known ControlUID — the one
// name a client must know a priori, playing the role of the paper's
// directory Eject.  "Remote.Open spec" creates a per-stream source
// Eject and hands its UID back (a capability grant, §5); the client
// then pulls item batches with "Remote.Next" and tears the source down
// with "Remote.Close".  Every exchange is an ordinary bridge
// invocation, so remote streams multiplex with everything else on the
// connection.
package transport

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"asymstream/internal/kernel"
	"asymstream/internal/uid"
)

// ControlUID is the well-known bootstrap UID a bridge client invokes
// to open remote streams.  Fixed by convention — unforgeability does
// not apply to the one deliberately public name.
var ControlUID = uid.UID{Hi: 0x4544454e_43545251, Lo: 0x52454d4f_54455352}

// ItemSource produces the items of one remote stream on the serving
// side.  Next returns io.EOF when the stream ends.
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

// controlEject serves Remote.Open under ControlUID.
type controlEject struct {
	k    *kernel.Kernel
	open OpenFunc
}

// EdenType implements kernel.Eject.
func (c *controlEject) EdenType() string { return "transport.RemoteControl" }

// Serve implements kernel.Eject.
func (c *controlEject) Serve(inv *kernel.Invocation) {
	if inv.Op != "Remote.Open" {
		inv.Fail(fmt.Errorf("%w: %q on the remote control", kernel.ErrNoSuchOperation, inv.Op))
		return
	}
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
	e := &remoteSourceEject{k: c.k, src: src}
	id, err := c.k.Create(e, 0)
	if err != nil {
		_ = src.Close()
		inv.Fail(err)
		return
	}
	e.id = id
	b := id.Bytes()
	inv.Reply(b[:])
}

// RegisterControl installs the Remote.Open control Eject under
// ControlUID on node 0 of k.  Call it once in a process that serves
// bridge clients (e.g. edenfs/edensh -serve).
func RegisterControl(k *kernel.Kernel, open OpenFunc) error {
	return k.CreateWithUID(ControlUID, &controlEject{k: k, open: open}, 0)
}

// maxNextPrealloc bounds the batch vector Remote.Next allocates up
// front, at four of RemoteSource's batches; a larger max grows it.
const maxNextPrealloc = 256

// remoteSourceEject adapts one ItemSource to the Remote.Next /
// Remote.Close protocol.  The mutex serializes batch pulls — remote
// reads of one stream are inherently ordered anyway.
type remoteSourceEject struct {
	k      *kernel.Kernel
	id     uid.UID
	mu     sync.Mutex
	src    ItemSource
	eof    bool
	closed bool
}

// EdenType implements kernel.Eject.
func (e *remoteSourceEject) EdenType() string { return "transport.RemoteSource" }

// Serve implements kernel.Eject.
func (e *remoteSourceEject) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case "Remote.Next":
		max, _ := inv.Payload.(int64)
		if max <= 0 {
			max = 1
		}
		e.mu.Lock()
		// Sized once; the cap keeps a hostile max from sizing it.
		items := make([][]byte, 0, min(max, maxNextPrealloc))
		for int64(len(items)) < max && !e.eof {
			it, err := e.src.Next()
			if err == io.EOF {
				e.eof = true
				break
			}
			if err != nil {
				e.mu.Unlock()
				inv.Fail(err)
				return
			}
			items = append(items, it)
		}
		e.mu.Unlock()
		// An empty batch means end-of-stream; Items always ride the
		// codec's [][]byte fast path.
		inv.Reply(items)
	case "Remote.Close":
		// Idempotent: the owning connection's disconnect sweep and an
		// explicit client Close may both arrive; only the first touches
		// the source.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			inv.Reply("closed")
			return
		}
		e.closed = true
		e.eof = true
		err := e.src.Close()
		e.mu.Unlock()
		// The transient source disappears (§7) whether or not the
		// underlying Close erred.  Destroyed off the serving goroutine
		// so teardown never waits on itself.
		go func() { _ = e.k.Destroy(e.id) }()
		if err != nil {
			inv.Fail(err)
			return
		}
		inv.Reply("closed")
	default:
		inv.Fail(fmt.Errorf("%w: %q on a remote source", kernel.ErrNoSuchOperation, inv.Op))
	}
}

// connSources tracks the source Ejects one bridge connection has
// opened through the control Eject, so a client that drops without
// Remote.Close (crash, network partition) does not strand ItemSources
// — possibly open files — in the serving kernel.  Close-on-disconnect
// mirrors the cleanup the paper's kernel performs for a dying
// process's transient Ejects (§7).
type connSources struct {
	k   *kernel.Kernel
	mu  sync.Mutex
	ids map[uid.UID]struct{}
}

func newConnSources(k *kernel.Kernel) *connSources {
	return &connSources{k: k, ids: make(map[uid.UID]struct{})}
}

// note observes one successful invocation from the connection: a
// Remote.Open through the control UID adopts the returned source UID;
// a Remote.Close releases the target.
func (s *connSources) note(target uid.UID, op string, res any) {
	switch {
	case target == ControlUID && op == "Remote.Open":
		raw, ok := res.([]byte)
		if !ok || len(raw) != 16 {
			return
		}
		var b [16]byte
		copy(b[:], raw)
		s.mu.Lock()
		s.ids[uid.FromBytes(b)] = struct{}{}
		s.mu.Unlock()
	case op == "Remote.Close":
		s.mu.Lock()
		delete(s.ids, target)
		s.mu.Unlock()
	}
}

// closeAll tears down every source the connection left open.  Called
// after the connection's request WaitGroup drains, so no in-flight
// pull can race the close; errors are ignored — the peer is gone and
// Remote.Close is idempotent.
func (s *connSources) closeAll() {
	s.mu.Lock()
	ids := make([]uid.UID, 0, len(s.ids))
	for id := range s.ids {
		ids = append(ids, id)
	}
	s.ids = nil
	s.mu.Unlock()
	for _, id := range ids {
		_, _ = s.k.Invoke(uid.Nil, id, "Remote.Close", "")
	}
}

// RemoteSource is the client half: a pull stream whose batches are
// fetched over a bridge Peer.
type RemoteSource struct {
	peer  *Peer
	id    uid.UID
	batch int64

	queue [][]byte
	eof   bool
}

// OpenRemote asks the serving process to open spec and returns the
// client-side stream.
func OpenRemote(peer *Peer, spec string) (*RemoteSource, error) {
	res, err := peer.Invoke(ControlUID, "Remote.Open", spec)
	if err != nil {
		return nil, err
	}
	raw, ok := res.([]byte)
	if !ok || len(raw) != 16 {
		return nil, fmt.Errorf("transport: Remote.Open returned %T, want 16-byte UID", res)
	}
	var b16 [16]byte
	copy(b16[:], raw)
	return &RemoteSource{peer: peer, id: uid.FromBytes(b16), batch: 64}, nil
}

// Next returns the stream's next item, fetching a fresh batch over the
// wire when the local queue drains.  io.EOF marks the end.
func (r *RemoteSource) Next() ([]byte, error) {
	for len(r.queue) == 0 {
		if r.eof {
			return nil, io.EOF
		}
		res, err := r.peer.Invoke(r.id, "Remote.Next", r.batch)
		if err != nil {
			return nil, err
		}
		items, ok := res.([][]byte)
		if !ok {
			return nil, fmt.Errorf("transport: Remote.Next returned %T", res)
		}
		if len(items) == 0 {
			r.eof = true
			return nil, io.EOF
		}
		r.queue = items
	}
	it := r.queue[0]
	r.queue = r.queue[1:]
	return it, nil
}

// Close releases the serving-side source.
func (r *RemoteSource) Close() error {
	_, err := r.peer.Invoke(r.id, "Remote.Close", "")
	return err
}
