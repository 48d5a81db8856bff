// Remote streams: a client pulls a stream out of another process's
// kernel over an ordinary transput channel.  A serving process
// registers a control Eject under the well-known ControlUID — the one
// name a client must know a priori, playing the role of the paper's
// directory Eject.  "Remote.Open spec" builds a lazy read-only source
// stage over the spec's ItemSource and grants its capability: the
// stage's UID plus the channel's identifier (§5).  The client attaches
// a proxy under that UID and pulls it with an InPort — windowed,
// credited and abortable like any link (OpenStream) — and
// "Remote.Close" on the stage destroys it (CloseStream).  Every
// exchange is an ordinary bridge invocation, so remote streams
// multiplex with everything else on the connection.
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

// opClose destroys a remote stream's source stage.
const opClose = "Remote.Close"

// streamLink is how a client pulls a remote stream: the settings
// pull-uds-adaptive measures over a Unix socket.  Over a bridge on a
// Unix socket they pull 64-byte items at a median 627 ns each (2 vCPU,
// 10 runs; the stop-and-wait pull of batches of 64 that this replaced
// took 325 ns).  BatchMax 128 and 256 and Window 2 and 8 read 595–672
// ns, within each other's quartiles: the cost is the server's copy
// into the channel and the second invocation a hop, not the batch.
var streamLink = transput.InPortConfig{BatchMin: 1, BatchMax: 64, Prefetch: 2, Window: 4}

// grant is Remote.Open's reply: the source stage's UID, then its
// channel's capability.
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
	st := &sourceStage{k: c.k, Stage: transput.NewROStage(c.k,
		transput.ROStageConfig{Name: "remote " + spec, CapabilityMode: true, LazyStart: true},
		func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			defer src.Close()
			for {
				it, err := src.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if err := outs[0].Put(it); err != nil {
					return err
				}
			}
		})}
	if st.id, err = c.k.Create(st, 0); err != nil {
		_ = src.Close()
		inv.Fail(err)
		return
	}
	inv.Reply(grant(st.id, st.Writer(0).ID().Cap))
}

// RegisterControl installs the Remote.Open control Eject under
// ControlUID on node 0 of k.  Call it once in a process that serves
// bridge clients (e.g. edenfs/edensh -serve).
func RegisterControl(k *kernel.Kernel, open OpenFunc) error {
	return k.CreateWithUID(ControlUID, &controlEject{k: k, open: open}, 0)
}

// sourceStage is one remote stream's source: a read-only stage whose
// body copies its ItemSource into the channel and closes the source on
// the way out, plus Remote.Close, which destroys it.
type sourceStage struct {
	*transput.Stage
	k  *kernel.Kernel
	id uid.UID
}

// Serve implements kernel.Eject.
func (s *sourceStage) Serve(inv *kernel.Invocation) {
	if inv.Op != opClose {
		s.Stage.Serve(inv)
		return
	}
	// The transient source disappears (§7).
	_ = s.k.Destroy(s.id)
	inv.Reply("closed")
}

// OnDeactivate implements kernel.Deactivatable.  The body runs even if
// nothing ever pulled the stream: it finds the channel aborted at its
// first Put and closes the source.
func (s *sourceStage) OnDeactivate() {
	s.Stage.OnDeactivate()
	s.Start()
}

// connSources tracks the source stages one bridge connection has
// opened through the control Eject, so a client that drops without
// Remote.Close (crash, network partition) does not strand ItemSources
// — possibly open files — in the serving kernel.  Destroy-on-disconnect
// mirrors the cleanup the paper's kernel performs for a dying
// process's transient Ejects (§7).
type connSources struct {
	k   *kernel.Kernel
	mu  sync.Mutex
	ids map[uid.UID]struct{}
}

// note observes one successful invocation from the connection: a
// Remote.Open through the control UID adopts the granted stage; a
// Remote.Close releases the target.
func (s *connSources) note(target uid.UID, op string, res any) {
	switch {
	case target == ControlUID && op == "Remote.Open":
		if stage, _, ok := parseGrant(res); ok {
			s.mu.Lock()
			s.ids[stage] = struct{}{}
			s.mu.Unlock()
		}
	case op == opClose:
		s.mu.Lock()
		delete(s.ids, target)
		s.mu.Unlock()
	}
}

// closeAll destroys every stage the connection left open.  Called after
// the connection's requests have drained, so no in-flight pull races
// the destroy.
func (s *connSources) closeAll() {
	s.mu.Lock()
	ids := s.ids
	s.ids = nil
	s.mu.Unlock()
	for id := range ids {
		_ = s.k.Destroy(id)
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
		_, _ = peer.Invoke(stage, opClose, "") // the stage has no other owner
		return nil, err
	}
	return transput.NewInPort(k, uid.Nil, stage, transput.CapChan(cp), streamLink), nil
}

// CloseStream ends a stream OpenStream opened in k: it cancels the port
// (aborting the far channel if the stream is still live), destroys the
// far stage, and destroys the local proxy even if the far side could
// not be reached.
func CloseStream(k *kernel.Kernel, in *transput.InPort) error {
	in.Cancel("stream closed")
	_, err := k.Invoke(uid.Nil, in.Source(), opClose, "")
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
