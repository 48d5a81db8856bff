package fsys

import (
	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// streamEject is a transient read-only source serving a fixed
// snapshot, created by File.Open, Dir.List and the unixfs bootstrap.
// It follows the lifecycle of §7's UnixFile: it never checkpoints, and
// Stream.Close deactivates it and it disappears.  Draining it does not:
// a drained stream stays until it is closed.
type streamEject struct {
	stage *transput.Stage
	k     *kernel.Kernel
	self  uid.UID
}

// NewTransientStream registers a transient source serving items in
// order and returns the StreamRef consumers use.  File.Open, Dir.List
// and the unixfs bootstrap all mint their streams through it.
func NewTransientStream(k *kernel.Kernel, node netsim.NodeID, name string, items [][]byte) (StreamRef, error) {
	st := transput.NewROStage(k, transput.ROStageConfig{
		Name:      name,
		LazyStart: true, // serve on demand; no work before the first Read (§4)
	}, func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
		for _, it := range items {
			if err := outs[0].Put(it); err != nil {
				return err
			}
		}
		return nil
	})
	se := &streamEject{stage: st, k: k}
	id := k.NewUID()
	se.self = id
	if err := k.CreateWithUID(id, se, node); err != nil {
		return StreamRef{}, err
	}
	return StreamRef{UID: id, Channel: st.Writer(0).ID()}, nil
}

// EdenType implements kernel.Eject.  Transient streams are never
// re-activated (they never checkpoint), but the type name aids
// diagnostics.
func (s *streamEject) EdenType() string { return "fsys.Stream" }

// Serve implements kernel.Eject: transput ops go to the stage; Close
// deactivates (and, since the stream never checkpointed, destroys) the
// Eject.
func (s *streamEject) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case OpCloseStream:
		inv.Reply(&CloseStreamReply{})
		// Deactivating from within our own worker is safe: stop does
		// not wait for in-flight workers.
		_ = s.k.Deactivate(s.self)
	default:
		s.stage.Serve(inv)
	}
}

// OnDeactivate releases the stage's buffers.
func (s *streamEject) OnDeactivate() { s.stage.OnDeactivate() }
