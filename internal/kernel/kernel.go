// Package kernel implements a simulation of the Eden kernel: the
// runtime that hosts Ejects, routes invocations between them
// (location-independently, across simulated nodes), activates passive
// Ejects on demand, and provides the Checkpoint primitive backed by
// stable storage.
//
// The paper's model (§1):
//
//   - Ejects and invocations are the only entities in the system.
//   - Each Eject has an unforgeable UID and is addressed only by it.
//   - Invocations are named operations with a reply, like RPC.
//   - Sending an invocation does not suspend the sender.
//   - A passive Eject that is invoked is activated by the kernel,
//     reconstructing itself from its Passive Representation.
//
// Everything in this reproduction — files, directories, filters,
// devices, passive buffers — is an Eject hosted by this kernel, so the
// invocation meters capture exactly the counts the paper reasons
// about.
package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/storage"
	"asymstream/internal/stripemap"
	"asymstream/internal/uid"
)

// Eject is the interface every Eden object implements.  Serve is
// called once per invocation, holding one of the Eject's worker slots —
// on a pool worker's goroutine, or on that of a synchronous same-node
// invoker — and may block (that is how passive transput parks a Read
// until output is ready); it must complete the invocation exactly once
// via inv.Reply or inv.Fail.
type Eject interface {
	// EdenType names the type-code, used to find the ActivateFunc on
	// re-activation.  It must be stable across runs.
	EdenType() string
	// Serve handles one invocation.
	Serve(inv *Invocation)
}

// Checkpointer is implemented by Ejects that support the Checkpoint
// primitive.  PassiveRepresentation must capture enough state to
// reconstruct the Eject "in a consistent state" (§1).
type Checkpointer interface {
	PassiveRepresentation() ([]byte, error)
}

// Deactivatable is implemented by Ejects that own internal goroutines
// or other resources to release when the kernel stops them.
type Deactivatable interface {
	OnDeactivate()
}

// ActivationContext is passed to an ActivateFunc when the kernel
// re-activates a passive Eject.
type ActivationContext struct {
	Kernel  *Kernel
	Self    uid.UID
	Node    netsim.NodeID
	Passive []byte
	Version uint64
}

// ActivateFunc reconstructs an Eject of one Eden type from its passive
// representation.
type ActivateFunc func(ctx ActivationContext) (Eject, error)

// Config parameterises a Kernel.
type Config struct {
	// Net configures the simulated network (node count, latencies,
	// wire encoding, faults).
	Net netsim.Config
	// Link, when non-nil, carries cross-node traffic instead of the
	// simulated network — a real socket mesh (netsim.SocketNetwork),
	// or any other netsim.Link.  The kernel binds
	// its metrics set to the link at construction and closes the link
	// on Shutdown; Net.Nodes is overridden by the link's node count so
	// placement checks and the transport agree.
	Link netsim.Link
	// WorkersPerEject bounds concurrent Serve calls per Eject
	// (default 32) — the paper's pool of worker processes.  A
	// synchronous same-node invoker serving on its own goroutine
	// counts against it like any pool worker.
	WorkersPerEject int
	// DeterministicUIDs, when non-zero, seeds a reproducible UID
	// stream (tests only).
	DeterministicUIDs uint64
	// StoreHistory bounds checkpoint versions retained per UID
	// (default 4).
	StoreHistory int
	// Trace, when non-nil, receives one TraceEvent per completed
	// invocation (see trace.go).  Adds one timestamp per invocation.
	Trace TraceFunc
	// Store, when non-nil, is used as the stable store instead of a
	// fresh one.  Stable storage outlives the kernel — it is "durable
	// across system crashes" (§1) — so a new kernel booted over the
	// old store re-activates every checkpointed Eject on demand: a
	// whole-system reboot.
	Store *storage.Store
}

// bindingStripes is the kernel table's stripe count.  Power of two;
// 128 keeps worst-case stripe population around 8k bindings at the
// million-channel mark while costing ~16KiB per kernel when idle.
const bindingStripes = 128

// Kernel hosts Ejects and routes invocations.
type Kernel struct {
	cfg   Config
	met   *metrics.Set
	net   *netsim.Network
	link  netsim.Link // cross-node hops; == net unless Config.Link is set
	store *storage.Store
	gen   *uid.Generator

	// bindings is the striped UID→binding table.  Lookups on the
	// invocation hot path are lock-free snapshot hits; Create and
	// teardown lock only one stripe, so million-channel storms never
	// serialise on a kernel-wide mutex (the pre-PR-7 design).  Deleted
	// entries may linger in a stripe snapshot until its next
	// promotion; every reader therefore checks the binding's lifecycle
	// state, which is authoritative.
	bindings *stripemap.Map[uid.UID, *binding]
	down     atomic.Bool
	callers  atomic.Uint32 // handles made, which deals their ledger stripes

	mu    sync.RWMutex // guards types only
	types map[string]ActivateFunc
}

// New creates a Kernel with its own metrics set, network and stable
// store.
func New(cfg Config) *Kernel {
	if cfg.WorkersPerEject <= 0 {
		cfg.WorkersPerEject = 32
	}
	if cfg.StoreHistory <= 0 {
		cfg.StoreHistory = 4
	}
	met := &metrics.Set{}
	var gen *uid.Generator
	if cfg.DeterministicUIDs != 0 {
		gen = uid.NewDeterministic(cfg.DeterministicUIDs)
	} else {
		gen = uid.NewGenerator()
	}
	store := cfg.Store
	if store == nil {
		store = storage.NewStore(cfg.StoreHistory)
	}
	if cfg.Link != nil {
		// The transport defines the node topology; the embedded netsim
		// config must agree or placement checks would reject nodes the
		// link can reach.
		cfg.Net.Nodes = cfg.Link.Nodes()
		if b, ok := cfg.Link.(netsim.MetricsBinder); ok {
			b.BindMetrics(met)
		}
	}
	k := &Kernel{
		cfg:      cfg,
		met:      met,
		net:      netsim.New(cfg.Net, met),
		store:    store,
		gen:      gen,
		bindings: stripemap.New[uid.UID, *binding](bindingStripes, uid.UID.Hash, &met.ChannelLookupContention),
		types:    make(map[string]ActivateFunc),
	}
	if cfg.Link != nil {
		k.link = cfg.Link
	} else {
		k.link = k.net
	}
	return k
}

// Metrics returns the kernel's metric set.
func (k *Kernel) Metrics() *metrics.Set { return k.met }

// Network returns the simulated network.
func (k *Kernel) Network() *netsim.Network { return k.net }

// LinkKind names the transport carrying this kernel's cross-node
// traffic ("netsim" unless Config.Link was supplied).
func (k *Kernel) LinkKind() string { return k.link.Kind() }

// Store returns the stable store.
func (k *Kernel) Store() *storage.Store { return k.store }

// NewUID mints a fresh UID from the kernel's generator.
func (k *Kernel) NewUID() uid.UID { return k.gen.New() }

// RegisterType associates an Eden type name with its activation
// function.  Registration must happen before any Eject of that type is
// re-activated; registering twice replaces the function.
func (k *Kernel) RegisterType(name string, fn ActivateFunc) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.types[name] = fn
}

// Create registers a new, active Eject on the given node and returns
// its freshly minted UID.
func (k *Kernel) Create(e Eject, node netsim.NodeID) (uid.UID, error) {
	id := k.gen.New()
	if err := k.CreateWithUID(id, e, node); err != nil {
		return uid.Nil, err
	}
	return id, nil
}

// CreateWithUID registers a new active Eject under a caller-chosen
// UID.  It fails if the UID is already bound.
func (k *Kernel) CreateWithUID(id uid.UID, e Eject, node netsim.NodeID) error {
	if id.IsNil() {
		return fmt.Errorf("kernel: create with nil UID")
	}
	if int(node) < 0 || int(node) >= k.net.Nodes() {
		return fmt.Errorf("kernel: create on node %d: only %d nodes", node, k.net.Nodes())
	}
	if k.down.Load() {
		return ErrKernelDown
	}
	b := newBinding(id, node, e, k.cfg.WorkersPerEject)
	if _, loaded := k.bindings.LoadOrStore(id, b); loaded {
		return fmt.Errorf("kernel: UID %s already bound", id)
	}
	// Close the create/shutdown race: a Shutdown that ran between the
	// down check and the insert may have missed this binding in its
	// sweep, so stop it here rather than leaving it live forever.
	if k.down.Load() {
		b.stop(stateDestroyed)
		k.bindings.Delete(id)
		return ErrKernelDown
	}
	k.met.EjectsCreated.Inc()
	return nil
}

// NodeOf reports the home node of an Eject.
func (k *Kernel) NodeOf(id uid.UID) (netsim.NodeID, error) {
	if b, ok := k.bindings.Load(id); ok {
		return b.node, nil
	}
	return 0, ErrNoSuchEject
}

// State returns "active", "passive" or "destroyed" for diagnostics,
// or an error for unknown UIDs.
func (k *Kernel) State(id uid.UID) (string, error) {
	if b, ok := k.bindings.Load(id); ok {
		b.mu.Lock()
		s := b.state.String()
		b.mu.Unlock()
		return s, nil
	}
	if k.store.Exists(id) {
		return "passive", nil
	}
	return "", ErrNoSuchEject
}

// ActiveCount returns the number of currently active Ejects.
func (k *Kernel) ActiveCount() int {
	n := 0
	k.bindings.Range(func(_ uid.UID, b *binding) bool {
		b.mu.Lock()
		if b.state == stateActive {
			n++
		}
		b.mu.Unlock()
		return true
	})
	return n
}

// resolve finds the active binding for target, activating a passive
// Eject if necessary (the kernel behaviour §1 promises).  The warm
// path — an active binding — is a lock-free stripe-snapshot hit plus
// one binding-local state check.
func (k *Kernel) resolve(target uid.UID) (*binding, error) {
	if k.down.Load() {
		return nil, ErrKernelDown
	}
	b, ok := k.bindings.Load(target)
	if ok {
		b.mu.Lock()
		st := b.state
		b.mu.Unlock()
		switch st {
		case stateActive:
			return b, nil
		case stateDestroyed:
			return nil, ErrNoSuchEject
		}
		// passive: fall through to activation
	} else if !k.store.Exists(target) {
		return nil, ErrNoSuchEject
	}
	return k.activate(target)
}

// activate reconstructs a passive Eject from its latest passive
// representation.
func (k *Kernel) activate(target uid.UID) (*binding, error) {
	rep, err := k.store.Latest(target)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (no passive representation)", ErrNoSuchEject, target)
	}
	if k.down.Load() {
		return nil, ErrKernelDown
	}
	k.mu.RLock()
	fn, ok := k.types[rep.EdenType]
	k.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownType, rep.EdenType)
	}
	b, _ := k.bindings.Load(target)
	if b != nil {
		b.mu.Lock()
		st := b.state
		b.mu.Unlock()
		if st == stateActive { // lost a race; someone else activated
			return b, nil
		}
		if st == stateDestroyed {
			return nil, ErrNoSuchEject
		}
	}
	node := netsim.NodeID(0)
	if b != nil {
		node = b.node
	}

	// Run the type's activation code without any table lock held: it
	// may itself create Ejects or invoke.
	e, err := fn(ActivationContext{
		Kernel:  k,
		Self:    target,
		Node:    node,
		Passive: rep.Data,
		Version: rep.Version,
	})
	if err != nil {
		return nil, fmt.Errorf("kernel: activate %s (%s): %w", target, rep.EdenType, err)
	}

	if b == nil {
		nb := newBinding(target, node, e, k.cfg.WorkersPerEject)
		nb.state = statePassive // tryReactivate below flips it
		if cur, loaded := k.bindings.LoadOrStore(target, nb); loaded {
			b = cur // a concurrent activation installed the binding first
		} else {
			b = nb
		}
	}
	// tryReactivate installs our instance only if the binding is still
	// inactive — the check and the install are one critical section, so
	// concurrent activations cannot both win.
	if !b.tryReactivate(e) {
		b.mu.Lock()
		st := b.state
		b.mu.Unlock()
		if d, ok := e.(Deactivatable); ok {
			d.OnDeactivate() // discard our instance
		}
		if st == stateDestroyed {
			return nil, ErrNoSuchEject
		}
		return b, nil // concurrent activation won
	}
	if k.down.Load() {
		// Shutdown raced the reactivation and may have missed this
		// binding in its sweep.
		if e, was := b.stop(stateDestroyed); was {
			if d, ok := e.(Deactivatable); ok {
				d.OnDeactivate()
			}
		}
		return nil, ErrKernelDown
	}
	k.met.Activations.Inc()
	return b, nil
}

// lookupNode reports the home node of id and whether it is currently
// bound.  uid.Nil (external callers) is always node 0.
func (k *Kernel) lookupNode(id uid.UID) (netsim.NodeID, bool) {
	if id.IsNil() {
		return 0, true
	}
	if b, ok := k.bindings.Load(id); ok {
		return b.node, true
	}
	return 0, false
}

// nodeOf returns the home node of id, or node 0 for external callers
// (uid.Nil or unknown UIDs).
func (k *Kernel) nodeOf(id uid.UID) netsim.NodeID {
	node, _ := k.lookupNode(id)
	return node
}

// Caller is a reusable invoker handle for one Eject (or external
// driver).  It caches the invoker's home node after the first
// successful lookup, so a warm invocation skips the kernel-wide
// binding-map lock that nodeOf would otherwise take on every hop.
// Caching is sound because an Eject's home node is fixed for the life
// of the kernel: bindings are never rehomed, and re-activation reuses
// the existing binding's node.
type Caller struct {
	k    *Kernel
	from uid.UID
	// cache is 0 when unresolved, else home node + 1.  Unknown UIDs
	// are not cached (the Eject may be created later, on any node).
	cache atomic.Uint64
	// peer is the binding send last resolved for this handle — a port
	// invokes one peer all its life.  send tries it before the table,
	// unverified: claim and enqueue check its state themselves.  It may
	// pin one stopped binding (whose eject is nil) until the handle's
	// next call, or its own collection.
	peer atomic.Pointer[binding]
	// own is the Call and Invocation of one synchronous same-node
	// invocation through the handle at a time, taken by setting busy: a
	// second concurrent invoker draws from the pools.  The Call serves
	// either dispatch path (it never leaves the invoker), the Invocation
	// only the caller-runs one, since a pool worker still reads its
	// Invocation after replying.  Both are reset when taken, never Put.
	busy atomic.Bool
	own  struct {
		call Call
		inv  Invocation
	}
	// A held call ticks the handle's own ledger stripe, dealt round-robin
	// so that a pipeline's first 16 ports share no line, and draws its
	// message id from ids, a block reserved on it; busy guards ids too.
	stripe metrics.Stripe
	ids    metrics.IDBlock
}

// Caller returns an invoker handle for from.  Ports that invoke
// repeatedly should hold one for the lifetime of the port.
func (k *Kernel) Caller(from uid.UID) *Caller {
	return &Caller{k: k, from: from, stripe: metrics.Stripe(k.callers.Add(1) - 1)}
}

// fromNode resolves (and caches) the invoker's home node.
func (c *Caller) fromNode() netsim.NodeID {
	if s := c.cache.Load(); s != 0 {
		return netsim.NodeID(s - 1)
	}
	node, ok := c.k.lookupNode(c.from)
	if ok {
		c.cache.Store(uint64(node) + 1)
	}
	return node
}

// remembered returns the binding the handle last resolved, if it is
// target's and the kernel is up.  It may have stopped since, or been
// superseded in the table.
func (c *Caller) remembered(target uid.UID) *binding {
	if c == nil {
		return nil
	}
	if b := c.peer.Load(); b != nil && b.id == target && !c.k.down.Load() {
		return b
	}
	return nil
}

// AsyncInvoke sends an invocation from the handle's Eject.
func (c *Caller) AsyncInvoke(target uid.UID, op string, payload any) *Call {
	call, _, _ := c.k.send(c.from, c.fromNode(), target, op, payload, false, c)
	return call
}

// Invoke performs a synchronous invocation from the handle's Eject.
func (c *Caller) Invoke(target uid.UID, op string, payload any) (any, error) {
	return c.k.invokeSync(c.from, c.fromNode(), target, op, payload, c)
}

// AsyncInvoke sends an invocation and returns immediately with a Call
// handle.  This is Eden's native style: "the sender is free to perform
// other tasks".  It always goes through the target's mailbox, so it
// returns before Serve does however long Serve takes.
func (k *Kernel) AsyncInvoke(from, target uid.UID, op string, payload any) *Call {
	c, _, _ := k.send(from, k.nodeOf(from), target, op, payload, false, nil)
	return c
}

// Invoke performs a synchronous invocation: send, then wait for the
// reply.
func (k *Kernel) Invoke(from, target uid.UID, op string, payload any) (any, error) {
	return k.invokeSync(from, k.nodeOf(from), target, op, payload, nil)
}

// invokeSync is Invoke with the invoker's node resolved.  If send
// claimed one of the target's worker slots, Serve runs here, once send
// has returned, and has left its reply in the Call (serveInvocation
// fails an invocation Serve did not answer); otherwise the reply comes
// through the Call's channel.  The Call never leaves this goroutine, so
// it is collected without its mutex or published state, and recycled —
// unless it is via's own, which is handed back instead.
func (k *Kernel) invokeSync(from uid.UID, fromNode netsim.NodeID, target uid.UID, op string, payload any, via *Caller) (any, error) {
	c, inv, s := k.send(from, fromNode, target, op, payload, true, via)
	var r reply
	if inv != nil {
		serveInvocation(s.e, inv)
		s.release()
		r = c.res
	} else {
		r = <-c.replyc
	}
	res, err := c.result(c.settle(r))
	if via != nil && c == &via.own.call {
		via.busy.Store(false)
	} else {
		c.release()
	}
	return res, err
}

// send is the invocation hot path.  fromNode is the invoker's
// already-resolved home node (cached by Caller, or looked up once by
// the public wrappers); via is the Caller it came through, if any.  A
// warm local hop through a Caller does not read the binding table at
// all, and allocates nothing beyond what the payload itself requires:
// the Call and Invocation are via's own, or come from pools.
//
// Every invocation is resolved, transmitted through the link, metered
// and traced here, the same way.  What differs is who runs Serve:
//
//   - waits == false (AsyncInvoke: "sending does not suspend the
//     sender"), a target on another node, a full pool or a non-empty
//     mailbox: the invocation goes into the target's mailbox and a
//     pool worker serves it, replying on the Call's channel.  send
//     returns the Call alone.
//   - otherwise the invoker — which does nothing until the reply comes —
//     claims one of the target's worker slots, and send hands it the
//     Invocation and the slot to serve on its own goroutine.  The reply
//     is written straight into the Call (Invocation.slot): no channel
//     operation, and none of the mailbox path's two goroutine hand-offs
//     (wake a worker, be woken by it).  A sender that sends and
//     immediately waits cannot observe whether its message sat in a
//     queue, nor whose its records are.
//
// The choice, and with it where the reply goes and whose Invocation
// carries it, is made from the call alone; there is no switch for it.
// Cross-node invocations stay on the mailbox (DESIGN §6 says what
// serving them inline costs).
//
// An invocation is one message however many times a deactivating target
// makes send resolve it again: it has one Call, draws one id, and is
// counted once, at the moment a slot or the mailbox takes it.  One that
// nothing takes is answered by refuse and ticks no meter on either
// side.  The id and the counts go to one stripe of the metrics ledger:
// via's, the id from via's block, for a held call; Here's for any other.
func (k *Kernel) send(from uid.UID, fromNode netsim.NodeID, target uid.UID, op string, payload any, waits bool, via *Caller) (*Call, *Invocation, slot) {
	// A remembered binding is tried without resolving it.  If it has
	// stopped, claim and enqueue both refuse it and the loop resolves
	// afresh, with every retry left.
	b := via.remembered(target)
	// via's own records are for a call that will likely serve here: a
	// synchronous one whose remembered peer shares its node.  Whichever
	// path it takes, nothing but the invoker reads its Call.
	held := waits && b != nil && b.node == fromNode && via.busy.CompareAndSwap(false, true)
	var c *Call
	var st metrics.Stripe
	if held {
		c, st = &via.own.call, via.stripe
		*c = Call{replyc: c.replyc}
	} else {
		c, st = calls.Get(), metrics.Here()
	}
	c.arm(k, op, target, fromNode)
	// at is the node the payload is on, and sent the form it has there.
	at, sent := fromNode, payload
	for resolves := 0; ; {
		if b == nil {
			var err error
			if b, err = k.resolve(target); err != nil {
				c.refuse(from, err)
				return c, nil, slot{}
			}
			resolves++
			if via != nil {
				via.peer.Store(b)
			}
		}
		// The request payload crosses the network to the target node.  A
		// retry sends it on from where the last try left it, never the
		// sender's original again: an encoded hop has handed the original's
		// items back (a slab's views, a writer's arena copies).
		c.toNode = b.node
		out, _, err := k.link.Transmit(at, b.node, sent)
		if err != nil {
			c.refuse(from, err)
			return c, nil, slot{}
		}
		at, sent = b.node, out
		if c.msgID == 0 {
			if held {
				c.msgID = k.met.DrawID(&via.ids, st)
			} else {
				c.msgID = k.met.NextID(st)
			}
			c.stripe = st
			k.traceStart(c, from)
		}

		// A slot or the mailbox takes it: that is the delivery, and the
		// one place it is metered.  The slot is claimed before the
		// Invocation is chosen: only one served here may be via's own.
		// Once enqueued, inv belongs to the target and may already have
		// been served and recycled; its reply is not collected before
		// send returns, so replies never run ahead of invocations.
		local := fromNode == b.node
		var s slot
		inline := waits && local
		if inline {
			s, inline = b.claim()
		}
		var inv *Invocation
		if inline && held {
			inv = &via.own.inv
			*inv = Invocation{}
		} else {
			inv = invocations.Get()
		}
		inv.MsgID, inv.From, inv.Target, inv.Op = c.msgID, from, target, op
		inv.fromNode, inv.toNode, inv.Payload = fromNode, b.node, sent
		if inline {
			inv.slot = &c.res
		} else {
			inv.replyc = c.replyc
		}
		if inline || b.enqueue(inv) {
			m := k.met
			m.Invocations.AddAt(st, 1)
			if !local {
				m.CrossNodeInvocations.AddAt(st, 1)
			}
			if sz, ok := payload.(Sizer); ok {
				m.BytesMoved.AddAt(st, int64(sz.PayloadSize()))
			}
			if !inline {
				return c, nil, s
			}
			return c, inv, s
		}
		// The binding deactivated between resolve and enqueue; retry,
		// which re-activates.  Bound the retries (three) to avoid
		// spinning on an Eject that deactivates in a tight loop.
		invocations.Put(inv)
		b = nil
		if resolves > 3 {
			c.refuse(from, ErrDeactivated)
			return c, nil, slot{}
		}
	}
}

// refuse answers an invocation no Eject received: the Call's reply is
// err, its trace event carries message id 0, and it ticks no meter.
func (c *Call) refuse(from uid.UID, err error) {
	if c.msgID == 0 {
		c.k.traceStart(c, from) // send gave up before the link took it
	}
	c.msgID = 0
	c.replyc <- reply{err: ToWire(err)}
}

// Checkpoint creates a new passive representation for the Eject (§1).
// It returns the stored version number.
func (k *Kernel) Checkpoint(id uid.UID) (uint64, error) {
	b, ok := k.bindings.Load(id)
	if !ok {
		return 0, ErrNoSuchEject
	}
	b.mu.Lock()
	e := b.eject
	st := b.state
	b.mu.Unlock()
	if st != stateActive || e == nil {
		return 0, fmt.Errorf("kernel: checkpoint %s: not active", id)
	}
	cp, ok := e.(Checkpointer)
	if !ok {
		return 0, fmt.Errorf("%w: %s (%s)", ErrNotCheckpointable, id, e.EdenType())
	}
	data, err := cp.PassiveRepresentation()
	if err != nil {
		return 0, fmt.Errorf("kernel: checkpoint %s: %w", id, err)
	}
	v, err := k.store.Checkpoint(id, e.EdenType(), data)
	if err != nil {
		return 0, err
	}
	k.met.Checkpoints.Inc()
	return v, nil
}

// CheckpointGroup checkpoints several Ejects atomically: the passive
// representations are captured, then committed to stable storage in
// one all-or-nothing operation.  This is the transaction-free subset
// of the full Eden file system's atomic updates (§7): concurrent
// mutations between capture and commit are not serialised (that would
// need the cited transaction machinery), but a crash can never leave
// stable storage holding some of the group's new versions and not
// others.
func (k *Kernel) CheckpointGroup(ids []uid.UID) ([]uint64, error) {
	entries := make([]storage.GroupEntry, 0, len(ids))
	for _, id := range ids {
		b, ok := k.bindings.Load(id)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchEject, id)
		}
		b.mu.Lock()
		e := b.eject
		st := b.state
		b.mu.Unlock()
		if st != stateActive || e == nil {
			return nil, fmt.Errorf("kernel: group checkpoint %s: not active", id)
		}
		cp, ok := e.(Checkpointer)
		if !ok {
			return nil, fmt.Errorf("%w: %s (%s)", ErrNotCheckpointable, id, e.EdenType())
		}
		data, err := cp.PassiveRepresentation()
		if err != nil {
			return nil, fmt.Errorf("kernel: group checkpoint %s: %w", id, err)
		}
		entries = append(entries, storage.GroupEntry{ID: id, EdenType: e.EdenType(), Data: data})
	}
	versions, err := k.store.CheckpointGroup(entries)
	if err != nil {
		return nil, err
	}
	k.met.Checkpoints.Add(int64(len(entries)))
	return versions, nil
}

// Deactivate stops an active Eject.  If it has checkpointed it becomes
// passive (re-activatable on the next invocation); otherwise, per §7,
// it "disappears".
func (k *Kernel) Deactivate(id uid.UID) error {
	b, ok := k.bindings.Load(id)
	if !ok {
		return ErrNoSuchEject
	}
	next := stateDestroyed
	if k.store.Exists(id) {
		next = statePassive
	}
	e, was := b.stop(next)
	if next == stateDestroyed {
		// No passive representation: the Eject "disappears" (§7), so
		// its table entry is garbage — reclaim it.  Million-channel
		// churn would otherwise grow the table without bound.
		k.bindings.Delete(id)
	}
	if !was {
		return nil // already inactive; idempotent
	}
	if d, ok := e.(Deactivatable); ok {
		d.OnDeactivate()
	}
	return nil
}

// Destroy removes an Eject entirely, including its checkpoints.
func (k *Kernel) Destroy(id uid.UID) error {
	b, ok := k.bindings.Load(id)
	if ok {
		e, was := b.stop(stateDestroyed)
		k.bindings.Delete(id)
		if was {
			if d, ok := e.(Deactivatable); ok {
				d.OnDeactivate()
			}
		}
	}
	k.store.Delete(id)
	if !ok && !k.store.Exists(id) {
		return ErrNoSuchEject
	}
	return nil
}

// CrashNode simulates the failure of one simulated machine: every
// Eject homed there loses its volatile state.  Checkpointed Ejects
// become passive (they will re-activate from stable storage on the
// next invocation); the rest are lost.
func (k *Kernel) CrashNode(node netsim.NodeID) {
	var victims []*binding
	k.bindings.Range(func(_ uid.UID, b *binding) bool {
		if b.node == node {
			victims = append(victims, b)
		}
		return true
	})
	for _, b := range victims {
		next := stateDestroyed
		if k.store.Exists(b.id) {
			next = statePassive
		}
		// A crash gives the Eject no chance to clean up: volatile
		// state simply vanishes, so OnDeactivate is NOT called.
		b.stop(next)
		if next == stateDestroyed {
			k.bindings.Delete(b.id)
		}
	}
}

// Shutdown stops every Eject and refuses further work.  In-flight
// workers finish naturally.  Every binding is stopped before any
// OnDeactivate hook runs, and the hooks run concurrently: a hook may
// wait on work parked in another Eject (a stage cancelling its input
// waits for pulls parked in its producer), which only that Eject's own
// hook releases, so no order of serial calls is safe.
func (k *Kernel) Shutdown() {
	if !k.down.CompareAndSwap(false, true) {
		return
	}
	var hooks []Deactivatable
	k.bindings.Range(func(_ uid.UID, b *binding) bool {
		if e, was := b.stop(stateDestroyed); was {
			if d, ok := e.(Deactivatable); ok {
				hooks = append(hooks, d)
			}
		}
		return true
	})
	var wg sync.WaitGroup
	for _, d := range hooks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.OnDeactivate()
		}()
	}
	wg.Wait()
	if k.cfg.Link != nil {
		// The kernel owns a supplied link's lifetime: closing it here
		// tears down sockets and read slabs (whose leak audit lands in
		// this kernel's SlabLeaked) once no new invocations can start.
		_ = k.cfg.Link.Close()
	}
}
