package kernel

import (
	"fmt"
	"sync"

	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// ejectState tracks an Eject's lifecycle.  Per §1, Ejects "are not
// always active, either because they (or their computers) have
// crashed, or because they have explicitly deactivated themselves.
// However, if a passive eject is sent an invocation, the Eden kernel
// will activate it."
type ejectState int

const (
	stateActive ejectState = iota
	statePassive
	stateDestroyed
)

func (s ejectState) String() string {
	switch s {
	case stateActive:
		return "active"
	case statePassive:
		return "passive"
	case stateDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("ejectState(%d)", int(s))
	}
}

// binding is the kernel's record for one UID: its home node, lifecycle
// state and, when active, the running Eject with its mailbox and
// worker slots.  The mailbox is an unbounded ring buffer so that
// enqueueing never blocks the invoker's goroutine: back pressure in
// the transput system is the protocol's job (bounded anticipatory
// buffers), not the kernel's.
//
// An Eject serves at most maxWorkers invocations at once — the paper's
// "coordinator process that receives incoming invocations, and a number
// of worker processes" (§4 footnote) fixes how many, not whose thread.
// A slot is held in one of two ways:
//
//   - by a pool worker: a persistent goroutine that pulls from the
//     mailbox, with the coordinator's hand-off folded into the mailbox
//     itself.  Workers are spawned lazily, one per enqueue that finds
//     no idle worker and a free slot; a warm queued invocation costs
//     one ring push and one cond signal, never a goroutine creation.
//   - by an inline server: a synchronous same-node invoker that found
//     the mailbox empty and a slot free (claim), and runs Serve on its
//     own goroutine.  It would have parked for the reply anyway, so
//     nobody can tell its invocation never sat in the mailbox — and the
//     two goroutine hand-offs of the queued path are not paid.
//
// The slot invariant, held at every instant under mu within one epoch:
//
//	(workers − idle) + inline ≤ maxWorkers
//
// workers − idle counts the pool workers that are serving or have been
// signalled to.  enqueue wakes or spawns a worker only below the bound,
// claim takes a slot only below it, and an inline server that leaves a
// non-empty mailbox behind passes its slot to a pool worker on its way
// out (release), so a slot taken inline never strands a queued
// invocation.  Both counts belong to an epoch: tryReactivate zeroes
// them, and a worker or inline server of an older epoch leaves without
// touching them.
//
// The ring buffer also closes a leak the previous slice-based mailbox
// had: popping with `queue = queue[1:]` kept every consumed
// *Invocation reachable through the backing array until the slice was
// reallocated.  Ring slots are nilled on pop.
type binding struct {
	id   uid.UID
	node netsim.NodeID

	mu    sync.Mutex
	cond  *sync.Cond
	state ejectState
	eject Eject

	// ring is the mailbox: count invocations starting at head.
	ring  []*Invocation
	head  int
	count int

	quit  bool // tells workers to drain and exit
	epoch uint64

	maxWorkers int
	workers    int // live pool workers in the current epoch
	idle       int // workers parked in cond.Wait in the current epoch
	inline     int // invokers serving on their own goroutine in the current epoch
}

// ringMinCap is the initial mailbox capacity; it grows by doubling.
const ringMinCap = 8

func newBinding(id uid.UID, node netsim.NodeID, e Eject, workers int) *binding {
	b := &binding{
		id:         id,
		node:       node,
		state:      stateActive,
		eject:      e,
		maxWorkers: workers,
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// push appends to the ring, growing it when full.  Caller holds b.mu.
func (b *binding) push(inv *Invocation) {
	if b.count == len(b.ring) {
		newCap := len(b.ring) * 2
		if newCap < ringMinCap {
			newCap = ringMinCap
		}
		grown := make([]*Invocation, newCap)
		n := copy(grown, b.ring[b.head:])
		copy(grown[n:], b.ring[:b.head])
		b.ring = grown
		b.head = 0
	}
	b.ring[(b.head+b.count)%len(b.ring)] = inv
	b.count++
}

// pop removes the oldest invocation, nilling the slot so the consumed
// *Invocation is not retained by the ring.  Caller holds b.mu and has
// checked count > 0.
func (b *binding) pop() *Invocation {
	inv := b.ring[b.head]
	b.ring[b.head] = nil
	b.head = (b.head + 1) % len(b.ring)
	b.count--
	return inv
}

// enqueue appends an invocation for dispatch.  It returns false if the
// binding is no longer active (the caller re-resolves, which may
// re-activate the Eject).
func (b *binding) enqueue(inv *Invocation) bool {
	b.mu.Lock()
	if b.state != stateActive || b.quit {
		b.mu.Unlock()
		return false
	}
	b.push(inv)
	b.startWorkerLocked()
	b.mu.Unlock()
	return true
}

// startWorkerLocked puts a free slot, if there is one, to work on the
// mailbox: it wakes a parked worker, or spawns one.  With every slot
// taken it does nothing — a worker pulls from the ring when its current
// Serve returns, and an inline server calls here again on its way out
// (release).  Caller holds b.mu and has found the mailbox non-empty.
func (b *binding) startWorkerLocked() {
	switch {
	case b.workers-b.idle+b.inline >= b.maxWorkers:
	case b.idle > 0:
		// The signaler decrements idle (ownership transfer): a signaled
		// worker leaves the cond's notify list immediately but may not
		// resume for a while, and if it were still counted idle a second
		// enqueue in that window would Signal an empty list — a lost
		// wakeup that strands the invocation in the mailbox.  Signal, not
		// Broadcast, is safe because every waiter is current-epoch: stop's
		// Broadcast flushes the list and zeroes idle.
		b.idle--
		b.cond.Signal()
	default:
		b.workers++
		go b.worker(b.epoch)
	}
}

// slot is one worker slot of a binding's epoch, held by an inline
// server: the Eject to run Serve on, and what release needs to give the
// slot back.
type slot struct {
	b     *binding
	e     Eject
	epoch uint64
}

// claim takes a worker slot for a synchronous same-node invoker, which
// then runs Serve itself and gives the slot back with release.  It
// succeeds only where serving inline is indistinguishable from the
// mailbox: the binding is active, its mailbox is empty (so nothing
// queued is overtaken) and a slot is free.  On false the caller
// enqueues, which also tells it whether the binding is still active.
func (b *binding) claim() (slot, bool) {
	b.mu.Lock()
	if b.state != stateActive || b.quit || b.count > 0 ||
		b.workers-b.idle+b.inline >= b.maxWorkers {
		b.mu.Unlock()
		return slot{}, false
	}
	b.inline++
	s := slot{b: b, e: b.eject, epoch: b.epoch}
	b.mu.Unlock()
	return s, true
}

// release returns a slot taken by claim.  Invocations queued behind the
// inline server get the slot at once, as they would from a pool worker
// returning to the mailbox; if the binding has quit meanwhile, the
// worker started for them fails them.  A slot of an epoch that has
// since been replaced is not the current pool's to count.
func (s slot) release() {
	b := s.b
	b.mu.Lock()
	if b.epoch == s.epoch {
		b.inline--
		if b.count > 0 {
			b.startWorkerLocked()
		}
	}
	b.mu.Unlock()
}

// worker is one persistent member of the binding's pool.  It pulls
// invocations from the mailbox until the binding deactivates (quit) or
// is superseded by a newer activation (epoch change).
func (b *binding) worker(epoch uint64) {
	b.mu.Lock()
	for {
		for b.count == 0 && !b.quit && b.epoch == epoch {
			b.idle++
			b.cond.Wait()
			// idle is decremented by whoever woke us: startWorkerLocked's
			// Signal transfers ownership of one queued invocation, and
			// stop's Broadcast zeroes the counter.
		}
		if b.epoch != epoch {
			b.mu.Unlock()
			return
		}
		if b.quit {
			// Fail everything still queued, then exit.  Several
			// workers may drain concurrently; pop is under b.mu.
			for b.count > 0 {
				inv := b.pop()
				b.mu.Unlock()
				inv.Fail(ErrDeactivated)
				invocations.Put(inv)
				b.mu.Lock()
			}
			b.workers--
			b.mu.Unlock()
			return
		}
		inv := b.pop()
		e := b.eject
		b.mu.Unlock()
		serveInvocation(e, inv)
		b.mu.Lock()
	}
}

// serveInvocation runs one Serve call with the kernel's panic and
// no-reply guarantees, then recycles the Invocation.  The recycling is
// safe because the Eject contract requires Reply/Fail before Serve
// returns (a Serve that returns unreplied is failed here, and a later
// reply would have panicked as a double reply under the old code too).
func serveInvocation(e Eject, inv *Invocation) {
	defer func() {
		if r := recover(); r != nil && !inv.Replied() {
			inv.Fail(fmt.Errorf("kernel: Eject panicked serving %q: %v", inv.Op, r))
		}
		invocations.Put(inv)
	}()
	e.Serve(inv)
	if !inv.Replied() {
		inv.Fail(fmt.Errorf("%w: op %q", ErrNoReply, inv.Op))
	}
}

// stop transitions the binding out of the active state.  It does not
// wait for in-flight workers; they complete their replies naturally.
func (b *binding) stop(next ejectState) (Eject, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != stateActive {
		if b.state != stateDestroyed { // destruction is final
			b.state = next
		}
		return nil, false
	}
	e := b.eject
	b.state = next
	b.eject = nil
	b.quit = true
	b.idle = 0 // every parked worker is woken to drain and exit
	b.cond.Broadcast()
	return e, true
}

// tryReactivate installs a fresh Eject instance and a fresh worker
// pool epoch, if and only if the binding is still inactive.  Workers
// of the old epoch exit on their next mailbox visit, so invocations
// they left queued get a worker of the new pool here.  The state check
// and the install are one critical section so concurrent activations
// race safely: exactly one wins, and the losers keep their instances
// (the kernel discards them).
func (b *binding) tryReactivate(e Eject) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != statePassive {
		return false
	}
	b.state = stateActive
	b.eject = e
	b.quit = false
	b.epoch++
	b.workers = 0
	b.idle = 0
	b.inline = 0
	if b.count > 0 {
		b.startWorkerLocked()
	}
	return true
}
