package kernel

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// Tests for the worker-slot accounting: a synchronous same-node Invoke
// serves on the invoker's goroutine as one of the target's worker
// slots, and every mix of inline servers and pool workers must respect
// the binding's invariant (workers − idle) + inline ≤ maxWorkers.

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 12 [running]:").  Tests only.
func goid() uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// slots is the binding's slot accounting at one instant.
type slots struct{ workers, idle, inline, queued int }

func slotsOf(t *testing.T, k *Kernel, id uid.UID) slots {
	t.Helper()
	b, ok := k.bindings.Load(id)
	if !ok {
		t.Fatalf("no binding for %s", id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.slotsLocked(t)
}

// slotsLocked reads the counts and checks them against the invariant.
func (b *binding) slotsLocked(t *testing.T) slots {
	t.Helper()
	if b.idle < 0 || b.idle > b.workers || b.inline < 0 || b.workers-b.idle+b.inline > b.maxWorkers {
		t.Fatalf("slot invariant broken: workers=%d idle=%d inline=%d, max %d", b.workers, b.idle, b.inline, b.maxWorkers)
	}
	return slots{b.workers, b.idle, b.inline, b.count}
}

// eventually polls cond for up to two seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// quiesced waits until no slot of the binding is in use.
func quiesced(t *testing.T, k *Kernel, id uid.UID) {
	t.Helper()
	eventually(t, "slot counts back to zero", func() bool {
		s := slotsOf(t, k, id)
		return s.workers-s.idle == 0 && s.inline == 0 && s.queued == 0
	})
}

// gatedEject parks every invocation until a token arrives on its gate
// (or the gate is closed), and records how many Serve calls overlapped.
type gatedEject struct {
	gate    chan struct{}
	entered atomic.Int64

	mu      sync.Mutex
	active  int
	highest int
}

func newGated() *gatedEject {
	return &gatedEject{gate: make(chan struct{})}
}

func (g *gatedEject) EdenType() string { return "test.Gated" }

func (g *gatedEject) Serve(inv *Invocation) {
	g.mu.Lock()
	g.active++
	g.highest = max(g.highest, g.active)
	g.mu.Unlock()
	g.entered.Add(1)
	<-g.gate
	g.mu.Lock()
	g.active--
	g.mu.Unlock()
	inv.Reply(&pingRep{})
}

func (g *gatedEject) peak() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.highest
}

// launch starts one invocation of the gated Eject — 'a' through
// AsyncInvoke on the test goroutine, 's' a synchronous Invoke on a
// goroutine of its own — and returns a channel carrying its outcome.
func launch(t *testing.T, k *Kernel, id uid.UID, kind byte) <-chan error {
	t.Helper()
	out := make(chan error, 1)
	switch kind {
	case 'a':
		c := k.AsyncInvoke(uid.Nil, id, "wait", &pingReq{})
		go func() { _, err := c.Wait(); out <- err }()
	case 's':
		go func() { _, err := k.Invoke(uid.Nil, id, "wait", &pingReq{}); out <- err }()
	default:
		t.Fatalf("launch kind %q", kind)
	}
	return out
}

// await collects a launched invocation's outcome.
func await(t *testing.T, out <-chan error) error {
	t.Helper()
	select {
	case err := <-out:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("invocation never completed")
		return nil
	}
}

// TestWorkerPoolBoundsParkedInvocations: with a pool of `bound` slots,
// one more concurrent invocation waits in the mailbox until a slot
// frees — the bounded "worker processes" of §4's footnote — whether the
// slots are held by pool workers (async callers), by the invokers
// themselves (sync callers), or by a mix.
func TestWorkerPoolBoundsParkedInvocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		kinds string // one caller per byte, started in order; the pool is len(kinds)-1
		want  slots  // once bound callers are in Serve and one waits
	}{
		{"async", "aaa", slots{workers: 2, queued: 1}},
		{"sync", "sss", slots{inline: 2, queued: 1}},
		{"mixed", "ass", slots{workers: 1, inline: 1, queued: 1}},
		{"sync/workers=1", "ss", slots{inline: 1, queued: 1}},
		{"mixed/workers=1", "as", slots{workers: 1, queued: 1}},
		{"mixed/workers=1/sync-first", "sa", slots{inline: 1, queued: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t, Config{WorkersPerEject: len(tc.kinds) - 1})
			e := newGated()
			id, err := k.Create(e, 0)
			if err != nil {
				t.Fatal(err)
			}
			bound := len(tc.kinds) - 1
			var outcomes []<-chan error
			for i := 0; i < bound; i++ {
				outcomes = append(outcomes, launch(t, k, id, tc.kinds[i]))
				eventually(t, "a caller to enter Serve", func() bool { return e.entered.Load() == int64(i+1) })
			}
			// One caller too many: it must sit in the mailbox, and no
			// pool worker is idle to be woken for it later.
			outcomes = append(outcomes, launch(t, k, id, tc.kinds[bound]))
			eventually(t, "the extra caller to queue", func() bool { return slotsOf(t, k, id).queued == 1 })
			time.Sleep(20 * time.Millisecond)
			if n := e.entered.Load(); n != int64(bound) {
				t.Fatalf("entered = %d, want exactly %d (pool bound)", n, bound)
			}
			if got := slotsOf(t, k, id); got != tc.want {
				t.Fatalf("slots = %+v, want %+v", got, tc.want)
			}
			// Free exactly one slot: the waiting caller gets it.
			e.gate <- struct{}{}
			eventually(t, "the queued caller to be served", func() bool { return e.entered.Load() == int64(bound+1) })
			close(e.gate)
			for i, out := range outcomes {
				if err := await(t, out); err != nil {
					t.Fatalf("caller %d: %v", i, err)
				}
			}
			if peak := e.peak(); peak > bound {
				t.Fatalf("saw %d concurrent Serve calls, pool is %d", peak, bound)
			}
			quiesced(t, k, id)
		})
	}
}

// countingPinger is a pinger that records the most Serve calls it saw
// overlap.
type countingPinger struct {
	pinger

	mu      sync.Mutex
	active  int
	highest int
}

func (h *countingPinger) Serve(inv *Invocation) {
	h.mu.Lock()
	h.active++
	h.highest = max(h.highest, h.active)
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.active--
		h.mu.Unlock()
	}()
	h.pinger.Serve(inv)
}

// TestSlotBoundUnderMixedStorm hammers a two-slot Eject with sync and
// async callers at once; Serve (which yields, so that overlapping calls
// do overlap) must never be entered a third time.
func TestSlotBoundUnderMixedStorm(t *testing.T) {
	k := newTestKernel(t, Config{WorkersPerEject: 2})
	h := &countingPinger{}
	id, err := k.Create(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	const callers, each = 8, 300
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var err error
				if (c+i)%2 == 0 {
					_, err = k.Invoke(uid.Nil, id, "yield", &pingReq{})
				} else {
					_, err = k.AsyncInvoke(uid.Nil, id, "yield", &pingReq{}).Wait()
				}
				if err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d invocations failed", failed.Load())
	}
	if got := h.served.Load(); got != callers*each {
		t.Fatalf("served %d, want %d", got, callers*each)
	}
	h.mu.Lock()
	highest := h.highest
	h.mu.Unlock()
	if highest > 2 {
		t.Fatalf("saw %d concurrent Serve calls, the pool is 2", highest)
	}
	quiesced(t, k, id)
}

// gatedPersistent is a checkpointable gatedEject, so the kernel can
// take it passive and bring it back as a new instance.
type gatedPersistent struct{ *gatedEject }

func (gatedPersistent) EdenType() string                       { return "test.GatedPersistent" }
func (gatedPersistent) PassiveRepresentation() ([]byte, error) { return []byte{1}, nil }

// TestInlineServeAcrossReactivation: Deactivate and re-activation while
// an inline Serve is parked.  The parked call completes; its slot
// belonged to the old epoch, so giving it back must not free a slot of
// the new epoch's pool — checked by saturating that pool exactly.
func TestInlineServeAcrossReactivation(t *testing.T) {
	k := newTestKernel(t, Config{WorkersPerEject: 2})
	second := newGated()
	k.RegisterType("test.GatedPersistent", func(ActivationContext) (Eject, error) {
		return gatedPersistent{second}, nil
	})
	first := newGated()
	id, err := k.Create(gatedPersistent{first}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	parked := launch(t, k, id, 's')
	eventually(t, "the inline Serve to park", func() bool { return first.entered.Load() == 1 })
	if got := slotsOf(t, k, id); got != (slots{inline: 1}) {
		t.Fatalf("slots = %+v, want one inline server", got)
	}
	if err := k.Deactivate(id); err != nil {
		t.Fatal(err)
	}

	// The next callers re-activate the Eject and fill the new pool.
	var outcomes []<-chan error
	for i := 0; i < 2; i++ {
		outcomes = append(outcomes, launch(t, k, id, 's'))
		eventually(t, "a caller to enter the new instance", func() bool { return second.entered.Load() == int64(i+1) })
	}
	outcomes = append(outcomes, launch(t, k, id, 's'))
	eventually(t, "the extra caller to queue", func() bool { return slotsOf(t, k, id).queued == 1 })

	// The old epoch's server leaves.  The new pool is still full.
	close(first.gate)
	if err := await(t, parked); err != nil {
		t.Fatalf("call parked across Deactivate: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if got := slotsOf(t, k, id); got != (slots{inline: 2, queued: 1}) {
		t.Fatalf("slots after the old epoch's release = %+v, want the new pool still full", got)
	}
	if n := second.entered.Load(); n != 2 {
		t.Fatalf("new instance entered %d times with a pool of 2", n)
	}
	close(second.gate)
	for i, out := range outcomes {
		if err := await(t, out); err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if peak := second.peak(); peak > 2 {
		t.Fatalf("new instance saw %d concurrent Serve calls, pool is 2", peak)
	}
	quiesced(t, k, id)
}

// TestInlineServeAcrossTeardown: Destroy and Shutdown while an inline
// Serve is parked in the Eject's only slot with another invocation
// queued behind it.  The parked call completes, the queued one is
// failed — by the parked pool worker teardown wakes, or, with no pool
// worker alive, by the one the inline server starts on its way out —
// and later calls are refused.
func TestInlineServeAcrossTeardown(t *testing.T) {
	for _, tc := range []struct {
		name       string
		idleWorker bool // a pool worker is parked when teardown comes
		teardown   func(*Kernel, uid.UID)
		later      error
	}{
		{"destroy", false, func(k *Kernel, id uid.UID) { _ = k.Destroy(id) }, ErrNoSuchEject},
		{"shutdown", false, func(k *Kernel, _ uid.UID) { k.Shutdown() }, ErrKernelDown},
		{"destroy/idle-worker", true, func(k *Kernel, id uid.UID) { _ = k.Destroy(id) }, ErrNoSuchEject},
		{"shutdown/idle-worker", true, func(k *Kernel, _ uid.UID) { k.Shutdown() }, ErrKernelDown},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newTestKernel(t, Config{WorkersPerEject: 1})
			e := newGated()
			id, err := k.Create(e, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := k.bindings.Load(id) // Destroy drops the table entry
			want := slots{inline: 1, queued: 1}
			if tc.idleWorker {
				first := launch(t, k, id, 'a')
				e.gate <- struct{}{}
				if err := await(t, first); err != nil {
					t.Fatal(err)
				}
				eventually(t, "the pool worker to park", func() bool { return slotsOf(t, k, id).idle == 1 })
				e.entered.Store(0)
				want = slots{workers: 1, idle: 1, inline: 1, queued: 1}
			}
			parked := launch(t, k, id, 's')
			eventually(t, "the inline Serve to park", func() bool { return e.entered.Load() == 1 })
			queued := launch(t, k, id, 'a')
			if got := slotsOf(t, k, id); got != want {
				t.Fatalf("slots = %+v, want %+v", got, want)
			}
			tc.teardown(k, id)
			if _, err := k.Invoke(uid.Nil, id, "wait", &pingReq{}); !errors.Is(err, tc.later) {
				t.Fatalf("call after teardown: %v, want %v", err, tc.later)
			}
			close(e.gate)
			if err := await(t, parked); err != nil {
				t.Fatalf("call parked across teardown: %v", err)
			}
			if err := await(t, queued); !errors.Is(err, ErrDeactivated) {
				t.Fatalf("call queued behind the inline server: %v, want ErrDeactivated", err)
			}
			if n := e.entered.Load(); n != 1 {
				t.Fatalf("Serve entered %d times; the queued call must not be served after teardown", n)
			}
			eventually(t, "the draining worker to exit", func() bool {
				b.mu.Lock()
				defer b.mu.Unlock()
				return b.slotsLocked(t) == slots{}
			})
		})
	}
}

// TestClaimConditions pins, on a bare binding, each condition under
// which a synchronous invoker may not take a slot itself.
func TestClaimConditions(t *testing.T) {
	b := newBinding(uid.New(), 0, &pinger{}, 2)
	claimed := func(b *binding) bool { _, ok := b.claim(); return ok }
	first, ok := b.claim()
	second, ok2 := b.claim()
	if !ok || !ok2 {
		t.Fatal("an idle two-slot binding refused an inline server")
	}
	if claimed(b) {
		t.Fatal("claimed a third slot of two")
	}
	first.release()
	second.release()

	// A queued invocation may not be overtaken, even with slots free.
	b.mu.Lock()
	b.push(invocations.Get())
	b.mu.Unlock()
	if claimed(b) {
		t.Fatal("claimed past a non-empty mailbox")
	}
	b.mu.Lock()
	invocations.Put(b.pop())
	b.mu.Unlock()

	old, ok := b.claim()
	if !ok {
		t.Fatal("slots were not returned")
	}
	b.stop(statePassive)
	if claimed(b) {
		t.Fatal("claimed a slot of a stopped binding")
	}
	if !b.tryReactivate(&pinger{}) {
		t.Fatal("reactivation refused")
	}
	old.release() // the old epoch's server leaves
	b.mu.Lock()
	got := b.slotsLocked(t)
	b.mu.Unlock()
	if got != (slots{}) {
		t.Fatalf("slots after reactivation = %+v, want none taken", got)
	}
}

// TestInlineServeGuards: a panic and a missing reply inside an inline
// Serve surface as the errors the mailbox path gives, and free the slot.
func TestInlineServeGuards(t *testing.T) {
	k := newTestKernel(t, Config{WorkersPerEject: 1})
	p := &whoPinger{}
	id, err := k.Create(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"panic", "mute"} {
		p.last.Store(0)
		_, inline := k.Invoke(uid.Nil, id, op, &pingReq{})
		if p.last.Load() != goid() {
			t.Fatalf("%s was not served on the invoker's goroutine", op)
		}
		_, queued := k.AsyncInvoke(uid.Nil, id, op, &pingReq{}).Wait()
		if inline == nil || queued == nil || inline.Error() != queued.Error() {
			t.Errorf("%s: inline %v, mailbox %v; want the same error", op, inline, queued)
		}
		if op == "mute" && !errors.Is(inline, ErrNoReply) {
			t.Errorf("mute: %v, want ErrNoReply", inline)
		}
		// The Eject's only slot is free again: the next synchronous
		// caller is served, and inline.
		quiesced(t, k, id)
		p.last.Store(0)
		if _, err := k.Invoke(uid.Nil, id, "ping", &pingReq{}); err != nil {
			t.Fatal(err)
		}
		if p.last.Load() != goid() {
			t.Errorf("after %s the slot was not free for the next inline caller", op)
		}
	}
}

// whoPinger is a pinger that records the goroutine its last Serve ran
// on.
type whoPinger struct {
	pinger
	last atomic.Uint64
}

func (w *whoPinger) Serve(inv *Invocation) {
	w.last.Store(goid())
	w.pinger.Serve(inv)
}

// TestAsyncInvokeDoesNotSuspendSender: §1, "the sending of an
// invocation does not suspend the execution of the sending Eject".
// AsyncInvoke against an Eject whose Serve blocks returns before Serve
// does — it is never served on the sender's goroutine.
func TestAsyncInvokeDoesNotSuspendSender(t *testing.T) {
	k := newTestKernel(t, Config{})
	e := newGated()
	id, err := k.Create(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan []*Call, 1)
	go func() {
		sent <- []*Call{
			k.AsyncInvoke(uid.Nil, id, "wait", &pingReq{}),
			k.Caller(uid.Nil).AsyncInvoke(id, "wait", &pingReq{}),
		}
	}()
	var calls []*Call
	select {
	case calls = <-sent:
	case <-time.After(2 * time.Second):
		t.Fatal("AsyncInvoke did not return while Serve was blocked")
	}
	eventually(t, "both invocations to reach Serve", func() bool { return e.entered.Load() == 2 })
	close(e.gate)
	for _, c := range calls {
		if _, err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWhoServes pins the dispatch choice by goroutine identity: a
// synchronous same-node Invoke runs Serve on the invoker's goroutine;
// AsyncInvoke and a cross-node target never do.  On both
// paths the reply arrives and the meters read the same.
func TestWhoServes(t *testing.T) {
	k := newTestKernel(t, Config{Net: netsim.Config{Nodes: 2}})
	create := func(node netsim.NodeID) (*whoPinger, uid.UID) {
		w := &whoPinger{}
		id, err := k.Create(w, node)
		if err != nil {
			t.Fatal(err)
		}
		return w, id
	}
	plain, plainID := create(0)
	remote, remoteID := create(1)
	_, homeID := create(1) // an invoker homed beside remote

	me := goid()
	metered := func(call func() error) (inv, rep, sw int64) {
		t.Helper()
		before := k.Metrics().Snapshot()
		if err := call(); err != nil {
			t.Fatal(err)
		}
		d := metrics.Diff(before, k.Metrics().Snapshot())
		return d.Get("invocations"), d.Get("replies"), d.Get("process_switches")
	}
	for _, tc := range []struct {
		name   string
		w      *whoPinger
		inline bool
		call   func() error
	}{
		{"sync local", plain, true, func() error { _, err := k.Invoke(uid.Nil, plainID, "ping", &pingReq{}); return err }},
		{"sync local via Caller", plain, true, func() error { _, err := k.Caller(uid.Nil).Invoke(plainID, "ping", &pingReq{}); return err }},
		{"sync local on node 1", remote, true, func() error { _, err := k.Caller(homeID).Invoke(remoteID, "ping", &pingReq{}); return err }},
		{"async local", plain, false, func() error { _, err := k.AsyncInvoke(uid.Nil, plainID, "ping", &pingReq{}).Wait(); return err }},
		{"sync cross-node", remote, false, func() error { _, err := k.Invoke(uid.Nil, remoteID, "ping", &pingReq{}); return err }},
		{"sync cross-node via Caller", plain, false, func() error { _, err := k.Caller(homeID).Invoke(plainID, "ping", &pingReq{}); return err }},
	} {
		for i := 0; i < 50; i++ {
			tc.w.last.Store(0)
			inv, rep, sw := metered(tc.call)
			if inv != 1 || rep != 1 || sw != 2 {
				t.Fatalf("%s: %d invocations, %d replies, %d switches; want 1, 1, 2 on every path", tc.name, inv, rep, sw)
			}
			if got := tc.w.last.Load() == me; got != tc.inline {
				t.Fatalf("%s, call %d: served on the invoker's goroutine = %v, want %v", tc.name, i, got, tc.inline)
			}
		}
	}
}

// TestReactivationServesWhatTheOldPoolLeft: an invocation queued behind
// the one busy worker when its Eject deactivates, and still queued when
// an invocation that then never reaches the mailbox (its request is lost
// to a partition) re-activates the Eject, is served by the new
// activation.  The old worker leaves on the epoch change, and no
// enqueue comes to start a new one; the ledger's deactivate storm hung
// on this, rarely.
func TestReactivationServesWhatTheOldPoolLeft(t *testing.T) {
	k := newTestKernel(t, Config{WorkersPerEject: 1, Net: netsim.Config{Nodes: 2}})
	g := newGated()
	k.RegisterType("test.GatedPersistent", func(ActivationContext) (Eject, error) {
		return gatedPersistent{g}, nil
	})
	id, _ := k.Create(gatedPersistent{g}, 0)
	if _, err := k.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	far, _ := k.Create(&pinger{}, 1)
	busy := k.AsyncInvoke(uid.Nil, id, "get", &pingReq{})
	eventually(t, "the worker to park in Serve", func() bool { return g.entered.Load() == 1 })
	queued := k.AsyncInvoke(uid.Nil, id, "get", &pingReq{})
	if err := k.Deactivate(id); err != nil {
		t.Fatal(err)
	}
	k.Network().Partition(0, 1)
	if _, err := k.Invoke(far, id, "get", &pingReq{}); !errors.Is(err, netsim.ErrPartitioned) {
		t.Fatalf("invocation across the partition: %v", err)
	}
	k.Network().Heal(0, 1)
	close(g.gate)
	if _, err := busy.Wait(); err != nil {
		t.Fatalf("busy invocation: %v", err)
	}
	select {
	case <-queued.Done():
		if _, err := queued.Wait(); err != nil {
			t.Errorf("queued invocation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the invocation queued across the deactivation was never answered")
	}
}
