package kernel

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// Tests for the caller-runs path's two shortcuts: the reply slot an
// inline-served Invocation writes into its Call, and the binding a
// Caller remembers between calls.

// delegator answers from a goroutine Serve starts and joins — the shape
// the reply slot's contract allows: any goroutine may complete the
// invocation, provided Serve does not return before it has.
type delegator struct{ last uint64 }

func (d *delegator) EdenType() string { return "test.Delegator" }

func (d *delegator) Serve(inv *Invocation) {
	d.last = goid()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if inv.Op == "ping" {
			inv.Reply(&pingRep{N: inv.Payload.(*pingReq).N + 1})
		} else {
			inv.Fail(ErrNoSuchOperation)
		}
	}()
	wg.Wait()
}

// TestInlineReplyFromHelperGoroutine: Serve runs on the invoker, the
// reply is written by another goroutine, and the invoker reads it once
// Serve has returned.  Under -race this is the slot's ordering check.
func TestInlineReplyFromHelperGoroutine(t *testing.T) {
	k := newTestKernel(t, Config{})
	d := &delegator{}
	id, err := k.Create(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := k.Caller(uid.Nil)
	for i := range 200 {
		raw, err := c.Invoke(id, "ping", &pingReq{N: i})
		if err != nil {
			t.Fatal(err)
		}
		if got := raw.(*pingRep).N; got != i+1 {
			t.Fatalf("call %d: reply %d, want %d", i, got, i+1)
		}
		if d.last != goid() {
			t.Fatalf("call %d was not served on the invoker's goroutine", i)
		}
		if _, err := c.Invoke(id, "nope", &pingReq{}); !errors.Is(err, ErrNoSuchOperation) {
			t.Fatalf("call %d: error form: %v, want ErrNoSuchOperation", i, err)
		}
	}
	checkLedger(t, k)
}

// hookLink is a two-node link that runs a hook inside every Transmit —
// between send's choice of a binding and its hand-off to it.
type hookLink struct{ hook func() }

func (l *hookLink) Transmit(_, _ netsim.NodeID, payload any) (any, int64, error) {
	if l.hook != nil {
		l.hook()
	}
	return payload, 0, nil
}
func (l *hookLink) Nodes() int   { return 2 }
func (l *hookLink) Kind() string { return "test" }
func (l *hookLink) Close() error { return nil }

// quitter is a checkpointable counter that deactivates itself at the end
// of every Serve, so whoever remembers its binding finds it stopped.
type quitter struct{ persistent }

func (q *quitter) EdenType() string { return "test.Quitter" }

func (q *quitter) Serve(inv *Invocation) {
	q.persistent.Serve(inv)
	_ = q.k.Deactivate(q.self)
}

// TestCallerRemembersAndForgets drives one Caller through everything
// that can make the binding it remembers the wrong one.  A remembered
// binding is used without reading the table; a stale one is never
// served, costs no retry, and is replaced by what resolve finds.
func TestCallerRemembersAndForgets(t *testing.T) {
	link := &hookLink{}
	k := newTestKernel(t, Config{Link: link})
	k.RegisterType("test.Persistent", activatePersistent)
	k.RegisterType("test.Quitter", func(ctx ActivationContext) (Eject, error) {
		return &quitter{persistent{k: ctx.Kernel, self: ctx.Self}}, nil
	})
	m := k.Metrics()
	c := k.Caller(uid.Nil)
	create := func(e Eject, node netsim.NodeID) uid.UID {
		t.Helper()
		id, err := k.Create(e, node)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	// served calls op on id through the one Caller and reports the
	// reply's N; a failure ends the test.
	served := func(t *testing.T, id uid.UID, op string) int {
		t.Helper()
		raw, err := c.Invoke(id, op, &pingReq{})
		if err != nil {
			t.Fatal(err)
		}
		return raw.(*pingRep).N
	}
	remembers := func(t *testing.T, id uid.UID) {
		t.Helper()
		cur, _ := k.bindings.Load(id)
		if got := c.peer.Load(); got == nil || got != cur {
			t.Fatalf("the Caller remembers %p, the table holds %p for %s", got, cur, id)
		}
	}

	a, b := &whoPinger{}, &whoPinger{}
	aID, bID := create(a, 0), create(b, 0)

	t.Run("a warm call does not read the table", func(t *testing.T) {
		served(t, aID, "ping")
		remembers(t, aID)
		// Behind the kernel's back, the table names another binding.
		cur, _ := k.bindings.Load(aID)
		decoy := &pinger{}
		k.bindings.Store(aID, newBinding(aID, 0, decoy, 1))
		defer k.bindings.Store(aID, cur)
		if _, err := k.Invoke(uid.Nil, aID, "ping", &pingReq{}); err != nil || decoy.served.Load() != 1 {
			t.Fatalf("Kernel.Invoke resolves on every call and should have reached the decoy: %v", err)
		}
		before := a.served.Load()
		served(t, aID, "ping")
		if a.served.Load() != before+1 || decoy.served.Load() != 1 {
			t.Fatal("a warm Caller read the table")
		}
	})

	t.Run("alternating targets", func(t *testing.T) {
		for i, id := range []uid.UID{aID, bID, aID, bID, bID, aID} {
			w := map[uid.UID]*whoPinger{aID: a, bID: b}[id]
			before := w.served.Load()
			w.last.Store(0)
			served(t, id, "ping")
			if w.served.Load() != before+1 || w.last.Load() != goid() {
				t.Fatalf("call %d reached the wrong Eject, or was not served inline", i)
			}
			remembers(t, id)
		}
	})

	t.Run("destroyed and re-created on another node", func(t *testing.T) {
		served(t, aID, "ping")
		if err := k.Destroy(aID); err != nil {
			t.Fatal(err)
		}
		next := &whoPinger{}
		if err := k.CreateWithUID(aID, next, 1); err != nil {
			t.Fatal(err)
		}
		old, cross := a.served.Load(), m.CrossNodeInvocations.Value()
		served(t, aID, "ping")
		if a.served.Load() != old || next.served.Load() != 1 {
			t.Fatalf("served old=%d new=%d; want the new instance to answer", a.served.Load()-old, next.served.Load())
		}
		if next.last.Load() == goid() || m.CrossNodeInvocations.Value() != cross+1 {
			t.Fatal("the new instance lives on node 1: its call is cross-node, through the mailbox")
		}
		remembers(t, aID)
	})

	p := &persistent{k: k}
	pID := create(p, 0)
	p.self = pID
	checkpointed := func(t *testing.T, id uid.UID) {
		t.Helper()
		if _, err := k.Checkpoint(id); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("deactivated with a checkpoint", func(t *testing.T) {
		served(t, pID, "incr")
		checkpointed(t, pID)
		if err := k.Deactivate(pID); err != nil {
			t.Fatal(err)
		}
		act := m.Activations.Value()
		if n := served(t, pID, "incr"); n != 2 {
			t.Fatalf("counter = %d after re-activation, want 2: served once, by the restored instance", n)
		}
		if got := m.Activations.Value() - act; got != 1 {
			t.Fatalf("%d activations, want 1", got)
		}
		remembers(t, pID)
	})

	t.Run("node crashed", func(t *testing.T) {
		checkpointed(t, pID)
		served(t, pID, "get")
		act := m.Activations.Value()
		k.CrashNode(0)
		if n := served(t, pID, "get"); n != 2 || m.Activations.Value() != act+1 {
			t.Fatalf("checkpointed Eject after the crash: counter %d, %d activations; want 2 and 1", n, m.Activations.Value()-act)
		}
		// b never checkpointed: it is gone, remembered or not.
		bID2 := create(b, 0)
		served(t, bID2, "ping")
		k.CrashNode(0)
		before := b.served.Load()
		if _, err := c.Invoke(bID2, "ping", &pingReq{}); !errors.Is(err, ErrNoSuchEject) {
			t.Fatalf("call to a crashed, uncheckpointed Eject: %v, want ErrNoSuchEject", err)
		}
		if b.served.Load() != before {
			t.Fatal("a crashed instance was served")
		}
	})

	// The Eject is stopped by the time any call returns, so every call
	// starts from a stale memory; the link then deactivates it again
	// inside the first `yanks` Transmits.  A call gets one try and three
	// retries after the stale one, as it did before there was a memory.
	q := &quitter{persistent{k: k}}
	qID := create(q, 0)
	q.self = qID
	checkpointed(t, qID)
	for _, tc := range []struct {
		name  string
		yanks int
		want  error
	}{{"stale memory costs no retry", 4, nil}, {"retries stay bounded", 5, ErrDeactivated}} {
		t.Run(tc.name, func(t *testing.T) {
			served(t, qID, "get")
			if st, _ := k.State(qID); st != "passive" {
				t.Fatalf("state %q, want the Eject to have deactivated itself", st)
			}
			yanks, inv := tc.yanks, m.Invocations.Value()
			link.hook = func() {
				if yanks > 0 {
					yanks--
					_ = k.Deactivate(qID)
				}
			}
			defer func() { link.hook = nil }()
			if _, err := c.Invoke(qID, "get", &pingReq{}); !errors.Is(err, tc.want) {
				t.Fatalf("Invoke: %v, want %v", err, tc.want)
			}
			if yanks != 0 {
				t.Fatalf("%d of %d yanks unused", yanks, tc.yanks)
			}
			want := int64(0)
			if tc.want == nil {
				want = 1
			}
			if got := m.Invocations.Value() - inv; got != want {
				t.Fatalf("%d invocations counted, want %d", got, want)
			}
		})
	}

	t.Run("kernel down", func(t *testing.T) {
		id := create(b, 0)
		served(t, id, "ping")
		before := b.served.Load()
		// Shutdown raises the flag before it stops the first binding; in
		// that window the remembered binding is still active.
		k.down.Store(true)
		_, flagged := c.Invoke(id, "ping", &pingReq{})
		k.down.Store(false)
		k.Shutdown()
		_, stopped := c.Invoke(id, "ping", &pingReq{})
		if !errors.Is(flagged, ErrKernelDown) || !errors.Is(stopped, ErrKernelDown) {
			t.Fatalf("calls into a kernel going down, and down: %v, %v; want ErrKernelDown", flagged, stopped)
		}
		if b.served.Load() != before {
			t.Fatal("a stopped kernel served a remembered binding")
		}
	})
	checkLedger(t, k)
}

// TestInlineTraceMatchesMailbox: the Trace hook sees the same events, in
// the same order, with the same fields, whichever path delivered the
// invocations — served, failed, panicked, unanswered and refused.
func TestInlineTraceMatchesMailbox(t *testing.T) {
	run := func(invoke func(k *Kernel, c *Caller, id uid.UID, op string)) []TraceEvent {
		var events []TraceEvent
		k := newTestKernel(t, Config{DeterministicUIDs: 7, Trace: func(ev TraceEvent) {
			if (ev.MsgID == 0) != (ev.Op == "lost") {
				t.Errorf("event %+v: a message id exactly when an Eject received it", ev)
			}
			if ev.Start.IsZero() || ev.Elapsed < 0 {
				t.Errorf("event %+v is not stamped", ev)
			}
			ev.MsgID, ev.Start, ev.Elapsed = 0, time.Time{}, 0
			events = append(events, ev)
		}})
		id, err := k.Create(&pinger{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		from, err := k.Create(&pinger{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := k.Caller(from)
		for _, op := range []string{"ping", "ping", "nope", "panic", "mute", "ping"} {
			invoke(k, c, id, op)
		}
		invoke(k, c, k.NewUID(), "lost")
		return events
	}
	inline := run(func(_ *Kernel, c *Caller, id uid.UID, op string) { _, _ = c.Invoke(id, op, &pingReq{}) })
	mailbox := run(func(_ *Kernel, c *Caller, id uid.UID, op string) { _, _ = c.AsyncInvoke(id, op, &pingReq{}).Wait() })
	if len(inline) != 7 || len(mailbox) != len(inline) {
		t.Fatalf("%d inline events, %d mailbox events, want 7 of each", len(inline), len(mailbox))
	}
	for i := range inline {
		if inline[i] != mailbox[i] {
			t.Errorf("event %d: inline %+v, mailbox %+v", i, inline[i], mailbox[i])
		}
	}
}

// mixer serves ping by payload: N%10 == 0 panics unanswered, N%10 == 1
// blocks a while before it echoes, anything else echoes at once.  It
// counts the replies it makes per N.
type mixer struct {
	replies []atomic.Int32
}

func (m *mixer) EdenType() string { return "test.Mixer" }

func (m *mixer) Serve(inv *Invocation) {
	n := inv.Payload.(*pingReq).N
	switch n % 10 {
	case 0:
		panic("deliberate test panic")
	case 1:
		time.Sleep(50 * time.Microsecond)
	}
	m.replies[n].Add(1)
	inv.Reply(&pingRep{N: n})
}

// TestCallerSharedByEightInvokers drives one Caller from 8 goroutines
// at a target served on the invokers (whose Serve echoes, blocks or
// panics) and one on another node, which the mailbox serves: the handle's own
// Call and Invocation go to one invoker at a time, the rest draw from
// the pools.  Every reply is its request's, a panicking inline Serve
// leaves the handle usable, and nothing is answered twice.  Under -race
// it is the own records' ordering check.
func TestCallerSharedByEightInvokers(t *testing.T) {
	const invokers, each = 8, 300
	k := newTestKernel(t, Config{Net: netsim.Config{Nodes: 2}})
	inline := &mixer{replies: make([]atomic.Int32, invokers*each)}
	remote := &mixer{replies: make([]atomic.Int32, invokers*each)}
	var ids [2]uid.UID
	for i, m := range []*mixer{inline, remote} {
		id, err := k.Create(m, netsim.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	c := k.Caller(uid.Nil)
	var wg sync.WaitGroup
	for g := range invokers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				n := g*each + i
				raw, err := c.Invoke(ids[n%3/2], "ping", &pingReq{N: n})
				switch {
				case n%10 == 0:
					if err == nil || !strings.Contains(err.Error(), "panicked") {
						t.Errorf("call %d: %v, %v; want the panic's error", n, raw, err)
					}
				case err != nil:
					t.Errorf("call %d: %v", n, err)
				case raw.(*pingRep).N != n:
					t.Errorf("call %d answered %d", n, raw.(*pingRep).N)
				}
			}
		}()
	}
	wg.Wait()
	for n := range invokers * each {
		want := int32(1)
		if n%10 == 0 {
			want = 0
		}
		got := inline.replies[n].Load() + remote.replies[n].Load()
		if got != want {
			t.Errorf("call %d: replied %d times, want %d", n, got, want)
		}
	}
	if c.busy.Load() {
		t.Error("the Caller's own records are still taken")
	}
	if _, err := c.Invoke(ids[0], "ping", &pingReq{N: 2}); err != nil {
		t.Errorf("the Caller after the storm: %v", err)
	}
	checkLedger(t, k)
}
