package kernel

import (
	"errors"
	"sync"
	"testing"

	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// checkLedger holds the kernel ledger to the identities metrics.Set
// states, and returns the snapshot for the case's own figures.
func checkLedger(t *testing.T, k *Kernel) metrics.Snapshot {
	t.Helper()
	s := k.Metrics().Snapshot()
	inv, rep := s.Get("invocations"), s.Get("replies")
	if rep != inv {
		t.Errorf("replies = %d, invocations = %d", rep, inv)
	}
	if sw := s.Get("process_switches"); sw != inv+rep {
		t.Errorf("process_switches = %d, want invocations + replies = %d", sw, inv+rep)
	}
	if l, c := s.Get("local_invocations"), s.Get("cross_node_invocations"); l+c != inv {
		t.Errorf("local %d + cross_node %d != invocations %d", l, c, inv)
	}
	return s
}

// cutter partitions nodes 0 and 1 while it serves, so its reply meets a
// link that carried the request.
type cutter struct{ k *Kernel }

func (c *cutter) EdenType() string { return "test.Cutter" }

func (c *cutter) Serve(inv *Invocation) {
	c.k.Network().Partition(0, 1)
	inv.Reply(&pingRep{})
}

// yankLink is a one-node link that deactivates an Eject during its
// first few Transmits — that is, between send's resolve and its
// hand-off, the window the retry loop exists for.
type yankLink struct {
	k     *Kernel
	id    uid.UID
	yanks int
}

func (l *yankLink) Transmit(_, _ netsim.NodeID, payload any) (any, int64, error) {
	if l.yanks > 0 {
		l.yanks--
		_ = l.k.Deactivate(l.id)
	}
	return payload, 0, nil
}
func (l *yankLink) Nodes() int   { return 1 }
func (l *yankLink) Kind() string { return "test" }
func (l *yankLink) Close() error { return nil }

// spendLink is a two-node yankLink whose cross-node hop delivers a copy
// of a *pingReq and spends the sender's original, as an encoded hop hands
// the original's items back to their slab or arena.
type spendLink struct{ yankLink }

func (l *spendLink) Transmit(a, b netsim.NodeID, payload any) (any, int64, error) {
	out, n, err := l.yankLink.Transmit(a, b, payload)
	if r, ok := out.(*pingReq); ok && a != b {
		c := *r
		r.N = -1000
		out = &c
	}
	return out, n, err
}
func (l *spendLink) Nodes() int { return 2 }

// TestRetrySendsTheCrossedCopy: a request whose target deactivated while
// it crossed is sent on from where it crossed to, never sent again from
// the sender's original, which the hop has spent.
func TestRetrySendsTheCrossedCopy(t *testing.T) {
	link := &spendLink{}
	k := newTestKernel(t, Config{Link: link})
	k.RegisterType("test.Persistent", activatePersistent)
	p := &persistent{k: k}
	id, _ := k.Create(p, 1)
	p.self = id
	if _, err := k.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	link.k, link.id, link.yanks = k, id, 2
	rep, err := k.Invoke(uid.Nil, id, "add", &pingReq{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.(*pingRep).N; n != 5 {
		t.Fatalf("the target added %d, want the 5 sent", n)
	}
}

// TestLedgerIdentity: an invocation is counted once, when a slot or a
// mailbox takes it, and only a counted invocation's reply is counted —
// so the ledger balances on the paths where no Eject received anything
// (at the parent they left replies and process switches behind) and on
// the deactivation retries (which counted every attempt).
func TestLedgerIdentity(t *testing.T) {
	want := func(t *testing.T, s metrics.Snapshot, invocations int64) {
		t.Helper()
		if got := s.Get("invocations"); got != invocations {
			t.Errorf("invocations = %d, want %d (%v)", got, invocations, s)
		}
	}

	t.Run("success", func(t *testing.T) {
		k := newTestKernel(t, Config{Net: netsim.Config{Nodes: 2}})
		near, _ := k.Create(&pinger{}, 0)
		far, _ := k.Create(&pinger{}, 1)
		for _, id := range []uid.UID{near, far} {
			if _, err := k.Invoke(uid.Nil, id, "ping", &pingReq{}); err != nil {
				t.Fatal(err)
			}
			if _, err := k.AsyncInvoke(uid.Nil, id, "ping", &pingReq{}).Wait(); err != nil {
				t.Fatal(err)
			}
		}
		s := checkLedger(t, k)
		want(t, s, 4)
		if s.Get("cross_node_invocations") != 2 {
			t.Errorf("cross_node_invocations = %d, want 2", s.Get("cross_node_invocations"))
		}
	})

	t.Run("unknown UID", func(t *testing.T) {
		k := newTestKernel(t, Config{})
		if _, err := k.Invoke(uid.Nil, uid.New(), "ping", &pingReq{}); !errors.Is(err, ErrNoSuchEject) {
			t.Fatalf("want ErrNoSuchEject, got %v", err)
		}
		if _, err := k.AsyncInvoke(uid.Nil, uid.New(), "ping", &pingReq{}).Wait(); !errors.Is(err, ErrNoSuchEject) {
			t.Fatalf("want ErrNoSuchEject, got %v", err)
		}
		want(t, checkLedger(t, k), 0)
	})

	t.Run("partitioned link", func(t *testing.T) {
		k := newTestKernel(t, Config{Net: netsim.Config{Nodes: 2}})
		far, _ := k.Create(&pinger{}, 1)
		k.Network().Partition(0, 1)
		if _, err := k.Invoke(uid.Nil, far, "ping", &pingReq{}); err == nil {
			t.Fatal("partitioned invocation succeeded")
		}
		want(t, checkLedger(t, k), 0) // the request never crossed

		k.Network().Heal(0, 1)
		cut, _ := k.Create(&cutter{k: k}, 1)
		if _, err := k.Invoke(uid.Nil, cut, "cut", &pingReq{}); err == nil {
			t.Fatal("reply crossed a partitioned link")
		}
		want(t, checkLedger(t, k), 1) // delivered and answered; the answer was lost
	})

	for _, op := range []string{"panic", "mute"} {
		t.Run("Serve "+op, func(t *testing.T) {
			k := newTestKernel(t, Config{})
			id, _ := k.Create(&pinger{}, 0)
			if _, err := k.Invoke(uid.Nil, id, op, &pingReq{}); err == nil {
				t.Fatal("want an error")
			}
			if _, err := k.AsyncInvoke(uid.Nil, id, op, &pingReq{}).Wait(); err == nil {
				t.Fatal("want an error")
			}
			want(t, checkLedger(t, k), 2)
		})
	}

	// One message however many attempts: two lost hand-offs and a third
	// that lands count one invocation with one id; four lost hand-offs
	// count nothing.
	for _, tc := range []struct {
		name        string
		yanks       int
		invocations int64
	}{{"retried", 2, 1}, {"retries exhausted", 4, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			link := &yankLink{}
			var events []TraceEvent
			k := newTestKernel(t, Config{Link: link, Trace: func(ev TraceEvent) { events = append(events, ev) }})
			k.RegisterType("test.Persistent", activatePersistent)
			p := &persistent{k: k}
			id, _ := k.Create(p, 0)
			p.self = id
			if _, err := k.Checkpoint(id); err != nil {
				t.Fatal(err)
			}
			link.k, link.id, link.yanks = k, id, tc.yanks
			_, err := k.Invoke(uid.Nil, id, "get", &pingReq{})
			delivered := tc.invocations == 1
			if delivered && err != nil || !delivered && !errors.Is(err, ErrDeactivated) {
				t.Fatalf("Invoke: %v", err)
			}
			want(t, checkLedger(t, k), tc.invocations)
			if len(events) != 1 || (events[0].MsgID != 0) != delivered {
				t.Errorf("events = %+v, want one, with a message id only if delivered", events)
			}
		})
	}

	t.Run("deactivate storm", func(t *testing.T) {
		k := newTestKernel(t, Config{})
		k.RegisterType("test.Persistent", activatePersistent)
		p := &persistent{k: k}
		id, err := k.Create(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.self = id
		if _, err := k.Checkpoint(id); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = k.Deactivate(id)
				}
			}
		}()
		const invokers, callsEach = 8, 200
		var served, failed [invokers]int64
		var wg sync.WaitGroup
		for i := range invokers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range callsEach {
					var err error
					if j%2 == 0 {
						_, err = k.Invoke(uid.Nil, id, "get", &pingReq{})
					} else {
						_, err = k.AsyncInvoke(uid.Nil, id, "get", &pingReq{}).Wait()
					}
					switch {
					case err == nil:
						served[i]++
					case errors.Is(err, ErrDeactivated):
						failed[i]++
					default:
						t.Errorf("undefined failure: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		churn.Wait()
		var ok, refusedOrDrained int64
		for i := range invokers {
			ok += served[i]
			refusedOrDrained += failed[i]
		}
		// Every served call was counted; a failed one was counted only if
		// a mailbox took it before the binding quit; a retry counts nothing.
		s := checkLedger(t, k)
		if inv := s.Get("invocations"); inv < ok || inv > ok+refusedOrDrained {
			t.Errorf("invocations = %d, want between %d served and %d sent", inv, ok, ok+refusedOrDrained)
		}
	})
}

// idEcho replies with the message id its invocation carried.
type idEcho struct{}

func (idEcho) EdenType() string      { return "test.IDEcho" }
func (idEcho) Serve(inv *Invocation) { inv.Reply(&pingRep{N: int(inv.MsgID)}) }

// TestMsgIDsUniqueAcrossInvokers: message ids are drawn per stripe, so
// they are checked for what tracing needs of them — never 0, never
// repeated within a kernel, and the same on the Invocation and on its
// TraceEvent — with every stripe's sequence running at once.
func TestMsgIDsUniqueAcrossInvokers(t *testing.T) {
	const invokers, callsEach = 8, 10000
	var (
		mu     sync.Mutex
		seen   = make(map[uint64]bool, invokers*callsEach)
		traced = make(map[uid.UID]uint64, invokers) // invoker -> id of its last event
	)
	k := newTestKernel(t, Config{Trace: func(ev TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.MsgID == 0 || seen[ev.MsgID] {
			t.Errorf("message id %d is zero or repeated", ev.MsgID)
		}
		seen[ev.MsgID] = true
		traced[ev.From] = ev.MsgID
	}})
	ids := make([]uid.UID, 4)
	for i := range ids {
		ids[i], _ = k.Create(idEcho{}, 0)
	}
	var wg sync.WaitGroup
	for i := range invokers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			self := uid.New() // names this invoker in its events
			for j := range callsEach {
				var raw any
				var err error
				if target := ids[(i+j)%len(ids)]; j%16 == 0 {
					raw, err = k.AsyncInvoke(self, target, "id", nil).Wait()
				} else {
					raw, err = k.Invoke(self, target, "id", nil)
				}
				if err != nil {
					t.Error(err)
					return
				}
				// The hook ran on this goroutine, inside the call.
				mu.Lock()
				last := traced[self]
				mu.Unlock()
				if got := uint64(raw.(*pingRep).N); got != last {
					t.Errorf("Invocation.MsgID = %d, its TraceEvent's = %d", got, last)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(seen) != invokers*callsEach {
		t.Errorf("%d distinct message ids, want %d", len(seen), invokers*callsEach)
	}
}

// TestMessageIDsUniqueAcrossCallers: a held call draws its id from its
// Caller's block, every other call from its goroutine's stripe, and the
// two come from one sequence a stripe.  Eight invokers hold a Caller
// each, four share one (its busy flag contended, so some of their calls
// are not held), and two more use Kernel.Invoke and AsyncInvoke: every
// id the trace sees is non-zero and distinct.  It runs under -race.
func TestMessageIDsUniqueAcrossCallers(t *testing.T) {
	const held, sharing, plain, callsEach = 8, 4, 2, 2000
	var (
		mu   sync.Mutex
		seen = make(map[uint64]bool)
	)
	k := newTestKernel(t, Config{Trace: func(ev TraceEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.MsgID == 0 || seen[ev.MsgID] {
			t.Errorf("message id %d is zero or repeated", ev.MsgID)
		}
		seen[ev.MsgID] = true
	}})
	ids := make([]uid.UID, 4)
	for i := range ids {
		ids[i], _ = k.Create(idEcho{}, 0)
	}
	shared := k.Caller(uid.Nil)
	stripes := make(map[metrics.Stripe]bool)
	var wg sync.WaitGroup
	run := func(call func(j int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range callsEach {
				if err := call(j); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := range held {
		c := k.Caller(uid.New())
		stripes[c.stripe] = true
		run(func(int) error { _, err := c.Invoke(ids[g%len(ids)], "id", nil); return err })
	}
	for range sharing {
		run(func(int) error { _, err := shared.Invoke(ids[0], "id", nil); return err })
	}
	for g := range plain {
		run(func(j int) error {
			target := ids[(g+j)%len(ids)]
			if g == 0 {
				_, err := k.Invoke(uid.Nil, target, "id", nil)
				return err
			}
			_, err := k.AsyncInvoke(uid.Nil, target, "id", nil).Wait()
			return err
		})
	}
	wg.Wait()
	if len(stripes) != held {
		t.Errorf("%d Callers made in a row share stripes: %d distinct", held, len(stripes))
	}
	if want := (held + sharing + plain) * callsEach; len(seen) != want {
		t.Errorf("%d distinct message ids, want %d", len(seen), want)
	}
	checkLedger(t, k)
}
