package kernel

import (
	"testing"

	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// Allocation-regression ceilings for the invocation fast path.  The
// pooled-worker / pooled-record machinery exists so that a warm local
// hop performs near-zero allocation; these tests fail if a change
// quietly reintroduces per-hop garbage (the previous design spent ten
// allocations per hop on the goroutine spawn, the Invocation, the Call
// and its channels).
//
// Ceilings are set one above the measured steady state (pingRep reply
// plus sync.Pool jitter) so legitimate churn does not flake the suite.

const warmup = 256

// warmInvokeAllocs measures a warm synchronous Invoke of a pinger on
// the given node from an external caller (node 0).
func warmInvokeAllocs(t *testing.T, cfg Config, node netsim.NodeID) float64 {
	t.Helper()
	k := New(cfg)
	defer k.Shutdown()
	id, err := k.Create(&pinger{}, node)
	if err != nil {
		t.Fatal(err)
	}
	caller := k.Caller(uid.Nil)
	req := &pingReq{N: 1}
	hop := func() {
		if _, err := caller.Invoke(id, "ping", req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		hop()
	}
	return testing.AllocsPerRun(200, hop)
}

// TestInvokeLocalAllocs pins the warm synchronous local hop, which is
// served on the invoker's goroutine.
func TestInvokeLocalAllocs(t *testing.T) {
	// Steady state: the pinger's reply record, its boxed field, and
	// occasional pool refills.
	const ceiling = 4
	if n := warmInvokeAllocs(t, Config{}, 0); n > ceiling {
		t.Errorf("warm local Invoke: %.1f allocs/op, ceiling %d", n, ceiling)
	}
}

// TestInvokeQueuedAllocs pins the same hop through the mailbox and a
// pool worker (a target on another node is never served inline): the
// pooled Call and Invocation must keep it at the local ceiling.
func TestInvokeQueuedAllocs(t *testing.T) {
	const ceiling = 4
	if n := warmInvokeAllocs(t, Config{Net: netsim.Config{Nodes: 2}}, 1); n > ceiling {
		t.Errorf("warm queued Invoke: %.1f allocs/op, ceiling %d", n, ceiling)
	}
}

// TestCreateDestroyChurnAllocs pins the control-plane churn path: a
// Create→bind→Destroy cycle must cost a fixed number of allocations
// (the binding record, its cond, the stripe-table entries and the UID
// machinery) regardless of how long the kernel has been running —
// million-channel admission must not degrade as the table fills and
// drains.
func TestCreateDestroyChurnAllocs(t *testing.T) {
	k := New(Config{})
	defer k.Shutdown()
	e := &pinger{}
	cycle := func() {
		id, err := k.Create(e, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Destroy(id); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warmup; i++ {
		cycle()
	}
	const ceiling = 12
	if n := testing.AllocsPerRun(500, cycle); n > ceiling {
		t.Errorf("create/destroy churn: %.1f allocs/cycle, ceiling %d", n, ceiling)
	}
}
