package netsim_test

import (
	"encoding/gob"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/quiesce"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// kinds lists the real-socket link kinds every test runs against.
var kinds = []string{netsim.KindUnix, netsim.KindTCP}

// gobPayload rides the codec's gob fallback (no Marshaler, no fast
// path), as control-plane records do.
type gobPayload struct{ N int }

func init() { gob.Register(&gobPayload{}) }

func TestSocketLinkEcho(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			met := &metrics.Set{}
			s, err := netsim.NewSocketNetwork(kind, 3)
			if err != nil {
				t.Fatalf("NewSocketNetwork: %v", err)
			}
			s.BindMetrics(met)
			defer s.Close()

			// Every payload shape the kernel sends: fast-path scalars,
			// byte slices, item vectors, gob fallback.
			cases := []any{
				"hello",
				int64(-42),
				[]byte{1, 2, 3},
				[][]byte{[]byte("a"), nil, []byte("bc")},
				&gobPayload{N: 7}, // gob fallback
			}
			for i, want := range cases {
				got, nb, err := s.Transmit(0, 1, want)
				if err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
				if nb <= 0 {
					t.Fatalf("case %d: no bytes metered", i)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("case %d: got %v want %v", i, got, want)
				}
			}

			// Local hop: pass-through, no wire.
			got, nb, err := s.Transmit(1, 1, "local")
			if err != nil || nb != 0 || got != "local" {
				t.Fatalf("local hop: got %v, %d, %v", got, nb, err)
			}

			if _, _, err := s.Transmit(0, 9, "x"); err == nil {
				t.Fatal("expected error for bad node")
			}
			if met.WireBytes.Value() == 0 || met.WireFramesEncoded.Value() == 0 {
				t.Fatal("wire metrics not metered")
			}
		})
	}
}

// TestSocketLinkConcurrent hammers one direction and both directions
// of a pair from many goroutines, checking every reply matches its
// request — the coalescer's FIFO completion must hold under
// multiplexing.
func TestSocketLinkConcurrent(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			s, err := netsim.NewSocketNetwork(kind, 2)
			if err != nil {
				t.Fatalf("NewSocketNetwork: %v", err)
			}
			defer s.Close()

			const workers, per = 16, 200
			var wg sync.WaitGroup
			errc := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					from, to := netsim.NodeID(0), netsim.NodeID(1)
					if w%2 == 1 {
						from, to = to, from
					}
					for i := 0; i < per; i++ {
						msg := fmt.Sprintf("w%d-m%d", w, i)
						got, _, err := s.Transmit(from, to, msg)
						if err != nil {
							errc <- err
							return
						}
						if got != msg {
							errc <- fmt.Errorf("got %v want %v", got, msg)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
		})
	}
}

// TestSocketLinkTransmitAfterClose checks Close is clean: in-flight
// and subsequent Transmits fail with ErrLinkClosed rather than hang,
// and every socket of the mesh is closed.
func TestSocketLinkTransmitAfterClose(t *testing.T) {
	fds := quiesce.FDs(t)
	s, err := netsim.NewSocketNetwork(netsim.KindUnix, 2)
	if err != nil {
		t.Fatalf("NewSocketNetwork: %v", err)
	}
	if _, _, err := s.Transmit(0, 1, "warm"); err != nil {
		t.Fatalf("warm transmit: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, _, err := s.Transmit(0, 1, "late"); err == nil {
		t.Fatal("expected error after Close")
	}
	if err := s.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	fds()
}

// noWireForm is a payload the codec cannot encode: gob refuses a type
// nobody registered behind an interface.  It carries items the way a
// stream record does and counts the link's releases of them.
type noWireForm struct {
	items    [][]byte
	copies   *wire.Arena
	released int
}

func (p *noWireForm) ReleaseWirePayload() {
	p.released++
	wire.ReleaseAll(p.items)
	p.copies.Reclaim(p.items)
}

// TestSocketTransmitEncodeFailure: a payload with no wire form fails
// Transmit with the encode error and sends nothing; its frame goes back
// to the pool, and its items stay the caller's to release — the link
// neither releases a view nor hands a copy back to its arena for it.
func TestSocketTransmitEncodeFailure(t *testing.T) {
	for _, kind := range kinds {
		s, err := netsim.NewSocketNetwork(kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		slab := wire.NewSlab(&metrics.Set{}, 0)
		a := new(wire.Arena)
		large := make([]byte, 16<<10)
		p := &noWireForm{items: [][]byte{slab.Alloc(4096), a.Copy(large)}, copies: a}
		if _, _, err := s.Transmit(0, 1, p); err == nil || !strings.Contains(err.Error(), "encode") {
			t.Fatalf("%s: Transmit of a payload with no wire form: %v, want the encode error", kind, err)
		}
		if p.released != 0 {
			t.Fatalf("%s: the link released a payload it never sent", kind)
		}
		if !raceEnabled { // sync.Pool drops a quarter of its Puts under the race detector
			fail := func(n int) {
				for range n {
					_, _, _ = s.Transmit(0, 1, p)
				}
			}
			fail(100)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fail(1000)
			runtime.ReadMemStats(&after)
			if per := (after.TotalAlloc - before.TotalAlloc) / 1000; per >= 4096 {
				t.Errorf("%s: a failed encode allocates %d B: its 4 KiB frame did not go back to the pool", kind, per)
			}
		}
		if n := wire.ReleaseAll(p.items); n != 1 {
			t.Errorf("%s: the caller released %d live views after the failure, want 1", kind, n)
		}
		if c := a.Copy(large); unsafe.SliceData(c) == unsafe.SliceData(p.items[1]) {
			t.Errorf("%s: the failed payload's copy was handed back to its arena", kind)
		}
		if n := slab.Close(); n != 0 {
			t.Errorf("%s: %d views leaked", kind, n)
		}
		if _, _, err := s.Transmit(0, 1, "after"); err != nil {
			t.Fatalf("%s: the link after a failed encode: %v", kind, err)
		}
	}
}

// echoEject replies with whatever payload it was invoked with.
type echoEject struct{}

func (echoEject) EdenType() string             { return "test.Echo" }
func (echoEject) Serve(inv *kernel.Invocation) { inv.Reply(inv.Payload) }

// TestKernelOverSocketLink runs real kernel invocations — request and
// reply both crossing a socket — for each transport kind, and checks
// the leak audit stays clean through Shutdown and its sockets closed.
func TestKernelOverSocketLink(t *testing.T) {
	for _, tr := range []transput.Transport{transput.TransportUnix, transput.TransportTCP} {
		t.Run(string(tr), func(t *testing.T) {
			fds := quiesce.FDs(t)
			k, err := transput.NewTransportKernel(kernel.Config{
				Net: netsim.Config{Nodes: 2, EncodePayloads: true},
			}, tr)
			if err != nil {
				t.Fatalf("NewTransportKernel: %v", err)
			}
			if got := k.LinkKind(); got != string(tr) {
				t.Fatalf("LinkKind = %q, want %q", got, tr)
			}
			id, err := k.Create(echoEject{}, 1)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			for i := 0; i < 50; i++ {
				msg := fmt.Sprintf("ping-%d", i)
				res, err := k.Invoke(uid.Nil, id, "Echo", msg)
				if err != nil {
					t.Fatalf("Invoke %d: %v", i, err)
				}
				if res != msg {
					t.Fatalf("Invoke %d: got %v want %v", i, res, msg)
				}
			}
			if n := k.Metrics().CrossNodeInvocations.Value(); n != 50 {
				t.Fatalf("CrossNodeInvocations = %d, want 50", n)
			}
			k.Shutdown()
			if n := k.Metrics().SlabLeaked.Value(); n != 0 {
				t.Fatalf("SlabLeaked = %d after Shutdown", n)
			}
			fds()
		})
	}
}
