package transport_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/transport"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// transmitBatch returns one closure that carries a DeliverRequest of
// batch items of itemBytes each across s and gives the receive buffer's
// views back, the way a port that has consumed them does.
func transmitBatch(tb testing.TB, s *transport.SocketNetwork, batch, itemBytes int) func() {
	items := make([][]byte, batch)
	for i := range items {
		items[i] = make([]byte, itemBytes)
	}
	req := &transput.DeliverRequest{Items: items}
	return func() {
		got, _, err := s.Transmit(0, 1, req)
		if err != nil {
			tb.Fatal(err)
		}
		got.(*transput.DeliverRequest).ReleaseWirePayload()
	}
}

// BenchmarkTransmitItemSize is one link crossing of a 16-item Deliver
// at item sizes on both sides of wire.SpliceCutoff: below it the items
// are copied into the frame buffer, from it on they ride the iovec.
// The constant's comment quotes this benchmark run with the cutoff set
// to 1 (always splice) and to 1<<30 (always copy).
func BenchmarkTransmitItemSize(b *testing.B) {
	const batch = 16
	for _, kind := range kinds {
		for _, size := range []int{64, 256, 1 << 10, 2 << 10, 3 << 10, 4 << 10, 16 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dB", kind, size), func(b *testing.B) {
				s, err := transport.NewSocketNetwork(kind, 2)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				op := transmitBatch(b, s, batch, size)
				for i := 0; i < 64; i++ {
					op()
				}
				b.SetBytes(int64(batch * size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
			})
		}
	}
}

// BenchmarkBridgeInvoke is one bridge round trip to an echo Eject over a
// Unix socket, both ends in this process, on one P (a lone caller's
// ping-pong has nothing to run in parallel; benchmark/echo.go).  The
// callers-8 row is eight callers sharing the Peer: both coalescers
// batch, so a round trip costs well under a lone caller's.  The gob row
// is the traffic the read loop's decode could cost — values of the gob
// fallback, dear to decode, from eight callers, decoded one at a time a
// connection — so it alone runs on two Ps.
func BenchmarkBridgeInvoke(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	echo, err := k.Create(echoEject{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := serveAndDial(b, k)
	defer p.Close()

	// invoke boxes its payload on every call, as a caller would.
	run := func(name string, size, callers int, invoke func() (any, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			var wg sync.WaitGroup
			var left atomic.Int64
			left.Store(int64(b.N))
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left.Add(-1) >= 0 {
						if _, err := invoke(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
	small, large := make([]byte, 64), make([]byte, 16<<10)
	words := []string{"open", "/usr/lib/eden/some/file", "rw", "0644", "a", "b", "c", "d"}
	run("64B", len(small), 1, func() (any, error) { return p.Invoke(echo, "Echo", small) })
	run("16KiB", len(large), 1, func() (any, error) { return p.Invoke(echo, "Echo", large) })
	run("64B/callers-8", len(small), 8, func() (any, error) { return p.Invoke(echo, "Echo", small) })
	runtime.GOMAXPROCS(2)
	run("gob/callers-8/P2", 0, 8, func() (any, error) { return p.Invoke(echo, "Echo", words) })
}

var raceEnabled bool // set by race_test.go

// TestTransmitAllocs pins the send side's bookkeeping inside pooled and
// parked arrays.  The vectored path's splice list and longer iovec: a
// warm Transmit of spliced items allocates the same whether they are of
// the cutoff or of nearly twice that (both frames fit one read chunk, so
// the far side — a chunk's view table a frame — does the same work for
// either, and what is left to differ is the send side).  And the waiter
// queue, whose capacity must survive a pop: a small Transmit allocates
// only what the far side decodes.  Nothing else runs while AllocsPerRun
// counts process-wide mallocs.
func TestTransmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	for _, kind := range kinds {
		allocs := func(itemBytes int) float64 {
			s, err := transport.NewSocketNetwork(kind, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			op := transmitBatch(t, s, 16, itemBytes)
			for i := 0; i < 256; i++ {
				op()
			}
			return testing.AllocsPerRun(200, op)
		}
		atCutoff, nearTwice := allocs(wire.SpliceCutoff), allocs(2*wire.SpliceCutoff-64)
		if nearTwice > atCutoff {
			t.Errorf("%s: spliced Transmit %.2f allocs/op at %d B an item, %.2f at the cutoff",
				kind, nearTwice, 2*wire.SpliceCutoff-64, atCutoff)
		}
		// The far side's decoded record, its item vector and the block
		// its small items are copied into; the send side — frame,
		// waiter, both coalescer queues — allocates nothing.
		if small := allocs(64); small > 3 {
			t.Errorf("%s: 64 B Transmit %.2f allocs/op, want <= 3", kind, small)
		}
	}
}

// TestSocketHopAllocs holds one stop-and-wait exchange over a socket
// link, each way, to what its decoders must allocate: the request
// record and the block the frame's one small item is copied into (in a
// Transfer's reply, in a Deliver's request).  The reply records and a
// Transfer reply's item vector come from the ports' pools on the decode
// side, and the link hands the server's originals back to them.
func TestSocketHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	link, err := transport.NewSocketNetwork(transport.KindUnix, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Link: link})
	defer k.Shutdown()
	item := make([]byte, 32)
	measure := func(name string, ceiling float64, hop func() error) {
		t.Helper()
		op := func() {
			if err := hop(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 512; i++ {
			op()
		}
		if n := testing.AllocsPerRun(500, op); n > ceiling {
			t.Errorf("%s over a Unix socket at batch 1: %.2f allocs a round trip, want <= %.0f", name, n, ceiling)
		}
	}

	src := transput.NewROStage(k, transput.ROStageConfig{Name: "src"},
		func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			// One slice handed over again and again: it is only ever
			// encoded, and producing a fresh one would be the test's own
			// allocation.
			for transput.PutOwned(outs[0], item) == nil {
			}
			return nil
		})
	srcID, err := k.Create(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	src.Start()
	in := transput.NewInPort(k, uid.Nil, srcID, transput.Chan(0), transput.InPortConfig{Batch: 1})
	measure("Transfer", 2, func() error { _, err := in.Next(); return err })
	in.Cancel("measured")

	sink := transput.NewWOStage(k, transput.WOStageConfig{Name: "sink"},
		func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
			_, err := transput.Drain(ins[0])
			return err
		})
	sinkID, err := k.Create(sink, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink.Start()
	out := transput.NewPusher(k, uid.Nil, sinkID, transput.Chan(0), transput.PusherConfig{Batch: 1})
	// The pusher's copy of the item as well: Put does not take ownership.
	measure("Deliver", 4, func() error { return out.Put(item) })
	_ = out.Close()
}
