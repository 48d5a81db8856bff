package netsim_test

import (
	"fmt"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// transmitBatch returns one closure that carries a DeliverRequest of
// batch items of itemBytes each across s and gives the receive buffer's
// views back, the way a port that has consumed them does.
func transmitBatch(tb testing.TB, s *netsim.SocketNetwork, batch, itemBytes int) func() {
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
// at item sizes from 16 B to 1 MiB, on both sides of wire.SpliceCutoff:
// below it the items are copied into the frame buffer, from it on they
// ride the iovec; MB/s is the payload's rate.  The constant's comment
// quotes this benchmark run with the cutoff set to 1 (always splice) and
// to 1<<30 (always copy).
func BenchmarkTransmitItemSize(b *testing.B) {
	const batch = 16
	for _, kind := range kinds {
		for _, size := range []int{16, 64, 256, 1 << 10, 2 << 10, 3 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
			b.Run(fmt.Sprintf("%s/%dB", kind, size), func(b *testing.B) {
				s, err := netsim.NewSocketNetwork(kind, 2)
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

var raceEnabled bool // set by race_test.go

// TestTransmitAllocs pins the send side's bookkeeping inside pooled and
// parked arrays.  The vectored path's splice list and longer iovec: a
// warm Transmit of spliced items allocates the same whether they are of
// the cutoff or of nearly twice that (both frames fit one read chunk, so
// the far side — a chunk's view table a frame — does the same work for
// either, and what is left to differ is the send side).  And the waiter
// queue, whose capacity must survive a pop: a small Transmit allocates
// nothing.  Nothing else runs while AllocsPerRun counts process-wide
// mallocs.
func TestTransmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	for _, kind := range kinds {
		allocs := func(itemBytes int) float64 {
			s, err := netsim.NewSocketNetwork(kind, 2)
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
		// Nothing on either side: the far side's decoded record and its
		// item vector come back to the request pool with the views, and
		// its small items share the frame reader's arena blocks; the send
		// side — frame, waiter, both coalescer queues — allocates nothing.
		if small := allocs(64); small > 0 {
			t.Errorf("%s: 64 B Transmit %.2f allocs/op, want 0", kind, small)
		}
	}
}

// TestSocketHopAllocs holds one stop-and-wait exchange over a socket
// link, each way, to nothing.  Every record a hop decodes comes from a
// pool with its item vector — the request, which its server releases
// once read or absorbed, and the reply, which the port releases, the
// link handing the server's original back — and the frame's one small
// item, like the pusher's copy of it at Put, goes into an arena block
// (the frame reader's, the pusher's) shared with the next hundred.
func TestSocketHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	link, err := netsim.NewSocketNetwork(netsim.KindUnix, 2)
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
	measure("Transfer", 0, func() error { _, err := in.Next(); return err })
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
	// Put, unlike the source's PutOwned, copies the item.
	measure("Deliver", 0, func() error { return out.Put(item) })
	_ = out.Close()
}

// TestPusherLargePutAllocs pins the write side's reuse rule: a Pusher
// copies each 16 KiB Put into a copy an earlier Deliver's encoded hop
// handed back, so the copy allocates nothing once the window has been
// round once (1.1–1.2 an item without the rule).  It runs in
// push-tcp-bulk's shape (Window 4, batches adapting up to 64) across a
// Unix socket link, to a sink that releases each item so the read slab
// recycles its chunks.  What is left under the ceiling is per frame — a
// read chunk now and then, sync.Pool's own bookkeeping — not per item.
func TestPusherLargePutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	link, err := netsim.NewSocketNetwork(netsim.KindUnix, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Link: link})
	defer k.Shutdown()
	sink := transput.NewWOStage(k, transput.WOStageConfig{Name: "sink"},
		func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
			for {
				item, err := ins[0].Next()
				if err != nil {
					return nil
				}
				wire.Release(item)
			}
		})
	id, err := k.Create(sink, 1)
	if err != nil {
		t.Fatal(err)
	}
	sink.Start()
	p := transput.NewPusher(k, uid.Nil, id, transput.Chan(0), transput.PusherConfig{BatchMin: 1, BatchMax: 64, Window: 4})
	defer p.Close()
	item := make([]byte, 16<<10)
	const per = 64 // items an op: AllocsPerRun counts whole allocations an op
	op := func() {
		for range per {
			if err := p.Put(item); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 64 {
		op()
	}
	if n := testing.AllocsPerRun(64, op) / per; n > 0.2 {
		t.Errorf("16 KiB Pusher.Put at Window 4 over a Unix socket: %.2f allocs an item, want <= 0.2", n)
	}
}
