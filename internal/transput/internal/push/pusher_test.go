package push_test

import (
	"asymstream/internal/wire"
	"fmt"
	"sync"
	"testing"

	"asymstream/internal/uid"

	"asymstream/internal/transput"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/push"
)

// TestWindowOnePusherCarriesNoWriter: a Window-1 pusher names no writer
// lane, in its reused request or its own state, so the sink never
// attaches a sequence gate (transput's TestWindowOneRunsOnTheCaller
// checks the sink's side).
func TestWindowOnePusherCarriesNoWriter(t *testing.T) {
	k := testKernel(t)
	sink := transput.NewWOStage(k, transput.WOStageConfig{Name: "sink"}, func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
		_, err := transput.Drain(ins[0])
		return err
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, sink, 0); err != nil {
		t.Fatal(err)
	}
	sink.Start()
	p := push.NewPusher(k, uid.Nil, id, core.Chan(0), push.PusherConfig{Batch: 1, Window: 1})
	for i := 0; i < 10; i++ {
		if err := p.Put([]byte("sixteen-byte-pay")); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Req().Writer.IsNil() || !p.Writer().IsNil() {
		t.Errorf("Window-1 pusher carries Writer %v / %v, want none", p.Req().Writer, p.Writer())
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPusherRedirectUnderWindow: a windowed pusher redirects by draining
// its send window — the engine's ordinary drain, no second mechanism.
// Everything written before the redirect reaches the old sink, in order
// (the partial batch included), though four deliveries were in flight at
// once; everything after reaches the new one, numbered from offset 0
// under a fresh Writer UID (the new sink would otherwise wait for an
// offset 0 that never comes); and no slab view is stranded on the way.
func TestPusherRedirectUnderWindow(t *testing.T) {
	k := testKernel(t)
	slab := wire.NewSlab(k.Metrics(), 1<<14)
	view := func(s string) []byte { return append(slab.Alloc(len(s))[:0], s...) }
	var gotA, gotB [][]byte
	var muA, muB sync.Mutex
	sinkA, stA := registerWOSink(t, k, &gotA, &muA, transput.WOStageConfig{Name: "A", Capacity: 3})
	sinkB, stB := registerWOSink(t, k, &gotB, &muB, transput.WOStageConfig{Name: "B", Capacity: 3})

	const before, after = 101, 40 // 101: the redirect finds a partial batch pending
	p := push.NewPusher(k, uid.Nil, sinkA, core.Chan(0), push.PusherConfig{Batch: 2, Window: 4})
	for i := 0; i < before; i++ {
		if err := p.PutOwned(view(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	oldWriter := p.Writer()
	if err := p.Redirect(sinkB, stB.Reader(0).ID()); err != nil {
		t.Fatal(err)
	}
	if p.Writer() == oldWriter || p.Base() != 0 {
		t.Fatalf("after Redirect: writer changed=%v base=%d; want a fresh Writer numbering from 0", p.Writer() != oldWriter, p.Base())
	}
	// Redirect returned, so the window has drained: A already holds it all.
	for i := 0; i < after; i++ {
		if err := p.PutOwned(view(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-stB.Done()
	audit := func(name string, mu *sync.Mutex, got *[][]byte, prefix string, want int) {
		t.Helper()
		eventually(t, "sink "+name+" holds its items", func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(*got) >= want
		})
		mu.Lock()
		defer mu.Unlock()
		if len(*got) != want {
			t.Fatalf("sink %s got %d items, want %d", name, len(*got), want)
		}
		for i, item := range *got {
			if string(item) != fmt.Sprintf("%s%d", prefix, i) {
				t.Fatalf("sink %s: item %d = %q", name, i, item)
			}
			wire.Release(item)
		}
	}
	audit("A", &muA, &gotA, "a", before)
	audit("B", &muB, &gotB, "b", after)
	if n := slab.Close(); n != 0 || k.Metrics().SlabLeaked.Value() != 0 {
		t.Errorf("slab leak audit: %d stranded views (SlabLeaked=%d)", n, k.Metrics().SlabLeaked.Value())
	}
	// Sink A never received End; release it so the kernel shuts down cleanly.
	stA.Reader(0).Cancel("test over")
}
