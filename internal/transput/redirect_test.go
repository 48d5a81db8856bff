package transput

import (
	"asymstream/internal/kernel"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

func TestRedirectAfterEOFConcatenates(t *testing.T) {
	k := testKernel(t)
	a, _ := registerItems(t, k, [][]byte{[]byte("a1"), []byte("a2")}, ROStageConfig{})
	b, _ := registerItems(t, k, [][]byte{[]byte("b1")}, ROStageConfig{})

	in := NewInPort(k, uid.Nil, a, Chan(0), InPortConfig{})
	var got []string
	for {
		item, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}
	if err := in.Redirect(b, Chan(0), ""); err != nil {
		t.Fatal(err)
	}
	for {
		item, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}
	want := []string{"a1", "a2", "b1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("concatenation = %v, want %v", got, want)
	}
}

func TestRedirectMidStream(t *testing.T) {
	k := testKernel(t)
	// An endless source we will abandon mid-stream.
	endless := NewROStage(k, ROStageConfig{Name: "endless", Anticipation: 4},
		func(_ []ItemReader, outs []ItemWriter) error {
			for i := 0; ; i++ {
				if err := outs[0].Put([]byte(fmt.Sprintf("old%d", i))); err != nil {
					return nil // aborted by the redirect: expected
				}
			}
		})
	endlessUID := k.NewUID()
	if err := k.CreateWithUID(endlessUID, endless, 0); err != nil {
		t.Fatal(err)
	}
	endless.Start()
	replacement, _ := registerItems(t, k, [][]byte{[]byte("new0"), []byte("new1")}, ROStageConfig{})

	in := NewInPort(k, uid.Nil, endlessUID, Chan(0), InPortConfig{})
	for i := 0; i < 3; i++ {
		item, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		if string(item) != fmt.Sprintf("old%d", i) {
			t.Fatalf("pre-redirect item %d = %q", i, item)
		}
	}
	if err := in.Redirect(replacement, Chan(0), "switching inputs"); err != nil {
		t.Fatal(err)
	}
	var tail []string
	for {
		item, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tail = append(tail, string(item))
	}
	if len(tail) != 2 || tail[0] != "new0" || tail[1] != "new1" {
		t.Fatalf("post-redirect items = %v", tail)
	}
	// The abandoned producer must have been released (it returns when
	// its Put fails); Err blocks until the body finished.
	if err := endless.Err(); err != nil {
		t.Fatalf("endless stage err: %v", err)
	}
}

func TestRedirectWithPrefetchKeepsArrivedData(t *testing.T) {
	k := testKernel(t)
	a, _ := registerItems(t, k, numbered(20), ROStageConfig{})
	b, _ := registerItems(t, k, [][]byte{[]byte("tail")}, ROStageConfig{})

	in := NewInPort(k, uid.Nil, a, Chan(0), InPortConfig{Batch: 4, Prefetch: 2})
	first, err := in.Next()
	if err != nil || string(first) != "item-0" {
		t.Fatalf("first = %q, %v", first, err)
	}
	if err := in.Redirect(b, Chan(0), "switch"); err != nil {
		t.Fatal(err)
	}
	// Everything that physically arrived before the switch is
	// delivered, in order, then the new stream follows.
	var got []string
	for {
		item, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}
	if len(got) == 0 || got[len(got)-1] != "tail" {
		t.Fatalf("post-redirect = %v", got)
	}
	// Prefix (if any) must be in-order items from A.
	for i, s := range got[:len(got)-1] {
		if s != fmt.Sprintf("item-%d", i+1) {
			t.Fatalf("salvaged prefix broken at %d: %v", i, got)
		}
	}
}

// TestRedirectKeepsEveryArrivedBatch: a redirect takes in every batch
// the old source served before its abort, also those a helper holds
// while the read-ahead queue is full and those a window's helpers wait
// to queue in turn.  The audit is the source's own count: every item it
// served reaches the consumer, in order, before the new stream.
func TestRedirectKeepsEveryArrivedBatch(t *testing.T) {
	for _, cfg := range []InPortConfig{{Batch: 4, Prefetch: 2}, {Batch: 4, Window: 4}} {
		t.Run(fmt.Sprintf("prefetch=%d/window=%d", cfg.Prefetch, cfg.Window), func(t *testing.T) {
			k := testKernel(t)
			a, st := registerItems(t, k, numbered(100), ROStageConfig{Anticipation: 100})
			b, _ := registerItems(t, k, [][]byte{[]byte("tail")}, ROStageConfig{})
			ch := st.Writer(0).ch.c
			served := func() int64 {
				ch.mu.Lock()
				defer ch.mu.Unlock()
				return ch.itemsOut
			}

			in := NewInPort(k, uid.Nil, a, Chan(0), cfg)
			var got []string
			for i := 0; i < 5; i++ {
				item, err := in.Next()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, string(item))
			}
			// The helpers stop once the read-ahead queue is full and each
			// holds one more batch: the source's count holds still.
			for n, still := served(), 0; still < 20; {
				time.Sleep(time.Millisecond)
				if m := served(); m == n {
					still++
				} else {
					n, still = m, 0
				}
			}
			if err := in.Redirect(b, Chan(0), "switch"); err != nil {
				t.Fatal(err)
			}
			rest, err := drainReleasing(in)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rest...)
			n := served()
			if int64(len(got)) != n+1 || got[len(got)-1] != "tail" {
				t.Fatalf("the old source served %d items; the consumer got %d of them, then %q", n, len(got)-1, got[len(got)-1])
			}
			for i, s := range got[:n] {
				if s != fmt.Sprintf("item-%d", i) {
					t.Fatalf("old stream broken at %d: %v", i, got)
				}
			}
		})
	}
}

func TestRedirectCancelledPortFails(t *testing.T) {
	k := testKernel(t)
	a, _ := registerItems(t, k, numbered(5), ROStageConfig{})
	in := NewInPort(k, uid.Nil, a, Chan(0), InPortConfig{})
	if _, err := in.Next(); err != nil {
		t.Fatal(err)
	}
	in.Cancel("done")
	if err := in.Redirect(a, Chan(0), ""); !errors.Is(err, ErrClosed) {
		t.Fatalf("redirect after cancel: %v", err)
	}
}

func TestPusherRedirect(t *testing.T) {
	k := testKernel(t)
	var gotA, gotB [][]byte
	var muA, muB sync.Mutex
	sinkA, stA := registerWOSink(t, k, &gotA, &muA, WOStageConfig{Name: "A"})
	sinkB, stB := registerWOSink(t, k, &gotB, &muB, WOStageConfig{Name: "B"})

	p := NewPusher(k, uid.Nil, sinkA, Chan(0), PusherConfig{Batch: 2})
	// Three items: two flush to A as a batch, the third is pending
	// when we redirect — it must flush to A (it was written first).
	for i := 0; i < 3; i++ {
		if err := p.Put([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Redirect(sinkB, stB.Reader(0).ID()); err != nil {
		t.Fatal(err)
	}
	if err := p.Put([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-stB.Done()
	// A's Delivers were acknowledged once buffered; its body drains the
	// channel on its own schedule, so wait for it.
	eventually(t, "sink A holds its 3 items", func() bool {
		muA.Lock()
		defer muA.Unlock()
		return len(gotA) == 3
	})
	muB.Lock()
	defer muB.Unlock()
	if len(gotB) != 1 || string(gotB[0]) != "b0" {
		t.Fatalf("sink B got %q", gotB)
	}
	// Sink A never received End; release it so the test harness can
	// shut down cleanly.
	stA.Reader(0).Cancel("test over")
	_ = stA
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
	sinkA, stA := registerWOSink(t, k, &gotA, &muA, WOStageConfig{Name: "A", Capacity: 3})
	sinkB, stB := registerWOSink(t, k, &gotB, &muB, WOStageConfig{Name: "B", Capacity: 3})

	const before, after = 101, 40 // 101: the redirect finds a partial batch pending
	p := NewPusher(k, uid.Nil, sinkA, Chan(0), PusherConfig{Batch: 2, Window: 4})
	for i := 0; i < before; i++ {
		if err := p.PutOwned(view(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	oldWriter := p.writer
	if err := p.Redirect(sinkB, stB.Reader(0).ID()); err != nil {
		t.Fatal(err)
	}
	if p.writer == oldWriter || p.base != 0 {
		t.Fatalf("after Redirect: writer changed=%v base=%d; want a fresh Writer numbering from 0", p.writer != oldWriter, p.base)
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

func TestPusherRedirectClosedFails(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, _ := registerWOSink(t, k, &got, &mu, WOStageConfig{})
	p := NewPusher(k, uid.Nil, sinkID, Chan(0), PusherConfig{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Redirect(sinkID, Chan(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("redirect after close: %v", err)
	}
}

// buildShardedProducer assembles, by hand, the producing half of a
// parallel read-only pipeline: a source dealing sequence-tagged frames
// across P shard stages over windowed links, merged back into stream
// order by a tail stage.  It returns the tail's UID; the tail's single
// output channel carries prefix0, prefix1, ... in order.
func buildShardedProducer(t *testing.T, k *kernel.Kernel, prefix string, items, P, window int) uid.UID {
	t.Helper()
	met := k.Metrics()
	passthrough := func(ins []ItemReader, outs []ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := outs[0].Put(item); err != nil {
				return err
			}
		}
	}
	srcUID := k.NewUID()
	src := NewROStage(k, ROStageConfig{
		Name: prefix + "src", OutNames: channelNames("Output", P), Anticipation: 16,
	}, splitBody(met, nil, func(_ []ItemReader, outs []ItemWriter) error {
		for i := 0; i < items; i++ {
			if err := outs[0].Put([]byte(fmt.Sprintf("%s%d", prefix, i))); err != nil {
				return nil // aborted by a redirect downstream: expected
			}
		}
		return nil
	}))
	if err := k.CreateWithUID(srcUID, src, 0); err != nil {
		t.Fatal(err)
	}
	src.Start()

	inCfg := InPortConfig{Window: window}
	ins := make([]ItemReader, P)
	for j := 0; j < P; j++ {
		fUID := k.NewUID()
		in := NewInPort(k, fUID, srcUID, src.Writer(j).ID(), inCfg)
		st := NewROStage(k, ROStageConfig{
			Name: fmt.Sprintf("%sshard%d", prefix, j), Anticipation: 16,
		}, shardBody(met, nil, nil, passthrough), in)
		if err := k.CreateWithUID(fUID, st, 0); err != nil {
			t.Fatal(err)
		}
		st.Start()
		tailIn := NewInPort(k, k.NewUID(), fUID, st.Writer(0).ID(), inCfg)
		ins[j] = tailIn
	}

	tailUID := k.NewUID()
	tail := NewROStage(k, ROStageConfig{
		Name: prefix + "tail", Anticipation: 16,
	}, mergeBody(met, passthrough), ins...)
	if err := k.CreateWithUID(tailUID, tail, 0); err != nil {
		t.Fatal(err)
	}
	tail.Start()
	return tailUID
}

// TestRedirectShardedWindowedAuditsSequence is the parallel engine's
// redirection contract: with Shards>1 upstream and Window>1 on every
// link including the redirecting port itself, a mid-stream redirect
// loses none of the data that had arrived and double-delivers nothing.
// The sink audits the sequence: a gapless, duplicate-free prefix a0..
// a(K-1) of the abandoned stream, then the complete replacement
// stream.
func TestRedirectShardedWindowedAuditsSequence(t *testing.T) {
	const P, window = 4, 4
	k := testKernel(t)
	tailA := buildShardedProducer(t, k, "a", 100000, P, window)
	tailB := buildShardedProducer(t, k, "b", 50, P, window)

	in := NewInPort(k, uid.Nil, tailA, Chan(0), InPortConfig{Batch: 2, Window: window})
	var got []string
	for i := 0; i < 100; i++ {
		item, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}
	if err := in.Redirect(tailB, Chan(0), "switch to b"); err != nil {
		t.Fatal(err)
	}
	for {
		item, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}

	// Audit: a contiguous prefix of stream a...
	i := 0
	for ; i < len(got) && got[i][0] == 'a'; i++ {
		if want := fmt.Sprintf("a%d", i); got[i] != want {
			t.Fatalf("stream a broken at %d: got %q, want %q", i, got[i], want)
		}
	}
	if i < 100 {
		t.Fatalf("only %d items of stream a survived; %d had been consumed", i, 100)
	}
	// ...then the complete stream b, in order, exactly once.
	rest := got[i:]
	if len(rest) != 50 {
		t.Fatalf("stream b delivered %d items, want 50 (tail %v...)", len(rest), rest[:min(len(rest), 5)])
	}
	for j, s := range rest {
		if want := fmt.Sprintf("b%d", j); s != want {
			t.Fatalf("stream b broken at %d: got %q, want %q", j, s, want)
		}
	}
}
