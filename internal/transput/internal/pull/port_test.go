package pull_test

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
	"asymstream/internal/wire"

	"asymstream/internal/transput"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/pull"
)

// registerItems creates and registers an ROStage serving the given
// items on its primary channel, returning its UID and stage.
func registerItems(t *testing.T, k *kernel.Kernel, items [][]byte, cfg transput.ROStageConfig) (uid.UID, *transput.ROStage) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-source"
	}
	st := transput.NewROStage(k, cfg, func(_ []itemio.ItemReader, outs []itemio.ItemWriter) error {
		for _, it := range items {
			if err := outs[0].Put(it); err != nil {
				return err
			}
		}
		return nil
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		t.Fatal(err)
	}
	if !cfg.LazyStart {
		st.Start()
	}
	return id, st
}

func numbered(n int) [][]byte {
	items := make([][]byte, n)
	for i := range items {
		items[i] = []byte(fmt.Sprintf("item-%d", i))
	}
	return items
}

func drainAll(t *testing.T, in *pull.InPort) [][]byte {
	t.Helper()
	var got [][]byte
	for {
		item, err := in.Next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, item)
	}
}

func TestInPortOrderAndEOF(t *testing.T) {
	for _, batch := range []int{1, 3, 16} {
		for _, pref := range []int{0, 2} {
			t.Run(fmt.Sprintf("batch=%d/prefetch=%d", batch, pref), func(t *testing.T) {
				k := testKernel(t)
				src, _ := registerItems(t, k, numbered(57), transput.ROStageConfig{})
				in := pull.NewInPort(k, uid.Nil, src, core.Chan(0), pull.InPortConfig{Batch: batch, Prefetch: pref})
				got := drainAll(t, in)
				if len(got) != 57 {
					t.Fatalf("got %d items", len(got))
				}
				for i, item := range got {
					if string(item) != fmt.Sprintf("item-%d", i) {
						t.Fatalf("order broken at %d: %q", i, item)
					}
				}
				// EOF is sticky.
				if _, err := in.Next(); err != io.EOF {
					t.Fatalf("second EOF read: %v", err)
				}
				if in.ItemsRead() != 57 {
					t.Fatalf("ItemsRead = %d", in.ItemsRead())
				}
			})
		}
	}
}

func TestInPortBatchingReducesTransfers(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, numbered(100), transput.ROStageConfig{})
	in := pull.NewInPort(k, uid.Nil, src, core.Chan(0), pull.InPortConfig{Batch: 10})
	drainAll(t, in)
	// 100 items / batch 10 -> at least 10, at most ~12 transfers
	// (partial batches while the producer runs ahead).
	if n := in.TransfersIssued(); n < 10 || n > 30 {
		t.Fatalf("TransfersIssued = %d, want ~10-30", n)
	}
	k2 := testKernel(t)
	src2, _ := registerItems(t, k2, numbered(100), transput.ROStageConfig{})
	in2 := pull.NewInPort(k2, uid.Nil, src2, core.Chan(0), pull.InPortConfig{Batch: 1})
	drainAll(t, in2)
	if n := in2.TransfersIssued(); n < 100 {
		t.Fatalf("batch-1 TransfersIssued = %d, want >= 100", n)
	}
}

func TestEmptyStream(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, nil, transput.ROStageConfig{})
	in := pull.NewInPort(k, uid.Nil, src, core.Chan(0), pull.InPortConfig{})
	if got := drainAll(t, in); len(got) != 0 {
		t.Fatalf("empty stream yielded %d items", len(got))
	}
}

func TestNoSuchChannel(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, numbered(1), transput.ROStageConfig{})
	in := pull.NewInPort(k, uid.Nil, src, core.Chan(7), pull.InPortConfig{})
	_, err := in.Next()
	if !errors.Is(err, core.ErrNoSuchChannel) {
		t.Fatalf("want ErrNoSuchChannel, got %v", err)
	}
}

func TestCapabilityChannelSecurity(t *testing.T) {
	k := testKernel(t)
	src, st := registerItems(t, k, numbered(5), transput.ROStageConfig{CapabilityMode: true})
	capID := st.Writer(0).ID()
	if !capID.IsCap() {
		t.Fatal("capability mode channel has no capability")
	}

	// Holder succeeds.
	in := pull.NewInPort(k, uid.Nil, src, capID, pull.InPortConfig{})
	if got := drainAll(t, in); len(got) != 5 {
		t.Fatalf("holder got %d items", len(got))
	}

	// Integer addressing refused.
	forged := pull.NewInPort(k, uid.Nil, src, core.Chan(0), pull.InPortConfig{})
	if _, err := forged.Next(); !errors.Is(err, core.ErrNotPermitted) {
		t.Fatalf("integer forge: %v", err)
	}

	// Guessed capability refused.
	guess := pull.NewInPort(k, uid.Nil, src, core.CapChan(uid.New()), pull.InPortConfig{})
	if _, err := guess.Next(); !errors.Is(err, core.ErrNotPermitted) {
		t.Fatalf("guessed cap: %v", err)
	}
}

// TestAbortPropagatesToReader: a stage's failure reaches its reader as
// an abort carrying the message — in one process, where the reply is
// the channel's own record, and across an encoded hop, where the reader
// gets a pooled record decoded from the frame and recycles it.
func TestAbortPropagatesToReader(t *testing.T) {
	for _, row := range []struct {
		name string
		net  netsim.Config
		node netsim.NodeID
	}{
		{"local", netsim.Config{}, 0},
		{"encoded", netsim.Config{Nodes: 2, EncodePayloads: true}, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			k := kernel.New(kernel.Config{Net: row.net})
			t.Cleanup(k.Shutdown)
			st := transput.NewROStage(k, transput.ROStageConfig{Name: "failing"}, func(_ []itemio.ItemReader, outs []itemio.ItemWriter) error {
				if err := outs[0].Put([]byte("one")); err != nil {
					return err
				}
				return errors.New("disk on fire")
			})
			id := k.NewUID()
			if err := k.CreateWithUID(id, st, row.node); err != nil {
				t.Fatal(err)
			}
			st.Start()
			in := pull.NewInPort(k, uid.Nil, id, core.Chan(0), pull.InPortConfig{})
			// The successfully produced item may or may not arrive before
			// the abort; eventually we must see an AbortedError carrying
			// the message.
			var err error
			for {
				_, err = in.Next()
				if err != nil {
					break
				}
			}
			if !errors.Is(err, itemio.ErrAborted) {
				t.Fatalf("want ErrAborted, got %v", err)
			}
			var ae *itemio.AbortedError
			if !errors.As(err, &ae) || ae.Msg != "disk on fire" {
				t.Fatalf("abort message lost: %v", err)
			}
		})
	}
}

func TestCancelReleasesBlockedProducer(t *testing.T) {
	k := testKernel(t)
	produced := make(chan int, 1)
	st := transput.NewROStage(k, transput.ROStageConfig{Name: "infinite", Anticipation: 2}, func(_ []itemio.ItemReader, outs []itemio.ItemWriter) error {
		i := 0
		for {
			if err := outs[0].Put([]byte(fmt.Sprintf("%d", i))); err != nil {
				produced <- i
				return nil // aborted: normal exit for this test
			}
			i++
		}
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	in := pull.NewInPort(k, uid.Nil, id, core.Chan(0), pull.InPortConfig{})
	for i := 0; i < 3; i++ {
		if _, err := in.Next(); err != nil {
			t.Fatal(err)
		}
	}
	in.Cancel("enough")
	select {
	case n := <-produced:
		if n > 10 {
			t.Errorf("producer ran %d items past a capacity-2 buffer", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer never released after Cancel")
	}
	if _, err := in.Next(); !errors.Is(err, itemio.ErrAborted) {
		t.Fatalf("post-cancel read: %v", err)
	}
	in.Cancel("again") // idempotent
}

func TestCancelAfterEOFSendsNoAbort(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, numbered(3), transput.ROStageConfig{})
	in := pull.NewInPort(k, uid.Nil, src, core.Chan(0), pull.InPortConfig{})
	drainAll(t, in)
	before := k.Metrics().Invocations.Value()
	in.Cancel("post-EOF")
	if after := k.Metrics().Invocations.Value(); after != before {
		t.Fatalf("Cancel after EOF issued %d invocations", after-before)
	}
}

// TestCancelAfterEndReleasesPending is the abort path of a consumer that
// bails after its source has ended (under load, a source can finish
// while the abort is still on its way).  The last batch arrives with
// StatusEnd, so a port can be done with items pending (one slot, one
// batch of eight), and Cancel must release them all the same.  An ended
// channel ignores the consumer's Abort and keeps its backlog for a
// reader to drain (a window, batches of four), and deactivating its
// Eject must release that.  Before either fix, TestFusedAbortDrains'
// sink-bails case failed in about one full-suite run in four.
func TestCancelAfterEndReleasesPending(t *testing.T) {
	for _, cfg := range []pull.InPortConfig{{Batch: 8}, {Batch: 4, Window: 2}} {
		t.Run(fmt.Sprintf("window=%d", max(cfg.Window, 1)), func(t *testing.T) {
			k := testKernel(t)
			met := k.Metrics()
			slab := wire.NewSlab(met, 0)
			defer slab.Close()
			st := transput.NewROStage(k, transput.ROStageConfig{Name: "views"}, func(_ []itemio.ItemReader, outs []itemio.ItemWriter) error {
				for i := 0; i < 8; i++ {
					if err := itemio.PutOwned(outs[0], slab.Alloc(16)); err != nil {
						return err
					}
				}
				return nil
			})
			id, err := k.Create(st, 0)
			if err != nil {
				t.Fatal(err)
			}
			st.Start()
			<-st.Done() // the stream has ended, all eight items buffered
			in := pull.NewInPort(k, uid.Nil, id, core.Chan(0), cfg)
			item, err := in.Next()
			if err != nil {
				t.Fatal(err)
			}
			wire.Release(item)
			in.Cancel("the consumer's output failed")
			// The stream was cut short, and Next says so rather than EOF.
			var aborted *itemio.AbortedError
			if _, err := in.Next(); !errors.As(err, &aborted) {
				t.Fatalf("Next after Cancel dropped items: %v, want an AbortedError", err)
			}
			// An ended channel keeps what nobody took until it is retired.
			if err := k.Destroy(id); err != nil {
				t.Fatal(err)
			}
			if r, rel := met.SlabRetained.Value(), met.SlabReleased.Value(); r != rel {
				t.Fatalf("%d of %d views still outstanding after Cancel", r-rel, r)
			}
		})
	}
}

func TestSynchronousChannelRendezvous(t *testing.T) {
	k := testKernel(t)
	var maxAhead atomic.Int64
	var servedN atomic.Int64
	st := transput.NewROStage(k, transput.ROStageConfig{Name: "sync", Anticipation: -1}, func(_ []itemio.ItemReader, outs []itemio.ItemWriter) error {
		for i := 0; i < 20; i++ {
			if err := outs[0].Put([]byte{byte(i)}); err != nil {
				return err
			}
			// After Put returns under rendezvous semantics the item is
			// already consumed, so produced-consumed gap is <= 1.
			if ahead := int64(i+1) - servedN.Load(); ahead > maxAhead.Load() {
				maxAhead.Store(ahead)
			}
		}
		return nil
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	in := pull.NewInPort(k, uid.Nil, id, core.Chan(0), pull.InPortConfig{})
	for {
		_, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		servedN.Add(1)
	}
	if servedN.Load() != 20 {
		t.Fatalf("served = %d", servedN.Load())
	}
	if maxAhead.Load() > 2 {
		t.Errorf("rendezvous channel ran %d ahead", maxAhead.Load())
	}
}

func TestOutPortAdverts(t *testing.T) {
	k := testKernel(t)
	_, st := registerItems(t, k, nil, transput.ROStageConfig{OutNames: []string{"Output", "Report"}})
	ads := st.Out().Adverts()
	if len(ads) != 2 {
		t.Fatalf("adverts = %v", ads)
	}
	if ads[0].Name != "Output" || ads[0].ID.Num != 0 || ads[0].Dir != "out" {
		t.Errorf("advert 0 = %+v", ads[0])
	}
	if ads[1].Name != "Report" || ads[1].ID.Num != 1 {
		t.Errorf("advert 1 = %+v", ads[1])
	}
}

func TestChannelsOpRemote(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, nil, transput.ROStageConfig{OutNames: []string{"Output", "Report"}})
	raw, err := k.Invoke(uid.Nil, src, core.OpChannels, &core.ChannelsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	rep := raw.(*core.ChannelsReply)
	if len(rep.Channels) != 2 {
		t.Fatalf("remote adverts = %+v", rep.Channels)
	}
}

func TestWriterAfterClose(t *testing.T) {
	k := testKernel(t)
	port := pull.NewOutPort(k, pull.OutPortConfig{})
	w := port.Declare("Output", 0, 4)
	if err := w.Put([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Put([]byte("b")); !errors.Is(err, itemio.ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
}

func TestUnknownOpOnStage(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, nil, transput.ROStageConfig{})
	if _, err := k.Invoke(uid.Nil, src, "Bogus.Op", &core.ChannelsRequest{}); !errors.Is(err, kernel.ErrNoSuchOperation) {
		t.Fatalf("want ErrNoSuchOperation, got %v", err)
	}
}

// TestReadersIndistinguishable checks §5's impossibility argument
// directly: "Arranging for two or more Ejects to make Read invocations
// on F does not help: F cannot distinguish this from one Eject making
// the same total number of Read invocations."  Two pullers on one
// channel split the stream — each item is delivered exactly once, to
// whichever reader's Transfer got there first.
func TestReadersIndistinguishable(t *testing.T) {
	k := testKernel(t)
	const total = 400
	src, _ := registerItems(t, k, numbered(total), transput.ROStageConfig{})
	var mu sync.Mutex
	seen := make(map[string]int)
	var counts [2]int
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			in := pull.NewInPort(k, uid.Nil, src, core.Chan(0), pull.InPortConfig{})
			for {
				item, err := in.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen[string(item)]++
				counts[r]++
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	if len(seen) != total {
		t.Fatalf("distinct items = %d, want %d", len(seen), total)
	}
	for item, n := range seen {
		if n != 1 {
			t.Fatalf("item %q delivered %d times", item, n)
		}
	}
	// The split is arbitrary, but both readers got something when the
	// stream is long (no per-reader affinity exists to enforce
	// otherwise).
	if counts[0] == 0 || counts[1] == 0 {
		t.Logf("degenerate split %v (legal, but unusual)", counts)
	}
}

// TestSelfInvocation: an Eject may invoke itself (e.g. a directory
// concatenator that contains itself would recurse); the kernel's
// worker pool makes this safe up to the pool depth.
func TestSelfInvocation(t *testing.T) {
	k := testKernel(t)
	src, st := registerItems(t, k, numbered(3), transput.ROStageConfig{})
	_ = st
	// An Eject whose Serve pulls from src — including when invoked BY
	// src's own kernel path — exercising nested invocation from a
	// worker goroutine.
	in := pull.NewInPort(k, src, src, core.Chan(0), pull.InPortConfig{}) // self as "from"
	got := drainAll(t, in)
	if len(got) != 3 {
		t.Fatalf("self-from pull got %d", len(got))
	}
}
