package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"asymstream/internal/kernel"
	"asymstream/internal/quiesce"
	"asymstream/internal/uid"
	"asymstream/internal/wire"

	"asymstream/internal/transput"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/pull"
	"asymstream/internal/transput/internal/push"
)

// Tests for the one channel record (channel.go) through its three
// faces.

// TestIdleChannelFootprint pins what one idle channel costs the heap —
// its record, its handle, its slot in the advert list and its one index
// entry — on both faces a gateway declares on, in both addressing
// modes, and holds the IdleChannelBytes gauge, and its index share, to
// the measured figures.  Three rows: the channels just declared
// (idle); churned (each looked up once, which promotes the index to its
// snapshot, then a quarter retired and declared afresh with no lookups
// of the new ones); and drained (each carries one burst, then empties).
// The ceiling sits below any one of a cache-line pad, a cond per record
// or an item array kept by a drained record added back, and a row's
// slack over the idle row below a second index entry (an overlay that
// copies its snapshot).
func TestIdleChannelFootprint(t *testing.T) {
	const (
		n       = 20000
		burst   = 8    // each channel's capacity
		ceiling = 300  // heap bytes a channel; 271 (numbers) and 286 (capabilities) measured idle
		slack   = 32   // heap bytes a churned or drained channel may add to an idle one
		drift   = 0.15 // the gauge's tolerance against the heap
	)
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties chanPool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	items := make([][]byte, burst)
	for i := range items {
		items[i] = []byte{byte(i)}
	}
	// measure builds n channels of one face and mode, takes them through
	// the row and returns the heap bytes a channel.
	measure := func(t *testing.T, face string, capMode bool, row string) float64 {
		var reg *core.ChanRegistry
		var declare func(i int) (handle any, ref core.ChanRef)
		var fill func(core.ChanRef)
		var drain func(core.ChanRef)
		if face == "OutPort" {
			p := pull.NewOutPort(nil, pull.OutPortConfig{CapabilityMode: capMode})
			reg = p.Registry()
			declare = func(i int) (any, core.ChanRef) { w := p.Declare("c", core.ChannelNum(i), burst); return w, w.Ref() }
			fill = func(ref core.ChanRef) {
				for _, item := range items {
					_ = ref.Put(item, true)
				}
			}
			drain = func(ref core.ChanRef) { core.TransferReplies.Put(ref.Take(burst)) }
		} else {
			p := push.NewWOInPort(nil, push.WOInPortConfig{CapabilityMode: capMode})
			reg = p.Registry()
			declare = func(i int) (any, core.ChanRef) { r := p.Declare("c", core.ChannelNum(i), burst, 1); return r, r.Ref() }
			fill = func(ref core.ChanRef) { core.DeliverReplies.Put(ref.Absorb(&core.DeliverRequest{Items: items})) }
			drain = func(ref core.ChanRef) {
				for range items {
					_, _ = ref.Next()
				}
			}
		}
		handles, refs := make([]any, n), make([]core.ChanRef, n)
		before := heap()
		for i := range handles {
			handles[i], refs[i] = declare(i)
		}
		switch row {
		case "churned":
			for _, ref := range refs {
				id, _ := ref.Ident()
				if _, st := reg.Lookup(id); st != core.StatusOK {
					t.Fatal(st)
				}
			}
			for i := range n / 4 {
				reg.Retire(refs[i])
				handles[i], refs[i] = declare(n + i)
			}
		case "drained":
			for _, ref := range refs {
				fill(ref)
				drain(ref)
			}
		}
		perChan := float64(heap()-before) / n
		runtime.KeepAlive(handles)
		runtime.KeepAlive(refs)
		if perChan > ceiling {
			t.Errorf("heap grew %.0f B a channel, ceiling %d", perChan, ceiling)
		}
		gauge := float64(reg.Met.IdleChannelBytes.Value()) / float64(reg.Met.ChannelsLive.Value())
		if d := gauge/perChan - 1; d > drift || d < -drift {
			t.Errorf("IdleChannelBytes gauge reads %.0f B a channel, the heap %.0f B: off by %+.0f%%", gauge, perChan, 100*d)
		}
		// The index share: the heap less the record, the handle and the
		// advert list's amortised slot.
		index := perChan - float64(unsafe.Sizeof(core.Channel{})+unsafe.Sizeof(pull.ChannelWriter{})) -
			float64(uintptr(cap(reg.Chans()))*unsafe.Sizeof(core.ChanRef{}))/n
		charged := float64(core.IndexEntryBytes(capMode))
		if d := charged/index - 1; row == "idle" && (d > drift || d < -drift) {
			t.Errorf("the gauge charges %.0f B for the index entry, the heap %.1f B: off by %+.0f%%", charged, index, 100*d)
		}
		t.Logf("heap %.0f B a channel, gauge %.0f B; index share %.1f B", perChan, gauge, index)
		return perChan
	}
	for _, capMode := range []bool{false, true} {
		for _, face := range []string{"OutPort", "WOInPort"} {
			t.Run(fmt.Sprintf("%s/capMode=%v", face, capMode), func(t *testing.T) {
				idle := measure(t, face, capMode, "idle")
				for _, row := range []string{"churned", "drained"} {
					t.Run(row, func(t *testing.T) {
						if perChan := measure(t, face, capMode, row); perChan > idle+slack {
							t.Errorf("heap grew %.0f B a channel, %.0f B more than an idle one; slack %d", perChan, perChan-idle, slack)
						}
					})
				}
			})
		}
	}
}

// TestChannelHandleSize pins a handle at two words, the record and its
// generation: a gateway holds one per live channel.
func TestChannelHandleSize(t *testing.T) {
	const words = 2 * unsafe.Sizeof(uintptr(0))
	if w, r := unsafe.Sizeof(pull.ChannelWriter{}), unsafe.Sizeof(push.ChannelReader{}); w != words || r != words {
		t.Fatalf("ChannelWriter is %d B and ChannelReader %d B, want %d", w, r, words)
	}
}

// portEject exposes a bare passive port (or anything with its Serve
// shape) to the kernel, so tests drive Transfer/Deliver/Abort
// invocations against the record with no stage body in the way.
type portEject struct {
	serve func(*kernel.Invocation) bool
}

func (portEject) EdenType() string { return "test-port" }
func (e portEject) Serve(inv *kernel.Invocation) {
	if !e.serve(inv) {
		inv.Fail(kernel.ErrNoSuchOperation)
	}
}

var passiveFaces = []string{"OutPort", "WOInPort", "PassiveBuffer"}

// TestPassiveBufferAgainstFIFOModel drives the record with a random
// schedule and compares against a plain FIFO model — the same schedule
// per seed through each face: put→take (OutPort, capacity 0 included),
// absorb→next (WOInPort) and absorb→take (PassiveBuffer).  The passive
// input faces take one or two writers (two windowed writers exercise
// the sequence gate); fan-in merges indistinguishably, so the model is
// FIFO per writer.
//
// The active side of every face — the InPort that takes, the Pushers
// that fill, both around a PassiveBuffer — is drawn from one grid, the
// one engine's regimes × its sizing: {Window 1, Window 1 + Prefetch,
// Window 2–4} × {fixed batch, BatchMin < BatchMax}.  Seeds 1–6 cover
// the six rows once each, for pull and push alike.
func TestPassiveBufferAgainstFIFOModel(t *testing.T) {
	quiesce.Deadline(t, time.Minute)
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, face := range passiveFaces {
				t.Run(face, func(t *testing.T) { faceAgainstFIFOModel(t, face, seed) })
			}
		})
	}
}

// activeRow is one row of the active grid, as both faces' configuration.
type activeRow struct {
	pull pull.InPortConfig
	push push.PusherConfig
}

// drawActive picks the seed's row: the regime cycles every two seeds,
// the sizing alternates, and the free parameters come from rng.
func drawActive(seed int64, rng *rand.Rand) activeRow {
	window, prefetch := 1, 0
	switch (seed - 1) / 2 % 3 {
	case 1:
		prefetch = 1 + rng.Intn(3)
	case 2:
		window = 2 + rng.Intn(3)
	}
	row := activeRow{
		pull: pull.InPortConfig{Window: window, Prefetch: prefetch, Batch: rng.Intn(7) + 1},
		push: push.PusherConfig{Window: window, Batch: rng.Intn(5) + 1},
	}
	if seed%2 == 0 {
		row.pull.BatchMin, row.pull.BatchMax = 1, 2+rng.Intn(7)
		row.push.BatchMin, row.push.BatchMax = 1, 2+rng.Intn(7)
	}
	return row
}

func faceAgainstFIFOModel(t *testing.T, face string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	k := testKernel(t)
	capacity := rng.Intn(9) // 0 is rendezvous on passive output, 1 on passive input
	if capacity == 0 {
		capacity = -1
	}
	nWriters := 1
	if face != "OutPort" {
		nWriters += rng.Intn(2)
	}
	model := make([][][]byte, nWriters)
	for w := range model {
		for i, n := 0, rng.Intn(200)+1; i < n; i++ {
			item := make([]byte, 1+rng.Intn(16))
			rng.Read(item)
			item[0] = byte(w)
			model[w] = append(model[w], item)
		}
	}
	row := drawActive(seed, rng)

	// Wire the face: writers[w] fills the record, reader drains it.
	id := k.NewUID()
	writers := make([]itemio.ItemWriter, nWriters)
	var reader itemio.ItemReader
	var eject kernel.Eject
	switch face {
	case "OutPort":
		port := pull.NewOutPort(k, pull.OutPortConfig{})
		writers[0] = port.Declare("model", 0, capacity)
		eject = portEject{port.Serve}
	case "WOInPort":
		port := push.NewWOInPort(k, push.WOInPortConfig{})
		reader = port.Declare("model", 0, capacity, nWriters)
		eject = portEject{port.Serve}
	case "PassiveBuffer":
		eject = transput.NewPassiveBuffer(k, transput.PassiveBufferConfig{Name: "model", Capacity: capacity, Writers: nWriters})
	}
	if err := k.CreateWithUID(id, eject, 0); err != nil {
		t.Fatal(err)
	}
	if reader == nil {
		reader = pull.NewInPort(k, uid.Nil, id, core.Chan(0), row.pull)
	}
	var pushers []*push.Pusher
	for w := range writers {
		if writers[w] == nil { // not a local put
			p := push.NewPusher(k, uid.Nil, id, core.Chan(0), row.push)
			writers[w], pushers = p, append(pushers, p)
		}
	}

	var closed sync.WaitGroup
	for w, out := range writers {
		closed.Add(1)
		go func() {
			defer closed.Done()
			for _, item := range model[w] {
				if err := out.Put(item); err != nil {
					return
				}
			}
			_ = out.Close()
		}()
	}
	got := make([][][]byte, nWriters)
	for {
		item, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(item) == 0 || int(item[0]) >= nWriters {
			t.Fatalf("cap=%d: item %x names no writer", capacity, item)
		}
		got[item[0]] = append(got[item[0]], item)
	}
	for w := range model {
		if len(got[w]) != len(model[w]) {
			t.Fatalf("cap=%d %+v writer %d: got %d items, want %d", capacity, row, w, len(got[w]), len(model[w]))
		}
		for i := range model[w] {
			if !bytes.Equal(got[w][i], model[w][i]) {
				t.Fatalf("cap=%d %+v writer %d: item %d differs", capacity, row, w, i)
			}
		}
	}
	// At a fixed batch the invocation count is the paper's arithmetic in
	// every regime: one Deliver per full batch, and one carrying End.
	closed.Wait()
	for w, p := range pushers {
		if want := int64(len(model[w])/p.Link().Batch + 1); row.push.BatchMax == 0 && p.DeliversIssued() != want {
			t.Errorf("%+v writer %d: %d items took %d Delivers, want %d", row.push, w, len(model[w]), p.DeliversIssued(), want)
		}
	}
}

// TestActivePortTeardownMidWindow is the active engine's one table for
// ending a stream early: both faces × the engine's three regimes, each
// torn down — Cancel on the pull face, CloseWithError on the push face —
// while its window of exchanges is parked at a stalled peer and slab
// views sit at every stage of the hop.  Whatever the row, the helpers
// leave, nobody stays parked in the peer's record, every view goes back
// to the slab, and the peer's surviving end sees the abort.
func TestActivePortTeardownMidWindow(t *testing.T) {
	const capacity = 2
	for _, row := range []struct {
		name             string
		window, prefetch int
	}{{"window=1", 1, 0}, {"prefetch=2", 1, 2}, {"window=4", 4, 0}} {
		rig := func(t *testing.T) (*kernel.Kernel, uid.UID, *wire.Slab, func() []byte, func()) {
			k := testKernel(t)
			slab := wire.NewSlab(k.Metrics(), 1<<14)
			view := func() []byte { return append(slab.Alloc(8)[:0], "a-view!!"...) }
			return k, k.NewUID(), slab, view, quiesce.Baseline(t)
		}
		audit := func(t *testing.T, k *kernel.Kernel, slab *wire.Slab, ch *core.Channel, goroutines func()) {
			t.Helper()
			goroutines()
			ch.Mu.Lock()
			waiters := ch.Waiters()
			ch.Mu.Unlock()
			if waiters != 0 {
				t.Errorf("%d workers still parked in the peer's record", waiters)
			}
			if n := slab.Close(); n != 0 || k.Metrics().SlabLeaked.Value() != 0 {
				t.Errorf("slab leak audit: %d stranded views (SlabLeaked=%d)", n, k.Metrics().SlabLeaked.Value())
			}
		}
		t.Run("pull/"+row.name, func(t *testing.T) {
			k, id, slab, view, goroutines := rig(t)
			port := pull.NewOutPort(k, pull.OutPortConfig{})
			w := port.Declare("c", 0, 64)
			if err := k.CreateWithUID(id, portEject{port.Serve}, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 6; i++ { // three batches: two consumed below, one read ahead (or left behind)
				if err := w.PutOwned(view()); err != nil {
					t.Fatal(err)
				}
			}
			in := pull.NewInPort(k, uid.Nil, id, core.Chan(0), pull.InPortConfig{Batch: 2, Window: row.window, Prefetch: row.prefetch})
			for i := 0; i < 3; i++ { // an odd count: one view stays in pending
				item, err := in.Next()
				if err != nil {
					t.Fatal(err)
				}
				wire.Release(item)
			}
			// A helper ends up parked on the drained, unended channel — one
			// once the window gate has seen the source's replies, more if
			// the first Window went out before any came back.
			if row.window > 1 || row.prefetch > 0 {
				eventually(t, "a Transfer is parked at the source", func() bool {
					w.Ref().C.Mu.Lock()
					defer w.Ref().C.Mu.Unlock()
					return w.Ref().C.Waiters() >= 1
				})
			}
			in.Cancel("enough")
			if _, err := in.Next(); !errors.Is(err, itemio.ErrAborted) {
				t.Errorf("Next after Cancel: %v, want ErrAborted", err)
			}
			if err := w.PutOwned(view()); !errors.Is(err, itemio.ErrAborted) {
				t.Errorf("source's Put after Cancel: %v, want ErrAborted", err)
			}
			audit(t, k, slab, w.Ref().C, goroutines)
		})
		if row.prefetch > 0 {
			continue // read-ahead is the pull face's alone
		}
		// The same early end with the window's helpers parked *at the gate*:
		// a source fed one item at a time answers every Transfer "nothing
		// left", so the limit is 1, one Transfer waits at the source and
		// the other helpers wait for its slot.  Cancel and Redirect must
		// dismiss those too.
		for _, end := range []string{"Cancel", "Redirect"} {
			if row.window == 1 {
				break // one slot has no gate
			}
			t.Run("pull/"+row.name+"/gate/"+end, func(t *testing.T) {
				k, id, slab, view, goroutines := rig(t)
				port := pull.NewOutPort(k, pull.OutPortConfig{})
				w := port.Declare("c", 0, 64)
				next := port.Declare("next", 1, 64)
				if err := k.CreateWithUID(id, portEject{port.Serve}, 0); err != nil {
					t.Fatal(err)
				}
				in := pull.NewInPort(k, uid.Nil, id, core.Chan(0), pull.InPortConfig{Batch: 2, Window: row.window})
				// The first item anchors the stream inline and the second
				// starts the helpers; a Transfer that went out before the
				// first "nothing left" came back waits at the source, and
				// each item after that brings one such back to the gate.
				for i := 0; i < row.window+1; i++ {
					if err := w.PutOwned(view()); err != nil {
						t.Fatal(err)
					}
					item, err := in.Next()
					if err != nil {
						t.Fatal(err)
					}
					wire.Release(item)
				}
				eventually(t, "one Transfer is at the source and the other helpers at the gate", func() bool {
					w.Ref().C.Mu.Lock()
					defer w.Ref().C.Mu.Unlock()
					return w.Ref().C.Waiters() == 1 && k.Metrics().WindowGateStalls.Value() >= int64(row.window-1)
				})
				if end == "Cancel" {
					in.Cancel("enough")
					if _, err := in.Next(); !errors.Is(err, itemio.ErrAborted) {
						t.Errorf("Next after Cancel: %v, want ErrAborted", err)
					}
				} else {
					if err := next.PutOwned(view()); err != nil {
						t.Fatal(err)
					}
					_ = next.Close()
					if err := in.Redirect(id, core.Chan(1), ""); err != nil {
						t.Fatal(err)
					}
					item, err := in.Next()
					if err != nil {
						t.Fatalf("Next after Redirect: %v", err)
					}
					wire.Release(item)
					if _, err := in.Next(); err != io.EOF {
						t.Errorf("end of the redirected stream: %v, want io.EOF", err)
					}
				}
				if err := w.PutOwned(view()); !errors.Is(err, itemio.ErrAborted) {
					t.Errorf("source's Put after %s: %v, want ErrAborted", end, err)
				}
				audit(t, k, slab, w.Ref().C, goroutines)
			})
		}
		t.Run("push/"+row.name, func(t *testing.T) {
			k, id, slab, view, goroutines := rig(t)
			port := push.NewWOInPort(k, push.WOInPortConfig{})
			r := port.Declare("c", 0, capacity, 1) // never read: the sink is stalled
			if err := k.CreateWithUID(id, portEject{port.Serve}, 0); err != nil {
				t.Fatal(err)
			}
			p := push.NewPusher(k, uid.Nil, id, core.Chan(0), push.PusherConfig{Batch: 1, Window: row.window})
			// Fill the sink; a window then parks a delivery on the full
			// buffer — one once the credit gate has seen the sink's
			// replies, more if the first Window went out before any came
			// back — and holds the rest in the helpers and the queue,
			// where one slot would park the producer itself.
			n := capacity
			if row.window > 1 {
				n += 1 + row.window
			}
			for i := 0; i < n; i++ {
				if err := p.PutOwned(view()); err != nil {
					t.Fatal(err)
				}
			}
			if row.window > 1 {
				eventually(t, "a delivery is parked at the sink", func() bool {
					r.Ref().C.Mu.Lock()
					defer r.Ref().C.Mu.Unlock()
					return r.Ref().C.Waiters() >= 1
				})
			}
			if err := p.CloseWithError(errors.New("producer failed")); err != nil {
				t.Fatal(err)
			}
			if err := p.PutOwned(view()); !errors.Is(err, itemio.ErrClosed) {
				t.Errorf("Put after CloseWithError: %v, want ErrClosed", err)
			}
			if _, err := r.Next(); !errors.Is(err, itemio.ErrAborted) {
				t.Errorf("sink's Next after CloseWithError: %v, want ErrAborted", err)
			}
			audit(t, k, slab, r.Ref().C, goroutines)
		})
	}
}

// TestSinkLaneHoldsBackByOffset: a windowed writer's delivery waits in
// the sink's record until its Base is the writer's turn there, counted
// on MergeReorderHighWater while it waits, and the turn then moves on by
// the items each delivery carried.
func TestSinkLaneHoldsBackByOffset(t *testing.T) {
	k := testKernel(t)
	r := push.NewWOInPort(k, push.WOInPortConfig{}).Declare("c", 0, 8, 1)
	writer := uid.New()
	deliver := func(base int64, items ...string) {
		req := &core.DeliverRequest{Writer: writer, Base: base}
		for _, it := range items {
			req.Items = append(req.Items, []byte(it))
		}
		if rep := r.Ref().Absorb(req); rep == nil || rep.Status != core.StatusOK {
			t.Errorf("delivery at %d: %+v", base, rep)
		}
	}
	late := make(chan struct{})
	go func() {
		defer close(late)
		deliver(2, "c", "d")
	}()
	eventually(t, "the delivery at offset 2 is held back", func() bool {
		r.Ref().C.Mu.Lock()
		defer r.Ref().C.Mu.Unlock()
		return r.Ref().C.Waiters() == 1 && k.Metrics().MergeReorderHighWater.Value() == 1
	})
	deliver(0, "a", "b")
	<-late
	deliver(4, "e")
	var got []string
	for range 5 {
		item, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}
	if fmt.Sprint(got) != "[a b c d e]" {
		t.Errorf("the sink buffered %v, want [a b c d e]", got)
	}
}

// TestTwoWaitersOnePut: two Transfers park on an empty channel and one
// item arrives.  The put's broadcast wakes both; one takes the item, and
// the other must find the channel empty again and park again — not
// reply, least of all with an empty batch — until the next item.
func TestTwoWaitersOnePut(t *testing.T) {
	k := testKernel(t)
	w := pull.NewOutPort(k, pull.OutPortConfig{}).Declare("c", 0, 8)
	replies := make(chan *core.TransferReply, 2)
	for range 2 {
		go func() { replies <- w.Ref().Take(8) }()
	}
	eventually(t, "both Transfers park", func() bool {
		w.Ref().C.Mu.Lock()
		defer w.Ref().C.Mu.Unlock()
		return w.Ref().C.Waiters() == 2
	})
	var got []string
	for _, item := range []string{"a", "b"} {
		if err := w.Put([]byte(item)); err != nil {
			t.Fatal(err)
		}
		select {
		case rep := <-replies:
			for _, it := range rep.Items {
				got = append(got, string(it))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no parked Transfer took %q", item)
		}
		select {
		case rep := <-replies:
			t.Fatalf("a parked Transfer replied %d items, status %v, with nothing buffered", len(rep.Items), rep.Status)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if fmt.Sprint(got) != "[a b]" {
		t.Errorf("the two Transfers took %v, want [a b]", got)
	}
}

// TestSpareArraysStorm fills and drains several channels of one port at
// once, each from its own producer and consumer, so their item arrays
// pass through the port's spares from goroutine to goroutine (under
// -race, the spares' audit).  Every stream arrives whole and in order,
// and once all are drained no record holds an array and the port holds
// no more than it had channels.
func TestSpareArraysStorm(t *testing.T) {
	const chans, items = 4, 3000
	quiesce.Deadline(t, time.Minute)
	p := pull.NewOutPort(nil, pull.OutPortConfig{})
	var wg sync.WaitGroup
	for ch := range chans {
		w := p.Declare("c", core.ChannelNum(ch), 1+ch)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range items {
				if err := w.Put([]byte{byte(ch), byte(i >> 8), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
			_ = w.Close()
		}()
		go func() {
			defer wg.Done()
			next := 0
			for {
				rep := w.Ref().Take(1 + next%3)
				for _, it := range rep.Items {
					if want := []byte{byte(ch), byte(next >> 8), byte(next)}; !bytes.Equal(it, want) {
						t.Errorf("channel %d: item %d is %v, want %v", ch, next, it, want)
					}
					next++
				}
				end := rep.Status != core.StatusOK
				core.TransferReplies.Put(rep)
				if end {
					break
				}
			}
			if next != items {
				t.Errorf("channel %d: %d items arrived, want %d", ch, next, items)
			}
		}()
	}
	wg.Wait()
	for _, ref := range p.Registry().Live() {
		if c, ok := ref.Lock(); ok {
			if c.Buf() != nil {
				t.Errorf("drained channel %d holds an array of %d slots", c.ID().Num, cap(c.Buf()))
			}
			c.Mu.Unlock()
		}
	}
	if n := len(p.Registry().Port().Spares()); n > chans {
		t.Errorf("the port holds %d spare arrays for %d channels", n, chans)
	}
}

// TestChannelTeardown is the one table for the one abort: every face ×
// every way a channel can be torn down, each starting from a backlog
// of slab views filling the buffer and one worker parked on it (a
// local PutOwned on passive output, a served Deliver on passive
// input).  Whatever the path, the parked worker wakes with the abort,
// every view — backlog and the parked worker's own — goes back to the
// slab, nobody is left waiting in the record, and once retired the
// record is fit for the pool: its next life starts clean.
func TestChannelTeardown(t *testing.T) {
	const backlog = 4
	abort := func(all bool) func(*teardownRig) {
		return func(r *teardownRig) {
			req := &core.AbortRequest{Channel: core.Chan(0), Msg: "teardown", All: all}
			if _, err := r.k.Invoke(uid.Nil, r.id, core.OpAbort, req); err != nil {
				r.t.Fatal(err)
			}
		}
	}
	paths := []struct {
		name  string
		faces string // which faces have this path
		run   func(*teardownRig)
	}{
		{"OpAbort", "OutPort WOInPort PassiveBuffer", abort(false)},
		{"OpAbortAll", "OutPort WOInPort PassiveBuffer", abort(true)},
		{"CloseWithError", "OutPort", func(r *teardownRig) {
			_ = r.writer.CloseWithError(errors.New("teardown"))
		}},
		{"Cancel", "WOInPort", func(r *teardownRig) { r.reader.Cancel("teardown") }},
		{"Retire", "OutPort WOInPort", func(r *teardownRig) {
			if !r.retire() {
				r.t.Fatal("Retire found the channel already gone")
			}
		}},
		{"OnDeactivate", "PassiveBuffer", func(r *teardownRig) {
			if err := r.k.Deactivate(r.id); err != nil {
				r.t.Fatal(err)
			}
		}},
	}
	for _, face := range passiveFaces {
		for _, path := range paths {
			if !strings.Contains(path.faces, face) {
				continue
			}
			t.Run(face+"/"+path.name, func(t *testing.T) {
				r := newTeardownRig(t, face, backlog)
				path.run(r)

				select {
				case err := <-r.parked:
					if !errors.Is(err, itemio.ErrAborted) {
						t.Fatalf("parked worker woke with %v, want ErrAborted", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("parked worker never woke")
				}
				met := r.k.Metrics()
				if ret, rel := met.SlabRetained.Value(), met.SlabReleased.Value(); ret != rel {
					t.Errorf("slab views retained=%d released=%d after teardown", ret, rel)
				}
				if n := r.slab.Close(); n != 0 || met.SlabLeaked.Value() != 0 {
					t.Errorf("slab leak audit: %d stranded views (SlabLeaked=%d)", n, met.SlabLeaked.Value())
				}
				// The surviving side sees the abort too (a retired or
				// deactivated channel is simply gone).
				switch {
				case path.name == "Retire" || path.name == "OnDeactivate":
				case face == "WOInPort":
					if _, err := r.reader.Next(); !errors.Is(err, itemio.ErrAborted) {
						t.Errorf("reader after abort: %v, want ErrAborted", err)
					}
				default:
					in := pull.NewInPort(r.k, uid.Nil, r.id, core.Chan(0), pull.InPortConfig{})
					if _, err := in.Next(); !errors.Is(err, itemio.ErrAborted) {
						t.Errorf("Transfer after abort: %v, want ErrAborted", err)
					}
				}
				if face != "OutPort" && path.name != "OnDeactivate" {
					want := itemio.ErrAborted
					if path.name == "Retire" {
						want = core.ErrNoSuchChannel
					}
					p := push.NewPusher(r.k, uid.Nil, r.id, core.Chan(0), push.PusherConfig{})
					if err := p.Put([]byte("late")); !errors.Is(err, want) {
						t.Errorf("Deliver after teardown: %v, want %v", err, want)
					}
				}

				// Retire whatever the path left standing, then inspect the
				// record: stale to every old handle, nobody parked, empty.
				r.retire()
				c := r.ch.C
				c.Mu.Lock()
				stale, waiters, buffered := c.Gen().Load() != r.ch.Gen(), c.Waiters(), c.Buffered()
				c.Mu.Unlock()
				if !stale || waiters != 0 || buffered != 0 {
					t.Fatalf("retired record: stale=%v waiters=%d buffered=%d; want true, 0, 0", stale, waiters, buffered)
				}
				// If the pool hands the record straight back (it may not:
				// sync.Pool is lossy), its next life must start clean.
				w := pull.NewOutPort(nil, pull.OutPortConfig{}).Declare("next", 0, 2)
				if w.Ref().C == c {
					if err := w.Put([]byte("fresh")); err != nil {
						t.Fatalf("reused record refused its first Put: %v", err)
					}
					if rep := w.Ref().Take(4); rep == nil || rep.Status != core.StatusOK || len(rep.Items) != 1 || rep.Base != 0 {
						t.Fatalf("reused record's first Transfer: %+v", rep)
					}
				}
			})
		}
	}
}

// teardownRig is one face holding a full backlog of slab views with one
// worker parked on it.
type teardownRig struct {
	t    *testing.T
	k    *kernel.Kernel
	id   uid.UID
	slab *wire.Slab

	ch     core.ChanRef
	writer *pull.ChannelWriter // OutPort face
	reader *push.ChannelReader // WOInPort face
	retire func() bool

	parked chan error // the parked worker's outcome
}

func newTeardownRig(t *testing.T, face string, backlog int) *teardownRig {
	k := testKernel(t)
	r := &teardownRig{t: t, k: k, id: k.NewUID(), parked: make(chan error, 1)}
	r.slab = wire.NewSlab(k.Metrics(), 1<<14)
	view := func(i int) []byte {
		v := r.slab.Alloc(8)
		copy(v, fmt.Sprintf("item-%02d", i))
		return v
	}
	var eject kernel.Eject
	switch face {
	case "OutPort":
		port := pull.NewOutPort(k, pull.OutPortConfig{})
		r.writer = port.Declare("c", 0, backlog)
		r.ch = r.writer.Ref()
		r.retire = func() bool { return port.Retire(r.writer) }
		eject = portEject{port.Serve}
	case "WOInPort":
		port := push.NewWOInPort(k, push.WOInPortConfig{})
		r.reader = port.Declare("c", 0, backlog, 1)
		r.ch = r.reader.Ref()
		r.retire = func() bool { return port.Retire(r.reader) }
		eject = portEject{port.Serve}
	case "PassiveBuffer":
		b := transput.NewPassiveBuffer(k, transput.PassiveBufferConfig{Name: "c", Capacity: backlog})
		r.ch = b.Ref()
		r.retire = func() bool { b.OnDeactivate(); return true }
		eject = b
	}
	if err := k.CreateWithUID(r.id, eject, 0); err != nil {
		t.Fatal(err)
	}

	deliver := func(items ...[]byte) error {
		res, err := k.Invoke(uid.Nil, r.id, core.OpDeliver, &core.DeliverRequest{Channel: core.Chan(0), Items: items})
		if err != nil {
			return err
		}
		if rep := res.(*core.DeliverReply); rep.Status != core.StatusOK {
			return core.StatusErr(rep.Status, rep.AbortMsg)
		}
		return nil
	}
	fill := make([][]byte, backlog)
	for i := range fill {
		fill[i] = view(i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	if face == "OutPort" {
		for _, v := range fill {
			if err := r.writer.PutOwned(v); err != nil {
				t.Fatal(err)
			}
		}
		go func() { wg.Done(); r.parked <- r.writer.PutOwned(view(backlog)) }()
	} else {
		if err := deliver(fill...); err != nil {
			t.Fatal(err)
		}
		go func() { wg.Done(); r.parked <- deliver(view(backlog)) }()
	}
	wg.Wait()
	eventually(t, "the extra worker is parked in the record", func() bool {
		r.ch.C.Mu.Lock()
		defer r.ch.C.Mu.Unlock()
		return r.ch.C.Waiters() == 1
	})
	return r
}
