package transput

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/quiesce"
	"asymstream/internal/uid"
	"asymstream/internal/wire"

	"asymstream/internal/transput/internal/core"
)

// stormItem builds producer w's item seq in buf: a three-byte header
// naming both, then a fill that is a function of them, 5–65 bytes long
// and now and then of the splice cutoff or more.
func stormItem(buf []byte, w, seq int) []byte {
	n := 5 + seq*7%61
	if seq%97 == 0 {
		n = wire.SpliceCutoff + seq%5
	}
	return fillStormItem(buf, w, seq, n)
}

// bulkItem is stormItem with one item in four 16 KiB long.
func bulkItem(buf []byte, w, seq int) []byte {
	n := 5 + seq*7%61
	if seq%4 == 0 {
		n = 16 << 10
	}
	return fillStormItem(buf, w, seq, n)
}

func fillStormItem(buf []byte, w, seq, n int) []byte {
	buf = append(buf[:0], byte(w), byte(seq>>8), byte(seq))
	for len(buf) < n {
		buf = append(buf, byte(w*31+seq))
	}
	return buf
}

// stormChecker consumes storm items: each must be intact, and each
// producer's must arrive in its order.  It keeps every item, appending
// to it as an owner may, and verify checks at the end that none was
// overwritten since — by a later copy into a reused block, by an append
// that reached it from a neighbour, or by a carve into a chunk a body
// took it from in place.
type stormChecker struct {
	t    *testing.T
	item func(buf []byte, w, seq int) []byte // how the producers built them
	next []int
	kept [][]byte
	want []byte
}

func newStormChecker(t *testing.T, producers int, item func(buf []byte, w, seq int) []byte) *stormChecker {
	return &stormChecker{t: t, item: item, next: make([]int, producers)}
}

// intact reports whether item is a storm item as its producer built it.
func (c *stormChecker) intact(item []byte) bool {
	if len(item) < 3 {
		return false
	}
	c.want = c.item(c.want[:0], int(item[0]), int(item[1])<<8|int(item[2]))
	return string(item) == string(c.want)
}

func (c *stormChecker) check(item []byte) {
	c.kept = append(c.kept, item)
	if !c.intact(item) || int(item[0]) >= len(c.next) {
		c.t.Errorf("item %d bytes long arrived damaged", len(item))
		return
	}
	w, seq := int(item[0]), int(item[1])<<8|int(item[2])
	if seq != c.next[w] {
		c.t.Errorf("producer %d: item %d after %d", w, seq, c.next[w]-1)
	}
	c.next[w] = seq + 1
	_ = append(item, 0xFF, 0xFF, 0xFF, 0xFF)
}

func (c *stormChecker) verify(want int) {
	if len(c.kept) != want {
		c.t.Errorf("consumed %d items, want %d", len(c.kept), want)
	}
	for i, item := range c.kept {
		if !c.intact(item) {
			c.t.Errorf("item %d of the %d consumed changed after it arrived", i, len(c.kept))
			return
		}
	}
}

// stormPuts runs producers goroutines putting perProducer items built by
// item each through put, every producer reusing (and scribbling on) its
// own buffer as the copying Put allows.
func stormPuts(producers, perProducer int, item func(buf []byte, w, seq int) []byte, put func([]byte) error) error {
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for seq := 0; seq < perProducer; seq++ {
				buf = item(buf, w, seq)
				if err := put(buf); err != nil {
					errs <- fmt.Errorf("producer %d, item %d: %w", w, seq, err)
					return
				}
				for i := range buf {
					buf[i] = 0xEE
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// TestPutArenaStorm puts from several goroutines at once through one
// ChannelWriter and through one windowed Pusher, whose copies share
// arena blocks, while the consumers read, check and append to the items
// they were handed — neighbours in those blocks — under -race.
func TestPutArenaStorm(t *testing.T) {
	const producers, perProducer = 4, 2000
	quiesce.Deadline(t, time.Minute)

	t.Run("ChannelWriter", func(t *testing.T) {
		port := NewOutPort(nil, OutPortConfig{})
		w := port.Declare("Output", 0, 16)
		c := newStormChecker(t, producers, stormItem)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				rep := w.Ref().Take(8, nil)
				for _, it := range rep.Items {
					c.check(it)
				}
				end := rep.Status != StatusOK
				core.TransferReplies.Put(rep)
				if end {
					return
				}
			}
		}()
		if err := stormPuts(producers, perProducer, stormItem, w.Put); err != nil {
			t.Error(err)
		}
		_ = w.Close()
		<-done
		c.verify(producers * perProducer)
	})

	t.Run("Pusher", func(t *testing.T) {
		k := kernel.New(kernel.Config{})
		defer k.Shutdown()
		c := newStormChecker(t, producers, stormItem)
		sink := NewWOStage(k, WOStageConfig{Name: "sink", Capacity: 16},
			func(ins []ItemReader, _ []ItemWriter) error {
				for {
					item, err := ins[0].Next()
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					c.check(item)
				}
			})
		id := k.NewUID()
		if err := k.CreateWithUID(id, sink, 0); err != nil {
			t.Fatal(err)
		}
		sink.Start()
		p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: 4, Window: 4})
		if err := stormPuts(producers, perProducer, stormItem, p.Put); err != nil {
			t.Error(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		c.verify(producers * perProducer)
	})
}

// putStream puts storm items from..to-1 (bulkItem: one in four 16 KiB)
// through put, scribbling over its buffer after each as a copying Put
// allows.  With owned, every eighth item from the fifth on goes through
// putOwned instead (so copies come first and the writer has an arena),
// built in place in a 32 KiB region of one shared buffer: half of them
// the region's prefix (cap > len), half cut to cap == len, the shape of
// an arena copy.  It returns that buffer and what it must still hold.
func putStream(from, to int, owned bool, put, putOwned func([]byte) error) (shared, want []byte, err error) {
	const n = 16 << 10
	if owned {
		shared = bytes.Repeat([]byte{0xAB}, (to-from)/8*2*n+2*n)
		want = bytes.Clone(shared)
	}
	var buf []byte
	for seq := from; seq < to; seq++ {
		if !owned || seq%8 != 4 {
			buf = bulkItem(buf, 0, seq)
			if err := put(buf); err != nil {
				return nil, nil, fmt.Errorf("item %d: %w", seq, err)
			}
			for i := range buf {
				buf[i] = 0xEE
			}
			continue
		}
		off := (seq - from) / 8 * 2 * n
		end := off + 2*n
		if seq%16 == 12 {
			end = off + n
		}
		item := fillStormItem(shared[off:off:end], 0, seq, n)
		copy(want[off:], item)
		if err := putOwned(item); err != nil {
			return nil, nil, fmt.Errorf("item %d: %w", seq, err)
		}
	}
	return shared, want, nil
}

// retainingSink starts a write-only sink on node that checks and keeps
// the first n items it reads (all of them, for n < 0).
func retainingSink(t *testing.T, k *kernel.Kernel, node netsim.NodeID, c *stormChecker, n int) (uid.UID, *Stage) {
	t.Helper()
	sink := NewWOStage(k, WOStageConfig{Name: "sink", Capacity: 16},
		func(ins []ItemReader, _ []ItemWriter) error {
			for i := 0; n < 0 || i < n; i++ {
				item, err := ins[0].Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				c.check(item)
			}
			return nil
		})
	id := k.NewUID()
	if err := k.CreateWithUID(id, sink, node); err != nil {
		t.Fatal(err)
	}
	sink.Start()
	return id, sink
}

// TestPutCopyRecycleOwnership holds the write side's reuse rule to its
// ownership: a Pusher's large copies go back to its arena only once an
// encoded hop has sent them, and only from a batch of nothing but its
// copies.  Every row keeps what its consumer read and checks it at the
// end, after the later Puts that would have reused a copy recycled too
// early; the row with PutOwned items also checks that nothing wrote to
// the buffer they were cut from, inside them or past them.
func TestPutCopyRecycleOwnership(t *testing.T) {
	const items = 400
	quiesce.Deadline(t, time.Minute)
	socketKernel := func(t *testing.T) *kernel.Kernel {
		k, err := NewTransportKernel(kernel.Config{Net: netsim.Config{Nodes: 2}}, TransportUnix)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(k.Shutdown)
		return k
	}
	intact := func(t *testing.T, shared, want []byte) {
		t.Helper()
		if !bytes.Equal(shared, want) {
			t.Error("a buffer handed over by PutOwned was written after its delivery")
		}
	}

	t.Run("Pusher/PutOwned/unix", func(t *testing.T) {
		k := socketKernel(t)
		c := newStormChecker(t, 1, bulkItem)
		id, sink := retainingSink(t, k, 1, c, -1)
		p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: 4, Window: 4})
		shared, want, err := putStream(0, items, true, p.Put, p.PutOwned)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		c.verify(items)
		intact(t, shared, want)
	})

	t.Run("Pusher/same-node/netsim", func(t *testing.T) {
		k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 2, EncodePayloads: true}})
		defer k.Shutdown()
		c := newStormChecker(t, 1, bulkItem)
		id, sink := retainingSink(t, k, 0, c, -1)
		p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: 4, Window: 4})
		if _, _, err := putStream(0, items, false, p.Put, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sink.Err(); err != nil {
			t.Fatal(err)
		}
		c.verify(items)
	})

	t.Run("Pusher/Redirect/unix-to-local", func(t *testing.T) {
		const half = items / 2
		k := socketKernel(t)
		ca, cb := newStormChecker(t, 1, bulkItem), newStormChecker(t, 1, bulkItem)
		cb.next[0] = half
		ida, sinka := retainingSink(t, k, 1, ca, half)
		idb, sinkb := retainingSink(t, k, 0, cb, -1)
		p := NewPusher(k, uid.Nil, ida, Chan(0), PusherConfig{Batch: 4, Window: 4})
		if _, _, err := putStream(0, half, false, p.Put, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Redirect(idb, Chan(0)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := putStream(half, items, false, p.Put, nil); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Stage{sinka, sinkb} {
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
		}
		ca.verify(half)
		cb.verify(items - half)
	})

}
