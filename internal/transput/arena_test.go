package transput

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
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

	t.Run("ChannelWriter", func(t *testing.T) {
		port := NewOutPort(nil, OutPortConfig{})
		w := port.Declare("Output", 0, 16)
		c := newStormChecker(t, producers, stormItem)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				rep := w.ch.take(w.gen, 8)
				for _, it := range rep.Items {
					c.check(it)
				}
				end := rep.Status != StatusOK
				releaseTransferReply(rep)
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
