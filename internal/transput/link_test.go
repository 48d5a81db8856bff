package transput

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/quiesce"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// meteredPort serves a passive port's Eject and watches the data
// exchanges at it: how many are being served at this instant and, while
// slow is set, the most there have been, each one held long enough that
// a window's worth overlap.
type meteredPort struct {
	serve func(*kernel.Invocation) bool
	slow  atomic.Bool
	now   atomic.Int64
	most  metrics.HighWater
}

func (*meteredPort) EdenType() string { return "test-metered-port" }
func (e *meteredPort) Serve(inv *kernel.Invocation) {
	if inv.Op == OpTransfer || inv.Op == OpDeliver {
		now := e.now.Add(1)
		defer e.now.Add(-1)
		if e.slow.Load() {
			e.most.Observe(now)
			time.Sleep(200 * time.Microsecond)
		}
	}
	if !e.serve(inv) {
		inv.Fail(kernel.ErrNoSuchOperation)
	}
}

// TestTransferReplyBacklog: the grant a Transfer reply carries is what
// the channel still held once the reply's items were taken — stamped by
// the one record, so by OutPort and PassiveBuffer alike — it survives
// the wire codec, and a recycled record does not bring an old one along.
func TestTransferReplyBacklog(t *testing.T) {
	for _, face := range []string{"OutPort", "PassiveBuffer"} {
		t.Run(face, func(t *testing.T) {
			k := testKernel(t)
			var eject kernel.Eject
			var fill ItemWriter
			id := k.NewUID()
			if face == "OutPort" {
				port := NewOutPort(k, OutPortConfig{})
				fill, eject = port.Declare("c", 0, 8), portEject{port.Serve}
			} else {
				eject = NewPassiveBuffer(k, PassiveBufferConfig{Name: "c", Capacity: 8, Writers: 1})
				fill = NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{})
			}
			if err := k.CreateWithUID(id, eject, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := fill.Put([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for _, want := range []int{3, 1, 0} { // 5 items, two at a time
				raw, err := k.Invoke(uid.Nil, id, OpTransfer, &TransferRequest{Channel: Chan(0), Max: 2})
				if err != nil {
					t.Fatal(err)
				}
				rep := raw.(*TransferReply)
				if rep.Backlog != want {
					t.Errorf("Transfer of %d items from base %d: Backlog = %d, want %d", len(rep.Items), rep.Base, rep.Backlog, want)
				}
				enc, err := wire.Append(nil, rep)
				if err != nil {
					t.Fatal(err)
				}
				dec, _, err := wire.Decode(enc)
				if got, ok := dec.(*TransferReply); err != nil || !ok || got.Backlog != want || got.Base != rep.Base {
					t.Errorf("over the wire: %+v, %v; want Backlog %d at Base %d", dec, err, want, rep.Base)
				}
				transferReplies.Put(rep)
			}
		})
	}
}

// gateState reads a link's gate.
func gateState(l *link) (active, limit int) {
	l.gateMu.Lock()
	defer l.gateMu.Unlock()
	return l.active, l.limit
}

// TestWindowGateDual holds the two faces of the active engine to the
// one gate (link.go): what a reply says the peer could still exchange —
// free space after a Deliver, backlog after a Transfer — sets how many
// of the window's exchanges go out.  Each face first meets a peer that
// can exchange nothing more (a drained source, a full sink), where the
// exchanges in flight must settle at one, and then the same peer with
// Window × batch and more to exchange, where the whole window must come
// back.  A last row is the guard against a gate that starves a
// latency-bound link: over a 100 µs netsim wire, from a source that
// keeps up, Window 4 must still move at least three times what Window 1
// does.
func TestWindowGateDual(t *testing.T) {
	const window, batch, items = 4, 2, 240
	item := []byte("datum")
	for _, face := range []string{"pull", "push"} {
		t.Run(face, func(t *testing.T) {
			k := testKernel(t)
			id := k.NewUID()
			var (
				eject *meteredPort
				gate  *link
				// step moves one item through the starved peer; flood
				// moves the rest with the peer holding plenty.
				step  func()
				flood func()
			)
			if face == "pull" {
				port := NewOutPort(k, OutPortConfig{})
				w := port.Declare("c", 0, 2*items)
				eject = &meteredPort{serve: port.Serve}
				in := NewInPort(k, uid.Nil, id, Chan(0), InPortConfig{Batch: batch, Window: window})
				gate = &in.link
				read := func() bool {
					_, err := in.Next()
					if err != nil && err != io.EOF {
						t.Fatal(err)
					}
					return err == nil
				}
				step = func() { // the source never holds more than the item asked for
					if err := w.Put(item); err != nil {
						t.Fatal(err)
					}
					read()
				}
				flood = func() {
					for i := 0; i < items; i++ {
						if err := w.Put(item); err != nil {
							t.Fatal(err)
						}
					}
					_ = w.Close()
					for read() {
					}
				}
			} else {
				port := NewWOInPort(k, WOInPortConfig{})
				r := port.Declare("c", 0, window*batch*2, 1)
				eject = &meteredPort{serve: port.Serve}
				p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: batch, Window: window})
				gate = &p.link
				var fed sync.WaitGroup
				fed.Add(1)
				go func() { // the producer keeps the sink full for as long as it is slow to read
					defer fed.Done()
					for i := 0; i < items; i++ {
						if err := p.Put(item); err != nil {
							t.Error(err)
							return
						}
					}
					if err := p.Close(); err != nil {
						t.Error(err)
					}
				}()
				read := func() bool {
					_, err := r.Next()
					if err != nil && err != io.EOF {
						t.Fatal(err)
					}
					return err == nil
				}
				step = func() { // the sink never has room for more than the batch just read
					for i := 0; i < batch; i++ {
						read()
					}
					eventually(t, "the sink is full again", func() bool {
						r.ch.c.mu.Lock()
						defer r.ch.c.mu.Unlock()
						return r.ch.c.buffered() == r.ch.c.capacity
					})
				}
				flood = func() {
					for read() {
					}
					fed.Wait()
				}
			}
			if err := k.CreateWithUID(id, eject, 0); err != nil {
				t.Fatal(err)
			}

			// Whatever the first Window did before a reply came back, a
			// peer that grants nothing brings the port to one exchange, the
			// other helpers waiting at the gate and counted there: the rest
			// of a pull window, the next in sequence of a push.
			for i := 0; i < 2*window; i++ {
				step()
			}
			stalled := int64(1)
			if face == "pull" {
				stalled = window - 1
			}
			eventually(t, "the exchanges in flight settle at one", func() bool {
				active, limit := gateState(gate)
				return active == 1 && limit == 1 && eject.now.Load() == 1 &&
					k.Metrics().WindowGateStalls.Value() >= stalled
			})
			eject.slow.Store(true)
			flood()
			if most := eject.most.Value(); most != window {
				t.Errorf("a peer granting Window x batch and more saw %d exchanges at once, want %d", most, window)
			}
			if hw := k.Metrics().WindowDepthHighWater.Value(); hw != window {
				t.Errorf("WindowDepthHighWater = %d, want %d", hw, window)
			}
		})
	}

	t.Run("pull/latency-bound", func(t *testing.T) {
		rate := func(window int) float64 {
			k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 2, CrossLatency: 100 * time.Microsecond}})
			defer k.Shutdown()
			port := NewOutPort(k, OutPortConfig{})
			w := port.Declare("c", 0, 0)
			src, err := k.Create(portEject{port.Serve}, 0)
			if err != nil {
				t.Fatal(err)
			}
			self, err := k.Create(portEject{func(*kernel.Invocation) bool { return false }}, 1)
			if err != nil {
				t.Fatal(err)
			}
			const n = 320
			go func() { // a source that keeps up: its buffer is full whenever asked
				for i := 0; i < n; i++ {
					if w.Put(item) != nil {
						return
					}
				}
				_ = w.Close()
			}()
			in := NewInPort(k, self, src, Chan(0), InPortConfig{Batch: 4, Window: window})
			start := time.Now()
			got, err := Drain(in)
			if err != nil || got != n {
				t.Fatalf("Window %d: drained %d items, %v; want %d", window, got, err, n)
			}
			return n / time.Since(start).Seconds()
		}
		var report string
		for attempt := 0; attempt < 3; attempt++ { // a loaded host can cost one attempt its overlap
			one, four := rate(1), rate(4)
			if four >= 3*one {
				return
			}
			report += fmt.Sprintf(" [Window 1: %.0f items/s, Window 4: %.0f]", one, four)
		}
		t.Errorf("Window 4 moved less than 3x Window 1 over a 100 µs wire in three attempts:%s", report)
	})
}

// reverser is a passive port's Eject that takes the order in which a
// window's data exchanges complete away from the network.  Each runs
// through the real port — a Transfer first, its reply then written but
// unread (the inline invoker reads it only when Serve returns), a
// Deliver after it is let go, so the sink meets it in that order — and
// the test holds the ones hold picks until it releases them.  A
// Transfer's index is its place in the source's stream of takes, a
// Deliver's its first item's batch; an empty Deliver (an End mark) is
// never held.
type reverser struct {
	port  func(*kernel.Invocation) bool
	batch int
	hold  func(idx int) bool

	order sync.Mutex // serialises the port's takes, so n counts in stream order
	n     int

	mu   sync.Mutex
	held map[int]chan struct{}
}

func (*reverser) EdenType() string { return "test-reverser" }
func (e *reverser) Serve(inv *kernel.Invocation) {
	switch inv.Op {
	case OpTransfer:
		e.order.Lock()
		e.port(inv)
		idx := e.n
		e.n++
		e.order.Unlock()
		e.wait(idx)
	case OpDeliver:
		if req, ok := inv.Payload.(*DeliverRequest); ok && len(req.Items) > 0 {
			var i int
			fmt.Sscanf(string(req.Items[0]), "item-%d", &i)
			e.wait(i / e.batch)
		}
		e.port(inv)
	default:
		e.port(inv)
	}
}

func (e *reverser) wait(idx int) {
	if !e.hold(idx) {
		return
	}
	c := make(chan struct{})
	e.mu.Lock()
	e.held[idx] = c
	e.mu.Unlock()
	<-c
}

// await waits until the exchanges from..to (inclusive) are all held.
func (e *reverser) await(t *testing.T, from, to int) {
	t.Helper()
	eventually(t, fmt.Sprintf("exchanges %d..%d are held", from, to), func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		for i := from; i <= to; i++ {
			if e.held[i] == nil {
				return false
			}
		}
		return true
	})
}

// release lets exchanges go, in the order given.
func (e *reverser) release(idxs ...int) {
	for _, i := range idxs {
		e.mu.Lock()
		close(e.held[i])
		delete(e.held, i)
		e.mu.Unlock()
	}
}

// down lists from..to in descending order.
func down(from, to int) []int {
	var idxs []int
	for i := to; i >= from; i-- {
		idxs = append(idxs, i)
	}
	return idxs
}

// TestReverseCompletionDual holds both faces of the window to one
// outcome when its exchanges complete in the worst order: a window's
// worth held at the peer and let go in reverse stream order, the batch
// that ends the stream overtaken by an empty End mark, and the port torn
// down while batches wait for their turn.  The consumer sees the stream
// in order, each item once (or, torn down, an in-order prefix and then
// the abort); the held-back path demonstrably ran — a pull reply counted
// on MergeReorderHighWater, a push delivery parked in the sink's record;
// and helpers, parked workers and slab views all go back.
func TestReverseCompletionDual(t *testing.T) {
	const window, batch, windows = 4, 2, 3
	for _, face := range []string{"pull", "push"} {
		for _, row := range []string{"reverse", "end-overtakes-final", "cancel-while-parked"} {
			t.Run(face+"/"+row, func(t *testing.T) {
				k := testKernel(t)
				slab := wire.NewSlab(k.Metrics(), 1<<14)
				view := func(i int) []byte { return fmt.Appendf(slab.Alloc(16)[:0], "item-%d", i) }
				goroutines := quiesce.Baseline(t)
				// first is the index of the first data exchange a window
				// carries: a windowed InPort's first Transfer runs alone,
				// inline, to learn the offset its helpers start from.
				first, groups := 0, windows
				if face == "pull" {
					first = 1
				}
				if row != "reverse" {
					groups = 1
				}
				n := batch * (first + window*groups)
				e := &reverser{batch: batch, held: make(map[int]chan struct{}), hold: func(idx int) bool {
					if row == "end-overtakes-final" {
						return idx == first+window-1
					}
					return idx >= first && idx < first+window*groups
				}}
				id := k.NewUID()
				var (
					reordered func() bool
					end, tear func()
					result    func() ([]string, error)
				)
				if face == "pull" {
					port := NewOutPort(k, OutPortConfig{})
					w := port.Declare("c", 0, n)
					e.port = port.Serve
					if err := k.CreateWithUID(id, e, 0); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						if err := w.PutOwned(view(i)); err != nil {
							t.Fatal(err)
						}
					}
					end = func() { _ = w.Close() }
					if row != "end-overtakes-final" {
						end()
					}
					in := NewInPort(k, uid.Nil, id, Chan(0), InPortConfig{Batch: batch, Window: window})
					type drained struct {
						got []string
						err error
					}
					c := make(chan drained, 1)
					go func() {
						got, err := drainReleasing(in)
						c <- drained{got, err}
					}()
					reordered = func() bool { return k.Metrics().MergeReorderHighWater.Value() >= 1 }
					tear = func() { in.Cancel("enough") }
					result = func() ([]string, error) { d := <-c; return d.got, d.err }
				} else {
					port := NewWOInPort(k, WOInPortConfig{})
					r := port.Declare("c", 0, n, 1)
					e.port = port.Serve
					if err := k.CreateWithUID(id, e, 0); err != nil {
						t.Fatal(err)
					}
					p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: batch, Window: window})
					closed := make(chan error, 1)
					go func() {
						for i := 0; i < n; i++ {
							if err := p.PutOwned(view(i)); err != nil {
								closed <- err
								return
							}
						}
						if row == "cancel-while-parked" {
							closed <- nil // the window stays open for the tear-down
							return
						}
						closed <- p.Close()
					}()
					reordered = func() bool {
						r.ch.c.mu.Lock()
						defer r.ch.c.mu.Unlock()
						return r.ch.c.waiters >= 1
					}
					tear = func() { _ = p.CloseWithError(errors.New("enough")) }
					result = func() ([]string, error) {
						if err := <-closed; err != nil {
							return nil, err
						}
						return drainReleasing(r)
					}
				}

				switch row {
				case "reverse":
					for g := 0; g < groups; g++ {
						lo, hi := first+g*window, first+g*window+window-1
						e.await(t, lo, hi)
						e.release(hi)
						eventually(t, "the window's last batch is held back", reordered)
						e.release(down(lo, hi-1)...)
					}
				case "end-overtakes-final":
					final := first + window - 1
					e.await(t, final, final)
					if face == "pull" {
						end() // the source ends behind the final batch: the next Transfer answers an empty End
					}
					eventually(t, "the empty End is held back behind the final batch", reordered)
					e.release(final)
				case "cancel-while-parked":
					lo, hi := first, first+window-1
					e.await(t, lo, hi)
					e.release(hi)
					eventually(t, "the window's last batch is held back", reordered)
					torn := make(chan struct{})
					go func() {
						defer close(torn)
						tear()
					}()
					e.release(down(lo, hi-1)...)
					<-torn
				}

				got, err := result()
				if row == "cancel-while-parked" {
					if !errors.Is(err, ErrAborted) {
						t.Errorf("the torn-down stream ended with %v, want ErrAborted", err)
					}
				} else if err != nil || len(got) != n {
					t.Errorf("the stream delivered %d items, then %v; want %d, then its end", len(got), err, n)
				}
				for i, s := range got {
					if want := fmt.Sprintf("item-%d", i); s != want {
						t.Fatalf("item %d = %q, want %q (stream %v)", i, s, want, got)
					}
				}
				goroutines()
				if n := slab.Close(); n != 0 || k.Metrics().SlabLeaked.Value() != 0 {
					t.Errorf("slab leak audit: %d stranded views (SlabLeaked=%d)", n, k.Metrics().SlabLeaked.Value())
				}
			})
		}
	}
}

// drainReleasing reads r to its end, releasing each item once copied.
func drainReleasing(r ItemReader) ([]string, error) {
	var got []string
	for {
		item, err := r.Next()
		if err == io.EOF {
			return got, nil
		}
		if err != nil {
			return got, err
		}
		got = append(got, string(item))
		wire.Release(item)
	}
}
