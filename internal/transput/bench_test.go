package transput

import (
	"asymstream/internal/quiesce"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// Port-level micro-benchmarks: the costs inside one stream hop.

func benchKernel(b *testing.B) *kernel.Kernel {
	b.Helper()
	k := kernel.New(kernel.Config{})
	b.Cleanup(k.Shutdown)
	return k
}

// hopSource registers and starts an endless source of 16-byte items
// behind a 1024-item anticipation buffer.
func hopSource(tb testing.TB, k *kernel.Kernel) (uid.UID, *ROStage) {
	tb.Helper()
	st := NewROStage(k, ROStageConfig{Name: "src", Anticipation: 1024},
		func(_ []ItemReader, outs []ItemWriter) error {
			for {
				if err := outs[0].Put([]byte("sixteen-byte-pay")); err != nil {
					return nil
				}
			}
		})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		tb.Fatal(err)
	}
	st.Start()
	return id, st
}

// hopSink registers and starts a sink that drains a 1024-item buffer.
func hopSink(tb testing.TB, k *kernel.Kernel) (uid.UID, *WOStage) {
	tb.Helper()
	st := NewWOStage(k, WOStageConfig{Name: "sink", Capacity: 1024},
		func(ins []ItemReader, _ []ItemWriter) error {
			_, err := Drain(ins[0])
			return err
		})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		tb.Fatal(err)
	}
	st.Start()
	return id, st
}

// BenchmarkTransferHop measures one pull over a warm channel: the
// demand-driven hop at two batch sizes, then the one engine's three
// regimes at batch 1 through the one constructor — Window 1 (the same
// inline exchange as the batch=1 row: the default *is* Window 1), one
// read-ahead helper, and a window of four.
func BenchmarkTransferHop(b *testing.B) {
	for _, row := range []struct {
		name string
		cfg  InPortConfig
	}{
		{"batch=1", InPortConfig{Batch: 1}},
		{"batch=16", InPortConfig{Batch: 16}},
		{"window=1", InPortConfig{Batch: 1, Window: 1}},
		{"prefetch=1", InPortConfig{Batch: 1, Prefetch: 1}},
		{"window=4", InPortConfig{Batch: 1, Window: 4}},
	} {
		b.Run(row.name, func(b *testing.B) {
			k := benchKernel(b)
			id, _ := hopSource(b, k)
			in := NewInPort(k, uid.Nil, id, Chan(0), row.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := in.Next(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			in.Cancel("bench done")
		})
	}
}

// BenchmarkDeliverHop measures one push into a draining sink: the
// stop-and-wait hop at two batch sizes, then Window 1 spelled out (the
// same inline exchange) and a send window of four, through the one
// constructor.
func BenchmarkDeliverHop(b *testing.B) {
	for _, row := range []struct {
		name string
		cfg  PusherConfig
	}{
		{"batch=1", PusherConfig{Batch: 1}},
		{"batch=16", PusherConfig{Batch: 16}},
		{"window=1", PusherConfig{Batch: 1, Window: 1}},
		{"window=4", PusherConfig{Batch: 1, Window: 4}},
	} {
		b.Run(row.name, func(b *testing.B) {
			k := benchKernel(b)
			id, _ := hopSink(b, k)
			p := NewPusher(k, uid.Nil, id, Chan(0), row.cfg)
			item := []byte("sixteen-byte-pay")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Put(item); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			_ = p.Close()
		})
	}
}

// BenchmarkChannelWriterPut measures the intra-Eject write path alone
// (no invocation): the §4 "standard IO module" buffer operation.  A
// fresh buffer is cycled in whenever the current one fills (nothing
// consumes during the measurement), amortised over 2^20 puts.
func BenchmarkChannelWriterPut(b *testing.B) {
	const chunk = 1 << 20
	item := []byte("sixteen-byte-pay")
	b.ResetTimer()
	for done := 0; done < b.N; {
		port := NewOutPort(nil, OutPortConfig{})
		w := port.Declare("Output", 0, chunk)
		n := b.N - done
		if n > chunk {
			n = chunk
		}
		for j := 0; j < n; j++ {
			if err := w.Put(item); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
}

// Allocation-regression ceilings for the warm stream hops.  The fast
// path work (pooled invocations and calls, reused request records, the
// ring mailbox) holds a batch-1 hop to a handful of allocations; these
// tests fail if a change quietly reintroduces per-item garbage.
// Ceilings sit one above the measured steady state to absorb
// sync.Pool and buffer-growth jitter.

const allocWarmup = 512

// TestTransferHopAllocs pins the warm demand-driven pull at nothing.
// The hop reuses its request, reply record, items slice and the port's
// pending array, and the source's item copy at Put — it runs during the
// measurement, the hop being served on this goroutine and never parking
// it — goes into its channel's arena block with a hundred others.
func TestTransferHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip(raceParksPuts)
	}
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	id, st := hopSource(t, k)
	in := NewInPort(k, uid.Nil, id, Chan(0), InPortConfig{Batch: 1})
	defer in.Cancel("alloc test done")
	if n := warmTransferHopAllocs(t, st, in); n > transferHopCeiling {
		t.Errorf("warm Transfer hop: %.1f allocs/op, ceiling %d", n, transferHopCeiling)
	}
}

const transferHopCeiling = 1 // 0 measured

// raceParksPuts is why the pull pins skip under -race: there a pooled
// record's Put parks its goroutine while the pool's own goroutine resets
// the record, which lets the source run inside the measured window, and
// the source's Puts allocate.
const raceParksPuts = "a pooled record's Put parks its caller under the race detector"

// warmTransferHopAllocs warms the pull up and measures one hop.
func warmTransferHopAllocs(t *testing.T, st *ROStage, in *InPort) float64 {
	t.Helper()
	hop := func() {
		if _, err := in.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < allocWarmup; i++ {
		hop()
	}
	// AllocsPerRun counts process-wide mallocs.  A source starved of CPU
	// during the warm-up would still be filling its buffer, one malloc per
	// item, while the hops are measured; wait until it has parked on the
	// full buffer, after which each hop wakes it for exactly one Put.
	eventually(t, "the source has filled its anticipation buffer", func() bool { return st.Out().Buffered() >= 1024 })
	return testing.AllocsPerRun(200, hop)
}

// TestDeliverHopAllocs pins the warm push at nothing: the pusher's copy
// of the item at Put goes into its arena block, and the hop reuses its
// request and pooled reply.
func TestDeliverHopAllocs(t *testing.T) {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	id, _ := hopSink(t, k)
	p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: 1})
	defer p.Close()
	if n := warmDeliverHopAllocs(t, p); n > deliverHopCeiling {
		t.Errorf("warm Deliver hop: %.1f allocs/op, ceiling %d", n, deliverHopCeiling)
	}
}

const deliverHopCeiling = 1 // 0 measured; 1 under -race, where sync.Pool drops Puts

var raceEnabled bool // set by race_test.go

// TestBatchOneDatumAllocFree pins the paper's chain at batch 1 — a
// source that Puts (copies) every datum, four identity filters and a
// sink, n+1 invocations a datum — at no heap allocation a datum, under
// both asymmetric disciplines, in one process and with every link over
// a Unix socket.  A run's fixed costs — the build, the pools two
// collections emptied, each arena's first block — are the same for N
// items as for 2N, so the difference between the two runs is what N
// data cost.  The 0.05 a datum it may reach is the arena blocks — one
// per 256 of these 16-byte items at each copying point, of which the
// socket chain has six (the source's Put and five frame readers), 0.023
// a datum — and whatever a pool refills after a collection.
func TestBatchOneDatumAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement wants a quiet heap")
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const n = 1000
	alternate := func(role Role, i int) netsim.NodeID {
		switch role {
		case RoleFilter:
			return netsim.NodeID((i + 1) % 2)
		case RoleSink:
			return 1
		}
		return 0
	}
	for _, d := range []Discipline{ReadOnly, WriteOnly} {
		for _, tr := range []Transport{TransportNetsim, TransportUnix} {
			t.Run(fmt.Sprintf("%v/%s", d, tr), func(t *testing.T) {
				k, err := NewTransportKernel(kernel.Config{Net: netsim.Config{Nodes: 2}}, tr)
				if err != nil {
					t.Fatal(err)
				}
				defer k.Shutdown()
				opt := Options{Batch: 1, Transport: tr}
				if tr == TransportUnix {
					opt.Placement = alternate
				}
				fs := make([]Filter, 4)
				for i := range fs {
					fs[i] = Filter{Name: fmt.Sprintf("f%d", i), Body: passFilter}
				}
				run := func(items int) uint64 {
					src := func(out ItemWriter) error {
						buf := make([]byte, 16)
						for i := 0; i < items; i++ {
							binary.BigEndian.PutUint64(buf, uint64(i))
							if err := out.Put(buf); err != nil {
								return err
							}
						}
						return nil
					}
					sank := 0
					sink := func(in ItemReader) error {
						for {
							_, err := in.Next()
							if err == io.EOF {
								return nil
							}
							if err != nil {
								return err
							}
							sank++
						}
					}
					before := settledMallocs()
					p, err := BuildPipeline(k, d, src, fs, sink, opt)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.Run(); err != nil {
						t.Fatal(err)
					}
					after := settledMallocs()
					p.Destroy()
					if sank != items {
						t.Fatalf("sank %d items, want %d", sank, items)
					}
					return after - before
				}
				run(n / 4)
				one, two := run(n), run(2*n)
				per := (float64(two) - float64(one)) / n
				t.Logf("%d allocations for %d data, %d for %d: %.3f a datum", one, n, two, 2*n, per)
				if per > 0.05 {
					t.Errorf("%.3f allocations a datum at batch 1, want <= 0.05", per)
				}
			})
		}
	}
}

// warmDeliverHopAllocs warms the push up and measures one hop.
func warmDeliverHopAllocs(t *testing.T, p *Pusher) float64 {
	t.Helper()
	item := []byte("sixteen-byte-pay")
	hop := func() {
		if err := p.Put(item); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < allocWarmup; i++ {
		hop()
	}
	return testing.AllocsPerRun(200, hop)
}

// TestWindowedTransferHopAllocs pins the windowed pull path: a reply
// that waits for its turn must ride on the same pooled replies and
// reused request records as the stop-and-wait hop, and the turn itself
// allocates nothing.
func TestWindowedTransferHopAllocs(t *testing.T) {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	// AllocsPerRun counts process-wide mallocs, so the producer must be
	// quiet while it runs: the source fills an anticipation buffer holding
	// every item the test will pull (plus what the window reads ahead)
	// and its body returns before the first hop.
	const total = allocWarmup + 1 + 200 + 64
	st := NewROStage(k, ROStageConfig{Name: "src", Anticipation: total},
		func(_ []ItemReader, outs []ItemWriter) error {
			for i := 0; i < total; i++ {
				if err := outs[0].Put([]byte("sixteen-byte-pay")); err != nil {
					return err
				}
			}
			return nil
		})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	if err := st.Err(); err != nil { // waits for the body to finish
		t.Fatal(err)
	}
	in := NewInPort(k, uid.Nil, id, Chan(0), InPortConfig{Batch: 1, Window: 4})
	defer in.Cancel("alloc test done")
	hop := func() {
		if _, err := in.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < allocWarmup; i++ {
		hop()
	}
	const ceiling = 5 // 0 measured, up to 4 under -race (sync.Pool drops Puts there)
	if n := testing.AllocsPerRun(200, hop); n > ceiling {
		t.Errorf("warm windowed Transfer hop: %.1f allocs/op, ceiling %d", n, ceiling)
	}
}

// TestWindowedDeliverHopAllocs pins the windowed push path: the send
// window's job/freelist recycling must keep a warm hop at the
// stop-and-wait ceiling; the turn at the port and the sink's lane
// allocate nothing.
func TestWindowedDeliverHopAllocs(t *testing.T) {
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	id, _ := hopSink(t, k)
	w := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: 1, Window: 4})
	defer w.Close()
	const ceiling = 5
	if n := warmDeliverHopAllocs(t, w); n > ceiling {
		t.Errorf("warm windowed Deliver hop: %.1f allocs/op, ceiling %d", n, ceiling)
	}
}

// serviceFilter simulates a CPU-bound per-item body by sleeping a
// fixed service time per item.  On the single-core CI box a busy loop
// cannot show parallel speedup, but sleeping shards overlap exactly
// like compute shards on real cores — the engine's concurrency, not
// the host's arithmetic, is what is under test.
func serviceFilter(service time.Duration) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			time.Sleep(service)
			if err := outs[0].Put(item); err != nil {
				return err
			}
		}
	}
}

// BenchmarkPipelineThroughput measures the parallel engine end to end.
//
// The shards axis runs a 100µs-per-item filter at Shards 1 vs 4: the
// sharded run should approach 4x items/sec.  The window axis runs a
// pass-through pipeline across two simulated nodes with 100µs wire
// latency at Window 1 vs 4: stop-and-wait pays a full round trip per
// batch, the window overlaps them.
func BenchmarkPipelineThroughput(b *testing.B) {
	run := func(b *testing.B, net netsim.Config, placement func(Role, int) netsim.NodeID, fs []Filter, opt Options) {
		k := kernel.New(kernel.Config{Net: net})
		defer k.Shutdown()
		opt.Placement = placement
		var n int
		sink := func(in ItemReader) error {
			for {
				_, err := in.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				n++
			}
		}
		p, err := BuildPipeline(k, ReadOnly, numbersSource(b.N), fs, sink, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := p.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n != b.N {
			b.Fatalf("sink saw %d items, want %d", n, b.N)
		}
	}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("service100us/shards=%d", shards), func(b *testing.B) {
			fs := []Filter{{Name: "work", Body: serviceFilter(100 * time.Microsecond)}}
			run(b, netsim.Config{Nodes: 1}, nil, fs, Options{Shards: shards, Batch: 4})
		})
	}
	for _, window := range []int{1, 4} {
		b.Run(fmt.Sprintf("wire100us/window=%d", window), func(b *testing.B) {
			cross := func(role Role, _ int) netsim.NodeID {
				if role == RoleSink {
					return 1
				}
				return 0
			}
			run(b, netsim.Config{Nodes: 2, CrossLatency: 100 * time.Microsecond}, cross,
				nil, Options{Window: window, Batch: 4})
		})
	}
}

// BenchmarkBuildPipeline measures the builder alone: wire a pipeline of
// n filters and destroy it, never started.  The end-to-end benchmark's
// setup_s is kernel and socket setup and cannot resolve a change to the
// build walk; this row can.
func BenchmarkBuildPipeline(b *testing.B) {
	sink := func(in ItemReader) error { _, err := Drain(in); return err }
	for _, d := range disciplines {
		for _, n := range []int{2, 8} {
			for _, shards := range []int{1, 4} {
				b.Run(fmt.Sprintf("%v/n=%d/shards=%d", d, n, shards), func(b *testing.B) {
					k := benchKernel(b)
					fs := make([]Filter, n)
					for i := range fs {
						fs[i] = Filter{Name: fmt.Sprintf("f%d", i), Body: passFilter}
					}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						p, err := BuildPipeline(k, d, numbersSource(0), fs, sink, Options{Shards: shards})
						if err != nil {
							b.Fatal(err)
						}
						p.Destroy()
					}
				})
			}
		}
	}
}

// BenchmarkRecordCodec measures §6 framing alone.
func BenchmarkRecordCodec(b *testing.B) {
	type rec struct {
		Seq  int
		Name string
	}
	var cw CollectWriter
	w := NewRecordWriter[rec](&cw)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cw.Items = cw.Items[:0]
			cw.Items = nil
			if err := w.Write(rec{Seq: i, Name: "bench"}); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Prepare one encoded item for decode.
	cw.Items = nil
	_ = w.Write(rec{Seq: 1, Name: "bench"})
	encoded := cw.Items[0]
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := NewRecordReader[rec](NewSliceReader([][]byte{encoded}))
			if _, err := r.Read(); err != nil && err != io.EOF {
				b.Fatal(err)
			}
		}
	})
}

// TestWindowOneRunsOnTheCaller pins DESIGN §7.2's sentence "at Window 1
// both ports are exactly the sequential implementations": a port built
// with Window 1 spelled out (and no Prefetch) is the stop-and-wait port.
// Constructing it and running a thousand hops starts no goroutine —
// every exchange runs on the port's own caller — at the stop-and-wait
// allocation ceilings, and a push carries no Writer, so the sink never
// attaches a sequence gate.
func TestWindowOneRunsOnTheCaller(t *testing.T) {
	t.Run("pull", func(t *testing.T) {
		k := kernel.New(kernel.Config{})
		defer k.Shutdown()
		id, st := hopSource(t, k)
		eventually(t, "the source is running", func() bool { return st.Out().Buffered() > 0 })
		goroutines := quiesce.Baseline(t)
		in := NewInPort(k, uid.Nil, id, Chan(0), InPortConfig{Batch: 1, Window: 1})
		defer in.Cancel("test done")
		n := warmTransferHopAllocs(t, st, in)
		for i := 0; i < 1000-allocWarmup-201; i++ {
			if _, err := in.Next(); err != nil {
				t.Fatal(err)
			}
		}
		goroutines()
		if n > transferHopCeiling && !raceEnabled { // see raceParksPuts
			t.Errorf("warm Window-1 Transfer hop: %.1f allocs/op, ceiling %d", n, transferHopCeiling)
		}
		if got := in.TransfersIssued(); got != 1000 {
			t.Errorf("1000 hops at batch 1 issued %d Transfers", got)
		}
	})
	t.Run("push", func(t *testing.T) {
		k := kernel.New(kernel.Config{})
		defer k.Shutdown()
		id, st := hopSink(t, k)
		goroutines := quiesce.Baseline(t)
		p := NewPusher(k, uid.Nil, id, Chan(0), PusherConfig{Batch: 1, Window: 1})
		defer p.Close()
		n := warmDeliverHopAllocs(t, p)
		for i := 0; i < 1000-allocWarmup-201; i++ {
			if err := p.Put([]byte("sixteen-byte-pay")); err != nil {
				t.Fatal(err)
			}
		}
		goroutines()
		if n > deliverHopCeiling {
			t.Errorf("warm Window-1 Deliver hop: %.1f allocs/op, ceiling %d", n, deliverHopCeiling)
		}
		if got := p.DeliversIssued(); got != 1000 {
			t.Errorf("1000 hops at batch 1 issued %d Delivers", got)
		}
		ch := st.Reader(0).Ref().C
		ch.Mu.Lock()
		gate := ch.Seq
		ch.Mu.Unlock()
		if gate != nil {
			t.Error("the sink attached a sequence gate for a Window-1 writer")
		}
	})
}
