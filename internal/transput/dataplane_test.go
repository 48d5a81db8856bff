package transput

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
	"asymstream/internal/wire"
)

// waitSlabQuiet polls until every retained slab view has been released
// — the steady-state zero-copy invariant after a pipeline drains.
func waitSlabQuiet(t *testing.T, met *metrics.Set) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for met.SlabRetained.Value() != met.SlabReleased.Value() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("slab views still outstanding: retained=%d released=%d; goroutines:\n%s",
				met.SlabRetained.Value(), met.SlabReleased.Value(), buf)
		}
		time.Sleep(time.Millisecond)
	}
}

func auditItems(t *testing.T, got [][]byte, items int) {
	t.Helper()
	if len(got) != items {
		t.Fatalf("got %d items, want %d", len(got), items)
	}
	for i, item := range got {
		if want := fmt.Sprintf("%d", i); string(item) != want {
			t.Fatalf("item %d = %q, want %q", i, item, want)
		}
	}
}

// TestSlabLeakAudit is the data plane's accounting contract: across
// every discipline, shard count, window depth and batching mode, a
// drained pipeline releases every frame it carved (SlabRetained ==
// SlabReleased), Destroy's leak audit finds nothing (SlabLeaked == 0),
// and the sink output is byte-identical to the sequential stream.
func TestSlabLeakAudit(t *testing.T) {
	const items = 120
	opts := []Options{
		{Shards: 2},
		{Shards: 3, Window: 4, Batch: 4, Prefetch: 2},
		{Shards: 2, Window: 2, BatchMin: 1, BatchMax: 8},
		{Window: 2, Batch: 2, Fusion: FusionOn},
	}
	for _, d := range []Discipline{ReadOnly, WriteOnly, Buffered} {
		for oi, opt := range opts {
			t.Run(fmt.Sprintf("%v/opt%d", d, oi), func(t *testing.T) {
				k := testKernel(t)
				met := k.Metrics()
				fs := []Filter{
					{Name: "f0", Body: upcaseFilter},
					{Name: "f1", Body: upcaseFilter},
				}
				if opt.Fusion == FusionOn {
					// Mixed row: a sharded head keeps carving slab
					// frames while the fusable tail compiles into a
					// single Eject — the audit must balance across
					// both kinds of link in one pipeline.
					fs = []Filter{
						{Name: "f0", Body: upcaseFilter, Shards: 2},
						{Name: "f1", Body: upcaseFilter},
						{Name: "f2", Body: upcaseFilter},
					}
				}
				var got [][]byte
				p, err := BuildPipeline(k, d, numbersSource(items), fs, collectSink(&got), opt)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if err := p.Run(); err != nil {
					t.Fatalf("run: %v", err)
				}
				if met.SlabRetained.Value() == 0 {
					t.Fatal("sharded pipeline never carved a slab view")
				}
				waitSlabQuiet(t, met)
				p.Destroy()
				if n := met.SlabLeaked.Value(); n != 0 {
					t.Fatalf("SlabLeaked = %d after clean teardown", n)
				}
				auditItems(t, got, items)
			})
		}
	}
}

// TestSlabLeakAuditCrossNode repeats the audit with the filters placed
// on a second simulated node and payload encoding on: every frame then
// crosses the codec (the sender-side views die in netsim's round trip)
// and the accounting must still balance.
func TestSlabLeakAuditCrossNode(t *testing.T) {
	const items = 80
	k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 2, EncodePayloads: true}})
	t.Cleanup(k.Shutdown)
	met := k.Metrics()
	var got [][]byte
	opt := Options{
		Shards: 2, Window: 2, Batch: 2,
		Placement: func(role Role, _ int) netsim.NodeID {
			if role == RoleFilter {
				return 1
			}
			return 0
		},
	}
	fs := []Filter{{Name: "remote", Body: upcaseFilter}}
	p, err := BuildPipeline(k, ReadOnly, numbersSource(items), fs, collectSink(&got), opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := p.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if met.WireFramesEncoded.Value() == 0 {
		t.Fatal("cross-node pipeline never hit the wire codec")
	}
	waitSlabQuiet(t, met)
	p.Destroy()
	if n := met.SlabLeaked.Value(); n != 0 {
		t.Fatalf("SlabLeaked = %d after cross-node teardown", n)
	}
	auditItems(t, got, items)
}

// TestSlabLeakAuditOnAbort tears a sharded pipeline down mid-stream:
// the sink bails out after a few items, abort propagates upstream, and
// every frame stranded in channel backlogs, send windows and buffer
// Ejects must still be handed back before the slab audit runs.
func TestSlabLeakAuditOnAbort(t *testing.T) {
	for _, d := range []Discipline{ReadOnly, WriteOnly, Buffered} {
		t.Run(d.String(), func(t *testing.T) {
			k := testKernel(t)
			met := k.Metrics()
			bail := errors.New("sink bailed")
			sink := func(in ItemReader) error {
				for i := 0; i < 5; i++ {
					if _, err := in.Next(); err != nil {
						return err
					}
				}
				return bail
			}
			fs := []Filter{{Name: "f", Body: upcaseFilter, Shards: 3}}
			p, err := BuildPipeline(k, d, numbersSource(5000), fs, sink, Options{Window: 2, Batch: 2})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := p.Run(); !errors.Is(err, bail) {
				t.Fatalf("run error = %v, want sink's", err)
			}
			// Join every stage body before destroying: the abort is
			// still rippling upstream when Run returns.
			for _, fe := range p.stageErr {
				_ = fe()
			}
			// Buffer Ejects legitimately hold backlog until they are
			// deactivated, so Destroy (which releases those views, then
			// closes the slab) runs before the quiet check.
			p.Destroy()
			waitSlabQuiet(t, met)
			if n := met.SlabLeaked.Value(); n != 0 {
				t.Fatalf("SlabLeaked = %d after aborted teardown", n)
			}
		})
	}
}

// TestBulkItemsHeldAcrossSockets carries items of which one in four is
// 16 KiB over real sockets, source and sink on one node and the filter
// on the other, to a sink whose stormChecker keeps every item and
// appends to it.  The 16 KiB items reach the filter and the
// sink as sub-views of a read chunk (or inside one, as shard frames),
// and a body's Detach hands them over in place.  At teardown every kept
// item must be as its producer built it — no chunk a body took bytes
// from was carved again — every handle must be released, the in-place
// ones included (SlabRetained == SlabReleased), and none leaked.
func TestBulkItemsHeldAcrossSockets(t *testing.T) {
	const items = 400
	filterAway := func(role Role, _ int) netsim.NodeID {
		if role == RoleFilter {
			return 1
		}
		return 0
	}
	for _, row := range []struct {
		d      Discipline
		tr     Transport
		shards int
	}{
		{ReadOnly, TransportUnix, 1},
		{WriteOnly, TransportUnix, 1},
		{ReadOnly, TransportTCP, 1},
		{WriteOnly, TransportTCP, 1},
		{ReadOnly, TransportUnix, 2},
	} {
		t.Run(fmt.Sprintf("%v/%s/shards=%d", row.d, row.tr, row.shards), func(t *testing.T) {
			k, err := NewTransportKernel(kernel.Config{Net: netsim.Config{Nodes: 2}}, row.tr)
			if err != nil {
				t.Fatal(err)
			}
			defer k.Shutdown()
			met := k.Metrics()
			c := newStormChecker(t, 1, bulkItem)
			src := func(out ItemWriter) error { return stormPuts(1, items, bulkItem, out.Put) }
			sink := func(in ItemReader) error {
				for {
					item, err := in.Next()
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					c.check(item)
				}
			}
			fs := []Filter{{Name: "f", Body: passFilter, Shards: row.shards}}
			p, err := BuildPipeline(k, row.d, src, fs, sink,
				Options{Window: 4, Batch: 4, Transport: row.tr, Placement: filterAway})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if err := p.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}
			p.Destroy()
			k.Shutdown() // the links' frame readers hand back their buffers, and their slabs are audited
			if met.SlabRetained.Value() == 0 {
				t.Fatal("no slab view was carved")
			}
			waitSlabQuiet(t, met)
			if n := met.SlabLeaked.Value(); n != 0 {
				t.Fatalf("SlabLeaked = %d after teardown", n)
			}
			c.verify(items)
		})
	}
}

// TestPutOwnedTransfersOwnership pins the helper's two halves: a
// copying writer gets a copy and the view is released on the caller's
// behalf; an owning writer keeps the slice itself and meters the copy
// it skipped as WireBytesSaved.
func TestPutOwnedTransfersOwnership(t *testing.T) {
	met := &metrics.Set{}
	s := wire.NewSlab(met, 0)
	defer s.Close()

	// Fallback half: CollectWriter only has Put.
	v := s.Alloc(4)
	copy(v, "data")
	cw := &CollectWriter{}
	if err := PutOwned(cw, v); err != nil {
		t.Fatal(err)
	}
	if wire.IsView(v) {
		t.Fatal("fallback did not release the view")
	}
	if len(cw.Items) != 1 || string(cw.Items[0]) != "data" {
		t.Fatalf("collected %q", cw.Items)
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after fallback", s.Outstanding())
	}

	// Owned half: a stage's ChannelWriter takes the slice itself; the
	// view stays live until the consumer takes it off the channel.
	k := testKernel(t)
	kmet := k.Metrics()
	ks := wire.NewSlab(kmet, 0)
	defer ks.Close()
	st := NewROStage(k, ROStageConfig{Name: "owner"},
		func(_ []ItemReader, outs []ItemWriter) error {
			ov := ks.Alloc(5)
			copy(ov, "owned")
			return PutOwned(outs[0], ov)
		})
	stUID := k.NewUID()
	if err := k.CreateWithUID(stUID, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	in := NewInPort(k, uid.Nil, stUID, Chan(0), InPortConfig{})
	item, err := in.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(item) != "owned" {
		t.Fatalf("item = %q", item)
	}
	if kmet.WireBytesSaved.Value() < 5 {
		t.Fatalf("WireBytesSaved = %d, want >= 5", kmet.WireBytesSaved.Value())
	}
	// The reader owns what Next returns; hand the view back and the
	// arena must go quiet.
	wire.Release(item)
	waitSlabQuiet(t, kmet)
}

// TestAdaptiveBatchMatchesFixedOutput: turning the AIMD controller on
// must never change what the sink sees — only how many invocations
// carry it.  BatchMin=BatchMax=1 reproduces the paper's per-datum
// accounting exactly.
func TestAdaptiveBatchMatchesFixedOutput(t *testing.T) {
	const items = 300
	for _, d := range []Discipline{ReadOnly, WriteOnly, Buffered} {
		got := runPipeline(t, d, 2, items, Options{BatchMin: 1, BatchMax: 16, Window: 2})
		auditItems(t, got, items)
	}
}

// TestAdaptiveBatchReducesInvocations: with the controller free to grow
// the batch, the same stream moves in far fewer data invocations than
// the paper's one-datum-per-invocation accounting.
func TestAdaptiveBatchReducesInvocations(t *testing.T) {
	const items, n = 400, 1
	count := func(opt Options) (int64, int64) {
		k := testKernel(t)
		var fs []Filter
		for i := 0; i < n; i++ {
			fs = append(fs, Filter{Name: "f", Body: upcaseFilter})
		}
		var got [][]byte
		p, err := BuildPipeline(k, ReadOnly, numbersSource(items), fs, collectSink(&got), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		auditItems(t, got, items)
		snap := k.Metrics().Snapshot()
		return snap.Get("transfer_invocations") + snap.Get("deliver_invocations"),
			snap.Get("batch_size_hw")
	}
	fixed, _ := count(Options{})
	adaptive, hw := count(Options{BatchMin: 1, BatchMax: 32})
	if hw < 2 {
		t.Fatalf("batch_size_hw = %d: the controller never grew", hw)
	}
	if adaptive >= fixed/2 {
		t.Fatalf("adaptive used %d data invocations vs %d fixed — expected at least a 2x cut",
			adaptive, fixed)
	}
	// Pinned at 1, the controller must stay inside the paper's range
	// (n+1 invocations per datum, same as the fixed engine).
	pinned, _ := count(Options{BatchMin: 1, BatchMax: 1})
	per := float64(pinned) / items
	if per < float64(n+1) || per > float64(n+1)*1.2+1 {
		t.Fatalf("pinned controller: %.2f invocations/datum, want ≈%d", per, n+1)
	}
}
