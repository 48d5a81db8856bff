package transput

import (
	"errors"
	"fmt"
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

// TestBatchControllerAIMD pins the governor's dynamics: additive growth
// to the cap while exchanges come back full and fast, multiplicative
// backoff with best re-anchoring on a latency spike, and no growth on
// short exchanges.
func TestBatchControllerAIMD(t *testing.T) {
	var set metrics.Set
	c, start := newBatchController(1, 2, 8, &set.BatchSizeHighWater)
	if got := c.next(); got != 2 || start != 2 {
		t.Fatalf("initial size = %d, start = %d, want 2", got, start)
	}
	// Constant per-item latency, full batches: +1 per exchange to max.
	for i := 0; i < 20; i++ {
		sz := c.next()
		c.record(sz, sz, time.Duration(sz)*time.Millisecond)
	}
	if got := c.next(); got != 8 {
		t.Fatalf("grown size = %d, want 8 (the cap)", got)
	}
	// A 100x per-item latency spike halves the batch.
	c.record(8, 8, 800*time.Millisecond)
	if got := c.next(); got != 4 {
		t.Fatalf("post-spike size = %d, want 4", got)
	}
	// A short exchange (got < asked) never grows the batch.
	c.record(4, 1, time.Millisecond)
	if got := c.next(); got != 4 {
		t.Fatalf("post-short size = %d, want 4", got)
	}
	if hw := set.BatchSizeHighWater.Value(); hw != 8 {
		t.Fatalf("BatchSizeHighWater = %d, want 8", hw)
	}
}

// TestBatchControllerPinnedBoundsNeedNoController: bounds that leave
// the size no room — equal, or degenerate and clamped to equal — yield
// no controller, only the fixed size (still observed on the high-water
// mark); a pinned port then runs the fixed-batch engine and never reads
// the clock for it.  Without bounds the size is the configured batch.
func TestBatchControllerPinnedBoundsNeedNoController(t *testing.T) {
	for _, tc := range []struct{ fixed, min, max, want, hw int }{
		{7, -3, 1, 1, 1}, {7, 1, 1, 1, 1}, {7, 4, 4, 4, 4}, {7, 8, 2, 8, 8}, // pinned bounds override Batch
		{7, 0, 0, 7, 0}, {0, 5, 0, 1, 0}, {-2, 0, -1, 1, 0}, // no bounds: Batch, at least 1, unobserved
	} {
		var set metrics.Set
		c, size := newBatchController(tc.fixed, tc.min, tc.max, &set.BatchSizeHighWater)
		if c != nil || size != tc.want {
			t.Errorf("batch %d bounds [%d, %d]: controller %v, size %d; want none, %d", tc.fixed, tc.min, tc.max, c, size, tc.want)
		}
		if hw := set.BatchSizeHighWater.Value(); hw != int64(tc.hw) {
			t.Errorf("batch %d bounds [%d, %d]: BatchSizeHighWater = %d, want %d", tc.fixed, tc.min, tc.max, hw, tc.hw)
		}
	}
	if c, size := newBatchController(7, 0, 3, nil); c == nil || size != 1 {
		t.Errorf("bounds [0, 3]: controller %v, size %d; want one starting at 1", c, size)
	}
	k := testKernel(t)
	in := NewInPort(k, uid.Nil, k.NewUID(), Chan(0), InPortConfig{Batch: 7, BatchMin: 4, BatchMax: 4})
	if in.ctrl != nil || in.batch != 4 || in.req.Max != 4 {
		t.Errorf("pinned InPort: ctrl %v, batch %d, Max %d; want fixed batch 4", in.ctrl, in.batch, in.req.Max)
	}
	push := NewPusher(k, uid.Nil, k.NewUID(), Chan(0), PusherConfig{Batch: 7, BatchMin: 4, BatchMax: 4})
	if push.ctrl != nil || push.batch != 4 {
		t.Errorf("pinned Pusher: ctrl %v, batch %d; want fixed batch 4", push.ctrl, push.batch)
	}
	wo := NewPusher(k, uid.Nil, k.NewUID(), Chan(0), PusherConfig{Batch: 7, Window: 2, BatchMin: 4, BatchMax: 4})
	if wo.ctrl != nil || wo.size() != 4 {
		t.Errorf("pinned windowed Pusher: ctrl %v, size %d; want fixed batch 4", wo.ctrl, wo.size())
	}
}

// TestInPortPendingArray: a drained port appends its next batch into
// the array the last one left — at batch 1 that is what keeps a
// Transfer from allocating — but does not hold on to the array of a
// large batch.
func TestInPortPendingArray(t *testing.T) {
	const items = 3 * pendingKeep
	k := testKernel(t)
	source := func() uid.UID {
		st := NewROStage(k, ROStageConfig{Name: "src", Anticipation: items},
			func(_ []ItemReader, outs []ItemWriter) error {
				for i := 0; i < items; i++ {
					if err := outs[0].Put([]byte("x")); err != nil {
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
		if err := st.Err(); err != nil { // the whole stream is buffered
			t.Fatal(err)
		}
		return id
	}
	next := func(in *InPort) {
		t.Helper()
		if _, err := in.Next(); err != nil {
			t.Fatal(err)
		}
	}

	one := NewInPort(k, uid.Nil, source(), Chan(0), InPortConfig{Batch: 1})
	defer one.Cancel("test done")
	next(one)
	array := &one.pending[:1][0]
	for i := 0; i < 10; i++ {
		next(one)
		if len(one.pending) != 0 || one.head != 0 || &one.pending[:1][0] != array {
			t.Fatalf("Transfer %d: pending len %d head %d, array reused = %v; want the drained array rewound and reused",
				i, len(one.pending), one.head, &one.pending[:1][0] == array)
		}
	}

	big := NewInPort(k, uid.Nil, source(), Chan(0), InPortConfig{Batch: 2 * pendingKeep})
	defer big.Cancel("test done")
	next(big)
	if got := len(big.pending) - big.head; got != 2*pendingKeep-1 {
		t.Fatalf("after one Next, %d items pending, want %d", got, 2*pendingKeep-1)
	}
	for i := 1; i < 2*pendingKeep; i++ {
		next(big)
	}
	if cap(big.pending) != 0 || big.head != 0 {
		t.Fatalf("drained a %d-item batch: pending cap %d head %d, want the array dropped", 2*pendingKeep, cap(big.pending), big.head)
	}

	// Refilled before it drains (prefetch, window): the array must not
	// grow with the stream.
	ahead := NewInPort(k, uid.Nil, k.NewUID(), Chan(0), InPortConfig{Batch: 1})
	defer ahead.Cancel("test done")
	absorb := func(n int) {
		ahead.mu.Lock()
		ahead.absorbLocked(pulled{items: make([][]byte, n)})
		ahead.mu.Unlock()
	}
	absorb(2)
	for i := 0; i < 1000; i++ {
		next(ahead)
		absorb(1)
	}
	if got := len(ahead.pending) - ahead.head; got != 2 || cap(ahead.pending) > 8 {
		t.Fatalf("never-drained port: %d items pending in an array of %d, want 2 in a small one", got, cap(ahead.pending))
	}
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
