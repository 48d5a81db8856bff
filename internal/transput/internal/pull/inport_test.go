package pull_test

import (
	"testing"

	"asymstream/internal/metrics"
	"asymstream/internal/uid"

	"asymstream/internal/transput"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/pull"
	"asymstream/internal/transput/internal/push"
)

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
		c, size := core.NewBatchController(tc.fixed, tc.min, tc.max, &set.BatchSizeHighWater)
		if c != nil || size != tc.want {
			t.Errorf("batch %d bounds [%d, %d]: controller %v, size %d; want none, %d", tc.fixed, tc.min, tc.max, c, size, tc.want)
		}
		if hw := set.BatchSizeHighWater.Value(); hw != int64(tc.hw) {
			t.Errorf("batch %d bounds [%d, %d]: BatchSizeHighWater = %d, want %d", tc.fixed, tc.min, tc.max, hw, tc.hw)
		}
	}
	if c, size := core.NewBatchController(7, 0, 3, nil); c == nil || size != 1 {
		t.Errorf("bounds [0, 3]: controller %v, size %d; want one starting at 1", c, size)
	}
	k := testKernel(t)
	in := pull.NewInPort(k, uid.Nil, k.NewUID(), core.Chan(0), pull.InPortConfig{Batch: 7, BatchMin: 4, BatchMax: 4})
	if in.Link().Ctrl != nil || in.Link().Batch != 4 || in.Req().Max != 4 {
		t.Errorf("pinned InPort: ctrl %v, batch %d, Max %d; want fixed batch 4", in.Link().Ctrl, in.Link().Batch, in.Req().Max)
	}
	pu := push.NewPusher(k, uid.Nil, k.NewUID(), core.Chan(0), push.PusherConfig{Batch: 7, BatchMin: 4, BatchMax: 4})
	if pu.Link().Ctrl != nil || pu.Link().Batch != 4 {
		t.Errorf("pinned Pusher: ctrl %v, batch %d; want fixed batch 4", pu.Link().Ctrl, pu.Link().Batch)
	}
	wo := push.NewPusher(k, uid.Nil, k.NewUID(), core.Chan(0), push.PusherConfig{Batch: 7, Window: 2, BatchMin: 4, BatchMax: 4})
	if wo.Link().Ctrl != nil || wo.Link().Size() != 4 {
		t.Errorf("pinned windowed Pusher: ctrl %v, size %d; want fixed batch 4", wo.Link().Ctrl, wo.Link().Size())
	}
}

// TestInPortPendingArray: a drained port appends its next batch into
// the array the last one left — at batch 1 that is what keeps a
// Transfer from allocating — but does not hold on to the array of a
// large batch.
func TestInPortPendingArray(t *testing.T) {
	const items = 3 * pull.PendingKeep
	k := testKernel(t)
	source := func() uid.UID {
		st := transput.NewROStage(k, transput.ROStageConfig{Name: "src", Anticipation: items},
			func(_ []itemio.ItemReader, outs []itemio.ItemWriter) error {
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
	next := func(in *pull.InPort) {
		t.Helper()
		if _, err := in.Next(); err != nil {
			t.Fatal(err)
		}
	}

	one := pull.NewInPort(k, uid.Nil, source(), core.Chan(0), pull.InPortConfig{Batch: 1})
	defer one.Cancel("test done")
	next(one)
	array := &one.Pending()[:1][0]
	for i := 0; i < 10; i++ {
		next(one)
		if len(one.Pending()) != 0 || one.Head() != 0 || &one.Pending()[:1][0] != array {
			t.Fatalf("Transfer %d: pending len %d head %d, array reused = %v; want the drained array rewound and reused",
				i, len(one.Pending()), one.Head(), &one.Pending()[:1][0] == array)
		}
	}

	big := pull.NewInPort(k, uid.Nil, source(), core.Chan(0), pull.InPortConfig{Batch: 2 * pull.PendingKeep})
	defer big.Cancel("test done")
	next(big)
	if got := len(big.Pending()) - big.Head(); got != 2*pull.PendingKeep-1 {
		t.Fatalf("after one Next, %d items pending, want %d", got, 2*pull.PendingKeep-1)
	}
	for i := 1; i < 2*pull.PendingKeep; i++ {
		next(big)
	}
	if cap(big.Pending()) != 0 || big.Head() != 0 {
		t.Fatalf("drained a %d-item batch: pending cap %d head %d, want the array dropped", 2*pull.PendingKeep, cap(big.Pending()), big.Head())
	}

	// Refilled before it drains (prefetch, window): the array must not
	// grow with the stream.
	ahead := pull.NewInPort(k, uid.Nil, k.NewUID(), core.Chan(0), pull.InPortConfig{Batch: 1})
	defer ahead.Cancel("test done")
	absorb := func(n int) {
		ahead.Mu().Lock()
		ahead.AbsorbLocked(make([][]byte, n))
		ahead.Mu().Unlock()
	}
	absorb(2)
	for i := 0; i < 1000; i++ {
		next(ahead)
		absorb(1)
	}
	if got := len(ahead.Pending()) - ahead.Head(); got != 2 || cap(ahead.Pending()) > 8 {
		t.Fatalf("never-drained port: %d items pending in an array of %d, want 2 in a small one", got, cap(ahead.Pending()))
	}
}
