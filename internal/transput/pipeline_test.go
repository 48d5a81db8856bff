package transput

import (
	"asymstream/internal/uid"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
)

// testKernel returns a single-node kernel suitable for unit tests.
func testKernel(t testing.TB) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{})
	t.Cleanup(k.Shutdown)
	return k
}

// eventually polls until cond holds, failing the test after five
// seconds: for state another goroutine reaches on its own schedule.
func eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// numbersSource emits "0".."n-1" as items.
func numbersSource(n int) SourceFunc {
	return func(out ItemWriter) error {
		for i := 0; i < n; i++ {
			if err := out.Put([]byte(fmt.Sprintf("%d", i))); err != nil {
				return err
			}
		}
		return nil
	}
}

// upcaseFilter is a trivial pure filter body.
func upcaseFilter(ins []ItemReader, outs []ItemWriter) error {
	for {
		item, err := ins[0].Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := outs[0].Put(bytes.ToUpper(item)); err != nil {
			return err
		}
	}
}

// collectSink gathers items and signals how many arrived.
func collectSink(got *[][]byte) SinkFunc {
	return func(in ItemReader) error {
		for {
			item, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			*got = append(*got, item)
		}
	}
}

func runPipeline(t *testing.T, d Discipline, n, items int, opt Options) [][]byte {
	t.Helper()
	k := testKernel(t)
	var fs []Filter
	for i := 0; i < n; i++ {
		fs = append(fs, Filter{Name: fmt.Sprintf("f%d", i), Body: upcaseFilter})
	}
	var got [][]byte
	p, err := BuildPipeline(k, d, numbersSource(items), fs, collectSink(&got), opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- p.Run() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("pipeline %v with %d filters timed out", d, n)
	}
	return got
}

func TestPipelineDisciplinesPreserveData(t *testing.T) {
	for _, d := range []Discipline{ReadOnly, WriteOnly, Buffered} {
		for _, n := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%v/n=%d", d, n), func(t *testing.T) {
				got := runPipeline(t, d, n, 50, Options{})
				if len(got) != 50 {
					t.Fatalf("got %d items, want 50", len(got))
				}
				for i, item := range got {
					want := fmt.Sprintf("%d", i)
					if string(item) != want {
						t.Fatalf("item %d = %q, want %q", i, item, want)
					}
				}
			})
		}
	}
}

func TestPipelineEjectCounts(t *testing.T) {
	// Figure 2 vs Figure 1: n+2 Ejects asymmetric (either direction),
	// 2n+3 buffered.
	for _, n := range []int{1, 4} {
		k := testKernel(t)
		var fs []Filter
		for i := 0; i < n; i++ {
			fs = append(fs, Filter{Name: "f", Body: upcaseFilter})
		}
		for d, want := range map[Discipline]int{ReadOnly: n + 2, WriteOnly: n + 2, Buffered: 2*n + 3} {
			var got [][]byte
			p, err := BuildPipeline(k, d, numbersSource(1), fs, collectSink(&got), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if p.Ejects() != want {
				t.Errorf("%v n=%d: %d Ejects, want %d", d, n, p.Ejects(), want)
			}
		}
	}
}

// TestFailedBuildLeavesNothingBound: a build that fails part-way — the
// kernel refuses an element or a buffer placed on a node it does not
// have — returns that error with every Eject it had already bound
// destroyed.  The caller gets no Pipeline, so nothing else could.
func TestFailedBuildLeavesNothingBound(t *testing.T) {
	const bad = netsim.NodeID(7)
	on := func(role Role, index int) func(Role, int) netsim.NodeID {
		return func(r Role, i int) netsim.NodeID {
			if r == role && i == index {
				return bad
			}
			return 0
		}
	}
	// source | f0 | f1 (two shards) | sink.  Read-only and buffered build
	// source first and sink last, write-only the reverse; the buffered
	// links hold buffers 0 | 1 2 | 3 4.
	cases := []struct {
		name      string
		placement func(Role, int) netsim.NodeID
		only      []Discipline
	}{
		{"source", on(RoleSource, 0), disciplines},
		{"sink", on(RoleSink, 0), disciplines},
		{"sequential filter", on(RoleFilter, 0), disciplines},
		{"sharded row", on(RoleFilter, 1), disciplines},
		{"second buffer of a wide link", on(RoleBuffer, 2), []Discipline{Buffered}},
		{"last buffer", on(RoleBuffer, 4), []Discipline{Buffered}},
	}
	for _, tc := range cases {
		for _, d := range tc.only {
			t.Run(fmt.Sprintf("%v/%s", d, tc.name), func(t *testing.T) {
				k := kernel.New(kernel.Config{})
				fs := []Filter{{Name: "f0", Body: upcaseFilter}, {Name: "f1", Body: upcaseFilter, Shards: 2}}
				var got [][]byte
				before := k.ActiveCount()
				p, err := BuildPipeline(k, d, numbersSource(1), fs, collectSink(&got), Options{Placement: tc.placement})
				if err == nil || p != nil || !strings.Contains(err.Error(), "create on node 7") {
					t.Fatalf("BuildPipeline = %v, %v; want the kernel's placement error", p, err)
				}
				if n := k.ActiveCount(); n != before {
					t.Errorf("%d Ejects left bound by the failed build", n-before)
				}
				k.Shutdown()
				if leaked := k.Metrics().SlabLeaked.Value(); leaked != 0 {
					t.Errorf("SlabLeaked = %d", leaked)
				}
			})
		}
	}
	// The graphs the walk refuses, refused before anything is bound, and a
	// graph the kernel refuses part-way: its third node is on node 7.
	node := func(name string, shards int) Filter { return Filter{Name: name, Body: upcaseFilter, Shards: shards} }
	graphs := []struct {
		name string
		g    Graph
		want error
	}{
		{"cycle", Graph{[]Filter{node("a", 0), node("b", 0), node("c", 0), node("d", 0)}, []Edge{{0, 1}, {1, 2}, {2, 1}, {2, 3}}}, ErrCycle},
		{"self loop", Graph{[]Filter{node("a", 0), node("b", 0), node("c", 0)}, []Edge{{0, 1}, {1, 1}, {1, 2}}}, ErrCycle},
		{"sharded fan node", Graph{[]Filter{node("a", 0), node("f", 2), node("s", 0), node("t", 0)}, []Edge{{0, 1}, {1, 2}, {1, 3}}}, ErrShardedFan},
		{"fan node beside a row", Graph{[]Filter{node("a", 0), node("f", 2), node("s", 0), node("t", 0)}, []Edge{{0, 1}, {0, 3}, {1, 2}}}, ErrShardedFan},
		{"unequal rows", Graph{[]Filter{node("a", 0), node("f", 2), node("g", 3), node("s", 0)}, []Edge{{0, 1}, {1, 2}, {2, 3}}}, ErrUnequalShards},
		{"unlinked node", Graph{[]Filter{node("a", 0), node("b", 0), node("c", 0)}, []Edge{{0, 1}}}, ErrUnlinked},
		{"no nodes", Graph{}, ErrUnlinked},
		{"edge to nowhere", Graph{[]Filter{node("a", 0), node("b", 0)}, []Edge{{0, 2}}}, ErrBadEdge},
		{"placed on a missing node", Graph{[]Filter{node("a", 0), node("b", 0), node("c", 0)}, []Edge{{0, 1}, {0, 2}}}, nil},
	}
	for _, tc := range graphs {
		for _, d := range disciplines {
			t.Run(fmt.Sprintf("%v/graph %s", d, tc.name), func(t *testing.T) {
				k := kernel.New(kernel.Config{})
				defer k.Shutdown()
				before := k.ActiveCount()
				p, err := BuildGraph(k, d, tc.g, Options{Placement: on(RoleSink, 2)})
				var ge *GraphError
				switch {
				case tc.want != nil && (!errors.Is(err, tc.want) || !errors.As(err, &ge) || p != nil):
					t.Fatalf("BuildGraph = %v, %v; want a *GraphError for %v", p, err, tc.want)
				case tc.want == nil && (err == nil || p != nil || !strings.Contains(err.Error(), "create on node 7")):
					t.Fatalf("BuildGraph = %v, %v; want the kernel's placement error", p, err)
				}
				if n := k.ActiveCount(); n != before {
					t.Errorf("%d Ejects left bound by the failed build", n-before)
				}
			})
		}
	}
}

func TestInvocationCountsPerDatum(t *testing.T) {
	// The paper's analytical claim: n+1 invocations per datum in the
	// read-only discipline, 2n+2 in the buffered one (batch 1).
	const items = 200
	for _, n := range []int{1, 2, 4} {
		for _, tc := range []struct {
			d      Discipline
			perDat float64
		}{
			{ReadOnly, float64(n + 1)},
			{WriteOnly, float64(n + 1)},
			{Buffered, float64(2*n + 2)},
		} {
			k := testKernel(t)
			var fs []Filter
			for i := 0; i < n; i++ {
				fs = append(fs, Filter{Name: "f", Body: upcaseFilter})
			}
			var got [][]byte
			before := k.Metrics().Snapshot()
			p, err := BuildPipeline(k, tc.d, numbersSource(items), fs, collectSink(&got), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			diff := kdiff(k, before)
			data := diff.Get("transfer_invocations") + diff.Get("deliver_invocations")
			per := float64(data) / items
			// Allow end-of-stream slack: one extra invocation per link.
			if per < tc.perDat || per > tc.perDat*1.2+1 {
				t.Errorf("%v n=%d: %.2f data invocations/datum, want ≈%.0f", tc.d, n, per, tc.perDat)
			}
			if len(got) != items {
				t.Fatalf("%v n=%d: got %d items", tc.d, n, len(got))
			}
		}
	}
}

func kdiff(k *kernel.Kernel, before interface{ Get(string) int64 }) snapshotGetter {
	after := k.Metrics().Snapshot()
	return snapshotGetter{before: before, after: after}
}

type snapshotGetter struct {
	before interface{ Get(string) int64 }
	after  interface{ Get(string) int64 }
}

func (s snapshotGetter) Get(name string) int64 {
	return s.after.Get(name) - s.before.Get(name)
}

// registerItems creates and registers a read-only stage serving the given
// items on its primary channel, returning its UID and stage.
func registerItems(t *testing.T, k *kernel.Kernel, items [][]byte, cfg ROStageConfig) (uid.UID, *Stage) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-source"
	}
	st := NewROStage(k, cfg, func(_ []ItemReader, outs []ItemWriter) error {
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

func drainAll(t *testing.T, in *InPort) [][]byte {
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

// registerWOSink creates and registers a write-only stage that collects its
// input items into *got (guarded by mu).
func registerWOSink(t *testing.T, k *kernel.Kernel, got *[][]byte, mu *sync.Mutex, cfg WOStageConfig) (uid.UID, *Stage) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-sink"
	}
	st := NewWOStage(k, cfg, func(ins []ItemReader, _ []ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			mu.Lock()
			*got = append(*got, item)
			mu.Unlock()
		}
	})
	id := k.NewUID()
	if err := k.CreateWithUID(id, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	return id, st
}

// inputCredits is the credit grant an empty Deliver gets from each input
// channel stage id advertises: on an idle channel, its declared capacity.
func inputCredits(t *testing.T, k *kernel.Kernel, id uid.UID) (credits []int) {
	t.Helper()
	raw, err := k.Invoke(uid.Nil, id, OpChannels, &ChannelsRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ad := range raw.(*ChannelsReply).Channels {
		if ad.Dir != "in" {
			continue
		}
		raw, err := k.Invoke(uid.Nil, id, OpDeliver, &DeliverRequest{Channel: ad.ID})
		if err != nil {
			t.Fatal(err)
		}
		credits = append(credits, raw.(*DeliverReply).Credits)
	}
	return credits
}

// TestWindowedInputCapacity is the walk's landing rule for a push
// window: a write-only input fed by windowed Pushers holds every
// writer's window of its largest batches, where a pull window lands in
// the InPort's read-ahead queue.  Window 1 and an explicit Anticipation
// keep what they declared before, and so does the read-only face's
// OutPort.  Each graph is writers sources into a filter, then a sink.
func TestWindowedInputCapacity(t *testing.T) {
	for _, row := range []struct {
		name         string
		opt          Options
		writers      int
		filter, sink int
	}{
		{"window4/batchmax64", Options{Window: 4, BatchMin: 1, BatchMax: 64}, 1, 256, 256},
		{"window4/batch32", Options{Window: 4, Batch: 32}, 1, 128, 128},
		{"window4/batch32/fan-in3", Options{Window: 4, Batch: 32}, 3, 384, 128},
		{"window1/batchmax64", Options{Window: 1, BatchMin: 1, BatchMax: 64}, 1, DefaultCapacity, DefaultCapacity},
		{"window4/anticipation16", Options{Window: 4, BatchMax: 64, Anticipation: 16}, 1, 16, 16},
	} {
		t.Run(row.name, func(t *testing.T) {
			k := testKernel(t)
			var g Graph
			for i := 0; i < row.writers; i++ {
				g.Nodes = append(g.Nodes, Filter{Name: fmt.Sprintf("src%d", i), Body: sourceAsBody(numbersSource(1))})
				g.Edges = append(g.Edges, Edge{i, row.writers})
			}
			var got [][]byte
			g.Nodes = append(g.Nodes, Filter{Name: "f", Body: passFilter}, Filter{Name: "sink", Body: sinkAsBody(collectSink(&got))})
			g.Edges = append(g.Edges, Edge{row.writers, row.writers + 1})
			p, err := BuildGraph(k, WriteOnly, g, row.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Destroy()
			if got := inputCredits(t, k, p.FilterUIDs[0]); len(got) != 1 || got[0] != row.filter {
				t.Errorf("filter's input holds %v, want [%d]", got, row.filter)
			}
			if got := inputCredits(t, k, p.SinkUID); len(got) != 1 || got[0] != row.sink {
				t.Errorf("sink's input holds %v, want [%d]", got, row.sink)
			}
		})
	}
	t.Run("read-only/window4/batchmax64", func(t *testing.T) {
		k := testKernel(t)
		var got [][]byte
		p, err := BuildPipeline(k, ReadOnly, numbersSource(1), []Filter{{Name: "f", Body: passFilter}}, collectSink(&got),
			Options{Window: 4, BatchMin: 1, BatchMax: 64})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Destroy()
		src := p.starters[0] // not started: nothing drains its output
		if src.name != "source" {
			t.Fatalf("first starter is %q", src.name)
		}
		w := src.Writer(0)
		for i := 0; i < DefaultCapacity; i++ {
			if err := w.Put([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		blocked := make(chan error)
		go func() { blocked <- w.Put([]byte("x")) }()
		time.Sleep(10 * time.Millisecond) // time for a Put the channel has room for to land; a full channel's stays parked
		w.Discard(&AbortedError{Msg: "test done"})
		if err := <-blocked; err == nil {
			t.Errorf("the OutPort took item %d: it holds more than DefaultCapacity", DefaultCapacity+1)
		}
	})
}

// TestWindowedDeliverGrantOpensTheWindow is the landing rule's effect on
// the gate.  One Deliver of a full batch into the drained input of a
// pipeline the walk built (write-only, Window 4, Batch 32) must grant
// room for the rest of the window, and that grant must let the gate keep
// all Window exchanges out.  In a channel of DefaultCapacity the grant
// is 64 − 32, which holds the window at 1 + 32/32 = 2.
func TestWindowedDeliverGrantOpensTheWindow(t *testing.T) {
	const window, batch = 4, 32
	k := testKernel(t)
	var got [][]byte
	p, err := BuildPipeline(k, WriteOnly, numbersSource(1), nil, collectSink(&got), Options{Window: window, Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Destroy()
	ch := p.sinks[0].Reader(0).ID()
	items := make([][]byte, batch)
	for i := range items {
		items[i] = []byte("x")
	}
	raw, err := k.Invoke(uid.Nil, p.SinkUID, OpDeliver, &DeliverRequest{Channel: ch, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	credits := raw.(*DeliverReply).Credits
	if want := window*batch - batch; credits != want {
		t.Errorf("a Deliver of %d into the drained input granted %d, want %d", batch, credits, want)
	}

	gate := NewPusher(k, uid.Nil, p.SinkUID, ch, PusherConfig{Batch: batch, Window: window}).Link()
	gate.Enter()
	gate.Leave(credits)
	entered := make(chan int)
	go func() {
		n := 0
		for n < window && gate.Enter() {
			n++
		}
		entered <- n
	}()
	select {
	case n := <-entered:
		if n != window {
			t.Errorf("the gate let %d exchanges out, want %d", n, window)
		}
	case <-time.After(10 * time.Second):
		gate.ShutGate()
		t.Errorf("after a grant of %d the gate held the window at %d, want %d", credits, <-entered, window)
	}
	gate.ShutGate()
}
