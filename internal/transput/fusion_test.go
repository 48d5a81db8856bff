package transput

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/quiesce"
	"asymstream/internal/uid"

	"asymstream/internal/transput/internal/itemio"
)

// passFilter hands items through with ownership transfer — the idiom
// the filters package uses, and the zero-copy path across fused edges.
func passFilter(ins []ItemReader, outs []ItemWriter) error {
	for {
		item, err := ins[0].Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := PutOwned(outs[0], item); err != nil {
			return err
		}
	}
}

func buildAndRun(t *testing.T, k *kernel.Kernel, d Discipline, fs []Filter, items int, opt Options) ([][]byte, *Pipeline) {
	t.Helper()
	var got [][]byte
	p, err := BuildPipeline(k, d, numbersSource(items), fs, collectSink(&got), opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := p.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return got, p
}

// TestFusedDigestsMatchUnfused checks the fusion pass is semantically
// invisible: byte-identical output, in order, across disciplines and
// chain shapes (sequential, sharded middle, windowed).
func TestFusedDigestsMatchUnfused(t *testing.T) {
	const items = 120
	shapes := []struct {
		name string
		fs   func() []Filter
		opt  Options
	}{
		{"seq-n1", func() []Filter { return []Filter{{Name: "f0", Body: upcaseFilter}} }, Options{}},
		{"seq-n4", func() []Filter {
			return []Filter{
				{Name: "f0", Body: upcaseFilter}, {Name: "f1", Body: passFilter},
				{Name: "f2", Body: passFilter}, {Name: "f3", Body: upcaseFilter},
			}
		}, Options{}},
		{"sharded-middle", func() []Filter {
			return []Filter{
				{Name: "f0", Body: passFilter},
				{Name: "f1", Body: upcaseFilter, Shards: 2},
				{Name: "f2", Body: passFilter},
			}
		}, Options{Window: 2, Batch: 2}},
	}
	for _, d := range []Discipline{ReadOnly, WriteOnly} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%v/%s", d, sh.name), func(t *testing.T) {
				off := sh.opt
				off.Fusion = FusionOff
				on := sh.opt
				on.Fusion = FusionOn
				want, _ := buildAndRun(t, testKernel(t), d, sh.fs(), items, off)
				got, _ := buildAndRun(t, testKernel(t), d, sh.fs(), items, on)
				if len(got) != len(want) {
					t.Fatalf("fused run: %d items, unfused %d", len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("item %d: fused %q, unfused %q", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestFusedTopologyCounts pins the headline numbers: a fully
// co-located asymmetric chain collapses to two physical Ejects and one
// data invocation per datum, while the logical accounting (and the
// fusion-off counts the paper's claims rest on) stays intact.
func TestFusedTopologyCounts(t *testing.T) {
	const n, items = 4, 200
	for _, d := range []Discipline{ReadOnly, WriteOnly} {
		k := testKernel(t)
		fs := make([]Filter, n)
		for i := range fs {
			fs[i] = Filter{Name: fmt.Sprintf("f%d", i), Body: passFilter}
		}
		before := k.Metrics().Snapshot()
		got, p := buildAndRun(t, k, d, fs, items, Options{Fusion: FusionOn})
		if len(got) != items {
			t.Fatalf("%v: %d items, want %d", d, len(got), items)
		}
		if p.Ejects() != 2 {
			t.Errorf("%v fused: %d physical Ejects, want 2", d, p.Ejects())
		}
		if p.LogicalStages != n+2 {
			t.Errorf("%v fused: LogicalStages = %d, want %d", d, p.LogicalStages, n+2)
		}
		if p.FusionGroups != 1 || p.FusedStages != n+1 {
			t.Errorf("%v fused: groups/stages = %d/%d, want 1/%d", d, p.FusionGroups, p.FusedStages, n+1)
		}
		diff := kdiff(k, before)
		if diff.Get("fusion_groups") != 1 || diff.Get("fused_stages") != int64(n+1) {
			t.Errorf("%v fused metrics: groups=%d stages=%d, want 1/%d",
				d, diff.Get("fusion_groups"), diff.Get("fused_stages"), n+1)
		}
		data := diff.Get("transfer_invocations") + diff.Get("deliver_invocations")
		per := float64(data) / items
		if per < 1 || per > 1*1.2+1 {
			t.Errorf("%v fused: %.2f data invocations/datum, want ≈1", d, per)
		}

		// Fusion off (the zero value) must reproduce the paper exactly.
		koff := testKernel(t)
		beforeOff := koff.Metrics().Snapshot()
		_, poff := buildAndRun(t, koff, d, fs, items, Options{})
		if poff.Ejects() != n+2 {
			t.Errorf("%v unfused: %d Ejects, want %d", d, poff.Ejects(), n+2)
		}
		if poff.FusionGroups != 0 || poff.FusedStages != 0 {
			t.Errorf("%v unfused: fusion stats %d/%d, want 0/0", d, poff.FusionGroups, poff.FusedStages)
		}
		doff := kdiff(koff, beforeOff)
		if doff.Get("fusion_groups") != 0 || doff.Get("fused_stages") != 0 {
			t.Errorf("%v unfused: fusion metrics moved", d)
		}
	}
}

// TestFusionRespectsBoundaries: shard splits, NoFuse pins, cross-node
// edges and the buffered discipline all keep their real links.
func TestFusionRespectsBoundaries(t *testing.T) {
	const items = 60

	t.Run("sharded-neighbour", func(t *testing.T) {
		k := testKernel(t)
		fs := []Filter{
			{Name: "f0", Body: passFilter},
			{Name: "f1", Body: upcaseFilter, Shards: 2},
			{Name: "f2", Body: passFilter},
		}
		got, p := buildAndRun(t, k, ReadOnly, fs, items, Options{Fusion: FusionOn})
		auditItems(t, got, items)
		// source+f0 fuse; f1's two shards and f2 stay separate; + sink.
		if want := 5; p.Ejects() != want {
			t.Errorf("Ejects = %d, want %d (source+f0 | f1#0 f1#1 | f2 | sink)", p.Ejects(), want)
		}
		if p.FusionGroups != 1 || p.FusedStages != 2 {
			t.Errorf("groups/stages = %d/%d, want 1/2", p.FusionGroups, p.FusedStages)
		}
	})

	t.Run("nofuse", func(t *testing.T) {
		k := testKernel(t)
		fs := []Filter{
			{Name: "f0", Body: passFilter},
			{Name: "f1", Body: passFilter, NoFuse: true},
			{Name: "f2", Body: passFilter},
		}
		got, p := buildAndRun(t, k, ReadOnly, fs, items, Options{Fusion: FusionOn})
		if len(got) != items {
			t.Fatalf("%d items", len(got))
		}
		// source+f0 | f1 | f2 | sink: f2 is a lone fusable run with no
		// neighbour, so it stays an ordinary stage.
		if want := 4; p.Ejects() != want {
			t.Errorf("Ejects = %d, want %d", p.Ejects(), want)
		}
	})

	t.Run("cross-node", func(t *testing.T) {
		k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 2}})
		defer k.Shutdown()
		fs := []Filter{
			{Name: "f0", Body: passFilter}, {Name: "f1", Body: passFilter},
			{Name: "f2", Body: passFilter}, {Name: "f3", Body: passFilter},
		}
		opt := Options{
			Fusion: FusionOn,
			Placement: func(role Role, index int) netsim.NodeID {
				if role == RoleFilter && index >= 2 {
					return 1
				}
				return 0
			},
		}
		got, p := buildAndRun(t, k, ReadOnly, fs, items, opt)
		if len(got) != items {
			t.Fatalf("%d items", len(got))
		}
		// source+f0+f1 on node 0, f2+f3 on node 1, sink on node 0.
		if want := 3; p.Ejects() != want {
			t.Errorf("Ejects = %d, want %d", p.Ejects(), want)
		}
		if p.FusionGroups != 2 || p.FusedStages != 5 {
			t.Errorf("groups/stages = %d/%d, want 2/5", p.FusionGroups, p.FusedStages)
		}
		node, err := k.NodeOf(p.FilterUIDs[len(p.FilterUIDs)-1])
		if err != nil || node != 1 {
			t.Errorf("fused f2+f3 group on node %d (err %v), want 1", node, err)
		}
	})

	t.Run("buffered-refuses", func(t *testing.T) {
		k := testKernel(t)
		fs := []Filter{{Name: "f0", Body: passFilter}, {Name: "f1", Body: passFilter}}
		got, p := buildAndRun(t, k, Buffered, fs, items, Options{Fusion: FusionOn})
		if len(got) != items {
			t.Fatalf("%d items", len(got))
		}
		if want := 2*2 + 3; p.Ejects() != want {
			t.Errorf("buffered Ejects = %d, want %d", p.Ejects(), want)
		}
		if p.FusionGroups != 0 {
			t.Errorf("buffered compiled %d fusion groups", p.FusionGroups)
		}
	})
}

// TestFusedAbortDrains proves error paths through a fused group behave
// like the unfused wiring: a failing sink aborts upstream through the
// group, a failing member surfaces in Wait, and teardown releases
// every slab view.
func TestFusedAbortDrains(t *testing.T) {
	boom := errors.New("boom")

	t.Run("sink-bails", func(t *testing.T) {
		k := testKernel(t)
		met := k.Metrics()
		fs := []Filter{
			{Name: "f0", Body: passFilter},
			{Name: "f1", Body: upcaseFilter, Shards: 2}, // real framed links in the mix
			{Name: "f2", Body: passFilter},
			{Name: "f3", Body: passFilter},
		}
		n := 0
		sink := func(in ItemReader) error {
			for {
				if _, err := in.Next(); err != nil {
					return err
				}
				if n++; n >= 5 {
					return boom
				}
			}
		}
		p, err := BuildPipeline(k, ReadOnly, numbersSource(500), fs, sink,
			Options{Fusion: FusionOn, Window: 2, Prefetch: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); !errors.Is(err, boom) {
			t.Fatalf("Wait = %v, want boom", err)
		}
		// Join every stage body before destroying: the abort is still
		// rippling upstream when Run returns, and Destroy's leak audit
		// would count the in-flight views as leaked.
		for _, fe := range p.stageErr {
			_ = fe()
		}
		p.Destroy()
		waitSlabQuiet(t, met)
		if leaked := met.SlabLeaked.Value(); leaked != 0 {
			t.Fatalf("SlabLeaked = %d after fused abort", leaked)
		}
	})

	t.Run("member-fails", func(t *testing.T) {
		k := testKernel(t)
		failing := func(ins []ItemReader, outs []ItemWriter) error {
			for i := 0; ; i++ {
				item, err := ins[0].Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if i == 7 {
					return boom
				}
				if err := PutOwned(outs[0], item); err != nil {
					return err
				}
			}
		}
		fs := []Filter{
			{Name: "f0", Body: passFilter},
			{Name: "bad", Body: failing},
			{Name: "f2", Body: passFilter},
		}
		var got [][]byte
		p, err := BuildPipeline(k, ReadOnly, numbersSource(500), fs, collectSink(&got),
			Options{Fusion: FusionOn})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(); !errors.Is(err, boom) {
			t.Fatalf("Wait = %v, want boom from fused member", err)
		}
	})
}

// TestRedirectAcrossFusedBoundary: fusion elides internal hops but a
// group's boundary links remain real ports, so a live consumer can
// still be redirected from one fused group to another, keeping data
// that already arrived and unwinding the abandoned group.
func TestRedirectAcrossFusedBoundary(t *testing.T) {
	k := testKernel(t)

	// Fused group A: endless source | upcase, compiled exactly as the
	// pipeline builder would compile a co-located source+filter group.
	endless := itemio.ComposeBodies([]Body{
		func(_ []ItemReader, outs []ItemWriter) error {
			for i := 0; ; i++ {
				if err := outs[0].Put([]byte(fmt.Sprintf("old%d", i))); err != nil {
					return nil // aborted by the redirect: expected
				}
			}
		},
		upcaseFilter,
	})
	a := NewROStage(k, ROStageConfig{Name: "groupA", Anticipation: 4}, endless)
	aUID := k.NewUID()
	if err := k.CreateWithUID(aUID, a, 0); err != nil {
		t.Fatal(err)
	}
	a.Start()

	// Fused group B: finite source | upcase.
	b := NewROStage(k, ROStageConfig{Name: "groupB"},
		itemio.ComposeBodies([]Body{sourceAsBody(numbersSource(2)), upcaseFilter}))
	bUID := k.NewUID()
	if err := k.CreateWithUID(bUID, b, 0); err != nil {
		t.Fatal(err)
	}
	b.Start()

	in := NewInPort(k, uid.Nil, aUID, Chan(0), InPortConfig{Prefetch: 2})
	for i := 0; i < 3; i++ {
		item, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("OLD%d", i); string(item) != want {
			t.Fatalf("pre-redirect item %d = %q, want %q", i, item, want)
		}
	}
	if err := in.Redirect(bUID, Chan(0), "switching groups"); err != nil {
		t.Fatal(err)
	}
	var tail []string
	for {
		item, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tail = append(tail, string(item))
	}
	// Prefetched OLD items that had already arrived are retained, then
	// group B's stream follows.
	if len(tail) < 2 || tail[len(tail)-2] != "0" || tail[len(tail)-1] != "1" {
		t.Fatalf("post-redirect tail = %v, want ...,0,1", tail)
	}
	// The abandoned fused group must unwind: the abort travels through
	// the composed body, every member returns, Err does not hang.
	_ = a.Err()
	if err := b.Err(); err != nil {
		t.Fatalf("group B err: %v", err)
	}
}

// settledMallocs reads the cumulative malloc count after letting the
// collector settle, so two reads bracket a run's allocations.
func settledMallocs() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func allocsPerItem(t *testing.T, n int, items int, opt Options) float64 {
	t.Helper()
	k := kernel.New(kernel.Config{})
	defer k.Shutdown()
	fs := make([]Filter, n)
	for i := range fs {
		fs[i] = Filter{Name: fmt.Sprintf("f%d", i), Body: passFilter}
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
	p, err := BuildPipeline(k, ReadOnly, numbersSource(items), fs, sink, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	after := settledMallocs()
	if sank != items {
		t.Fatalf("sank %d items, want %d", sank, items)
	}
	return float64(after-before) / float64(items)
}

// TestFusedHopAllocRegression pins the fused hop's cost: a fused group
// of three read-only pass-through filters must not allocate more per
// item than a single unfused stage — the in-stack edge with ownership
// transfer adds nothing, so three stages ride on one link's budget.
func TestFusedHopAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement wants a quiet heap")
	}
	const items = 4000
	// Warm both shapes once so pool and lazy-init allocations are paid.
	allocsPerItem(t, 1, 100, Options{})
	allocsPerItem(t, 3, 100, Options{Fusion: FusionOn})

	single := allocsPerItem(t, 1, items, Options{})
	fused := allocsPerItem(t, 3, items, Options{Fusion: FusionOn})
	t.Logf("allocs/item: single unfused stage %.2f, fused 3-filter group %.2f", single, fused)
	if fused > single*1.05+0.5 {
		t.Errorf("fused group of 3 allocates %.2f/item, above the single-stage ceiling %.2f", fused, single)
	}
}

// TestFusedPoolServes smoke-checks the kernel side of fusion: a fused
// stage, an ordinary Eject on the kernel's ordinary pool, serves a
// windowed, batched stream correctly.
func TestFusedPoolServes(t *testing.T) {
	k := testKernel(t)
	fs := []Filter{
		{Name: "f0", Body: passFilter}, {Name: "f1", Body: upcaseFilter},
		{Name: "f2", Body: passFilter},
	}
	got, p := buildAndRun(t, k, ReadOnly, fs, 300,
		Options{Fusion: FusionOn, Window: 4, BatchMin: 1, BatchMax: 8, Prefetch: 2})
	if len(got) != 300 {
		t.Fatalf("%d items, want 300", len(got))
	}
	if p.Ejects() != 2 {
		t.Fatalf("Ejects = %d, want 2", p.Ejects())
	}
}

// offGoroutine runs body on a goroutine it starts and waits for it, so
// every Next the body makes comes from a goroutine other than the one
// it was called on.
func offGoroutine(body Body) Body {
	return func(ins []ItemReader, outs []ItemWriter) error {
		errc := make(chan error, 1)
		go func() { errc <- body(ins, outs) }()
		return <-errc
	}
}

// TestFusedBodyReadsOnAnotherGoroutine: a member of a fused group may
// use its fused edges from a goroutine it starts, since a fused edge is
// a coroutine any goroutine may resume.  In a linear chain the first
// filter does, and so does the group's last member (a read-only group's
// last filter, a write-only group's sink); in a graph of two fused
// branches (write-only: a fan-out whose branches are filter+sink;
// read-only: a fan-in whose branches are source+filter) each branch's
// last member does.  Each graph delivers fused what it delivers
// unfused, and leaves no slab view and no goroutine behind.
func TestFusedBodyReadsOnAnotherGoroutine(t *testing.T) {
	const items = 200
	// last wraps the body of a group's last member.
	last := func(on bool, body Body) Body {
		if on {
			return offGoroutine(body)
		}
		return body
	}
	shapes := []struct {
		name   string
		groups int
		g      func(d Discipline, sink func(node int) Body) Graph
	}{
		{"chain", 1, func(d Discipline, sink func(int) Body) Graph {
			return Graph{
				Nodes: []Filter{
					{Name: "src", Body: numbers(items)},
					{Name: "f0", Body: offGoroutine(upcaseFilter)},
					{Name: "f1", Body: last(d == ReadOnly, passFilter)},
					{Name: "sink", Body: last(d == WriteOnly, sink(3))},
				},
				Edges: []Edge{{0, 1}, {1, 2}, {2, 3}},
			}
		}},
		{"two branches", 2, func(d Discipline, sink func(int) Body) Graph {
			if d == WriteOnly {
				return Graph{
					Nodes: []Filter{
						{Name: "src", Body: numbers(items)},
						{Name: "up0", Body: upcaseFilter}, {Name: "up1", Body: upcaseFilter},
						{Name: "out0", Body: last(true, sink(3))}, {Name: "out1", Body: last(true, sink(4))},
					},
					Edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 4}},
				}
			}
			return Graph{
				Nodes: []Filter{
					{Name: "a", Body: numbers(items)}, {Name: "b", Body: numbers(items)},
					{Name: "up0", Body: last(true, upcaseFilter)}, {Name: "up1", Body: last(true, upcaseFilter)},
					{Name: "in", Body: sink(4)},
				},
				Edges: []Edge{{0, 2}, {1, 3}, {2, 4}, {3, 4}},
			}
		}},
	}
	for _, d := range []Discipline{ReadOnly, WriteOnly} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%v/%s", d, sh.name), func(t *testing.T) {
				run := func(fusion FusionMode) (map[int]map[int][]string, int) {
					goroutines := quiesce.Baseline(t)
					k := kernel.New(kernel.Config{})
					met := k.Metrics()
					var mu sync.Mutex
					got := map[int]map[int][]string{}
					sink := func(node int) Body {
						got[node] = map[int][]string{}
						return gather(got[node], &mu)
					}
					p, err := BuildGraph(k, d, sh.g(d, sink), Options{Fusion: fusion})
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					if err := runWithTimeout(t, p); err != nil {
						t.Fatalf("run (fusion %v): %v", fusion, err)
					}
					p.Destroy()
					waitSlabQuiet(t, met)
					if n := met.SlabLeaked.Value(); n != 0 {
						t.Errorf("fusion %v: SlabLeaked = %d after teardown", fusion, n)
					}
					k.Shutdown()
					goroutines()
					return got, p.FusionGroups
				}
				want, _ := run(FusionOff)
				for node, ins := range want {
					for c, its := range ins {
						if len(its) != items {
							t.Fatalf("unfused: sink %d input %d got %d items, want %d", node, c, len(its), items)
						}
					}
				}
				got, groups := run(FusionOn)
				if groups != sh.groups {
					t.Fatalf("%d fusion groups, want %d", groups, sh.groups)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fused run delivered %v, unfused %v", got, want)
				}
			})
		}
	}
}
