package transput

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/uid"
)

// gather is a sink body that reads every input at once — a sequential
// drain can stall a graph whose producer feeds two of them — and records
// each item under the input index it came by.
func gather(got map[int][]string, mu *sync.Mutex) Body {
	return func(ins []ItemReader, _ []ItemWriter) error {
		errs := make([]error, len(ins))
		read := func(c int) {
			for {
				item, err := ins[c].Next()
				if err != nil {
					if err != io.EOF {
						errs[c] = err
					}
					return
				}
				mu.Lock()
				got[c] = append(got[c], string(item))
				mu.Unlock()
			}
		}
		var wg sync.WaitGroup
		for c := 1; c < len(ins); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				read(c)
			}()
		}
		read(0)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// tee copies its one input to every output.
func tee(ins []ItemReader, outs []ItemWriter) error {
	for {
		item, err := ins[0].Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		for _, out := range outs {
			if err := out.Put(item); err != nil {
				return err
			}
		}
	}
}

// numbers emits "0".."n-1" to every output.
func numbers(n int) Body {
	return func(_ []ItemReader, outs []ItemWriter) error {
		for i := 0; i < n; i++ {
			for _, out := range outs {
				if err := out.Put([]byte(fmt.Sprint(i))); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// graphShape is a graph plus what each sink must receive: per sink
// node, per input index, the items in order (a write-only fan-in
// merges, so its one input is compared as a multiset).
type graphShape struct {
	name  string
	g     func(sink func(node int) Body) Graph
	want  map[int]map[int][]string
	edges int
}

func seq(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + fmt.Sprint(i)
	}
	return out
}

const graphItems = 60

var graphShapes = []graphShape{
	{
		name: "fan-in",
		g: func(sink func(int) Body) Graph {
			return Graph{
				Nodes: []Filter{{Name: "a", Body: numbers(graphItems)}, {Name: "b", Body: numbers(graphItems)}, {Name: "c", Body: numbers(graphItems)}, {Name: "in", Body: sink(3)}},
				Edges: []Edge{{0, 3}, {1, 3}, {2, 3}},
			}
		},
		want:  map[int]map[int][]string{3: {0: seq("", graphItems), 1: seq("", graphItems), 2: seq("", graphItems)}},
		edges: 3,
	},
	{
		// Each branch is a filter then a sink, so write-only fuses the pair.
		name: "fan-out branches",
		g: func(sink func(int) Body) Graph {
			return Graph{
				Nodes: []Filter{
					{Name: "src", Body: numbers(graphItems)},
					{Name: "up0", Body: upcaseFilter}, {Name: "up1", Body: upcaseFilter},
					{Name: "out0", Body: sink(3)}, {Name: "out1", Body: sink(4)},
				},
				Edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 4}},
			}
		},
		want:  map[int]map[int][]string{3: {0: seq("", graphItems)}, 4: {0: seq("", graphItems)}},
		edges: 4,
	},
	{
		// A sharded row feeds a sequential fan-out: a wide link is the
		// only link on each of its ends' sides.
		name: "sharded then diamond",
		g: func(sink func(int) Body) Graph {
			return Graph{
				Nodes: []Filter{
					{Name: "src", Body: numbers(graphItems)},
					{Name: "up", Body: upcaseFilter, Shards: 3},
					{Name: "tee", Body: tee},
					{Name: "l", Body: upcaseFilter}, {Name: "r", Body: upcaseFilter},
					{Name: "join", Body: sink(5)},
				},
				Edges: []Edge{{0, 1}, {1, 2}, {2, 3}, {2, 4}, {3, 5}, {4, 5}},
			}
		},
		want:  map[int]map[int][]string{5: {0: seq("", graphItems), 1: seq("", graphItems)}},
		edges: 10, // lanes: the sharded row's two links are three each
	},
}

// TestGraphShapes builds fan-in, fan-out and a sharded diamond through
// BuildGraph under every discipline, fused and not, and checks what
// every sink received and the Eject inventory: one Eject a node (a
// shard row P), plus a PassiveBuffer a lane under the buffered
// discipline.
func TestGraphShapes(t *testing.T) {
	for _, sh := range graphShapes {
		for _, d := range disciplines {
			for _, fusion := range []FusionMode{FusionOff, FusionOn} {
				t.Run(fmt.Sprintf("%s/%v/fusion=%v", sh.name, d, fusion), func(t *testing.T) {
					k := testKernel(t)
					var mu sync.Mutex
					got := map[int]map[int][]string{}
					sink := func(node int) Body {
						got[node] = map[int][]string{}
						return gather(got[node], &mu)
					}
					g := sh.g(sink)
					p, err := BuildGraph(k, d, g, Options{Fusion: fusion})
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					defer p.Destroy()
					if err := runWithTimeout(t, p); err != nil {
						t.Fatalf("run: %v", err)
					}
					for node, want := range sh.want {
						gotNode := got[node]
						if d == WriteOnly && len(want) > 1 {
							// Write-only fan-in: one anonymous input.
							var all []string
							for _, items := range want {
								all = append(all, items...)
							}
							want = map[int][]string{0: all}
							slices.Sort(all)
							slices.Sort(gotNode[0])
						}
						for c, items := range want {
							if !slices.Equal(gotNode[c], items) {
								t.Errorf("sink %d input %d got %d items %v, want %v", node, c, len(gotNode[c]), head(gotNode[c]), head(items))
							}
						}
					}
					ejects := 0
					for _, n := range g.Nodes {
						ejects += max(n.Shards, 1)
					}
					if d == Buffered {
						ejects += sh.edges
					}
					if fusion == FusionOff && p.Ejects() != ejects {
						t.Errorf("%d Ejects, want %d", p.Ejects(), ejects)
					}
					if fusion == FusionOn && d == WriteOnly && sh.name == "fan-out branches" && p.FusionGroups != 2 {
						t.Errorf("%d fusion groups, want each branch's filter and sink fused", p.FusionGroups)
					}
				})
			}
		}
	}
}

func head(items []string) []string { return items[:min(len(items), 5)] }

// TestGraphPlacementByNodeIndex: a graph node's Placement index is its
// index in Graph.Nodes, whatever its role.
func TestGraphPlacementByNodeIndex(t *testing.T) {
	k := kernel.New(kernel.Config{Net: netsim.Config{Nodes: 3}})
	defer k.Shutdown()
	var mu sync.Mutex
	got := map[int][]string{}
	g := Graph{
		Nodes: []Filter{{Name: "sink", Body: gather(got, &mu)}, {Name: "f", Body: upcaseFilter}, {Name: "src", Body: numbers(5)}},
		Edges: []Edge{{2, 1}, {1, 0}},
	}
	p, err := BuildGraph(k, ReadOnly, g, Options{Placement: func(_ Role, i int) netsim.NodeID { return netsim.NodeID(i) }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Destroy()
	if err := runWithTimeout(t, p); err != nil {
		t.Fatal(err)
	}
	for want, id := range []uid.UID{p.SinkUID, p.FilterUIDs[0], p.SourceUID} {
		if n, err := k.NodeOf(id); err != nil || n != netsim.NodeID(want) {
			t.Errorf("node %d's Eject on node %v (%v)", want, n, err)
		}
	}
	if len(got[0]) != 5 {
		t.Errorf("sink got %v", got[0])
	}
}

// TestGraphOutlet: a read-only graph may leave an output open.  A
// one-node source and source → filter → outlet, each drained by an
// InPort attached after Start, give the items of the path pipeline over
// the same bodies, in order, fused or not, by number or by capability.
// Under LazyStart nothing is invoked until the reader attaches (§4);
// under CapabilityMode a forged channel number is refused.  An outlet
// under write-only or buffered, or on a sharded node, is refused with a
// *GraphError before anything is bound.
func TestGraphOutlet(t *testing.T) {
	const items = 60
	bang := func(ins []ItemReader, outs []ItemWriter) error {
		for {
			item, err := ins[0].Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if err := outs[0].Put(append(item, '!')); err != nil {
				return err
			}
		}
	}
	shapes := []struct {
		name string
		fs   []Filter
	}{
		{"source", nil},
		{"source-filter", []Filter{{Name: "bang", Body: bang}}},
	}
	outlet := func(fs []Filter, shards int) Graph {
		g := Graph{Nodes: []Filter{{Name: "src", Body: sourceAsBody(numbersSource(items))}}}
		for _, f := range fs {
			f.Shards = shards
			g.Edges = append(g.Edges, Edge{len(g.Nodes) - 1, len(g.Nodes)})
			g.Nodes = append(g.Nodes, f)
		}
		g.Edges = append(g.Edges, Edge{len(g.Nodes) - 1, Outlet})
		return g
	}
	for _, sh := range shapes {
		var want [][]byte
		p, err := BuildPipeline(testKernel(t), ReadOnly, numbersSource(items), sh.fs, collectSink(&want), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := runWithTimeout(t, p); err != nil {
			t.Fatal(err)
		}
		for _, fusion := range []FusionMode{FusionOff, FusionOn} {
			for _, capMode := range []bool{false, true} {
				for _, lazy := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/fusion=%v/cap=%v/lazy=%v", sh.name, fusion, capMode, lazy), func(t *testing.T) {
						k := testKernel(t)
						p, err := BuildGraph(k, ReadOnly, outlet(sh.fs, 0), Options{Fusion: fusion, CapabilityMode: capMode, LazyStart: lazy})
						if err != nil {
							t.Fatalf("build: %v", err)
						}
						defer p.Destroy()
						p.Start()
						if err := p.Wait(); err != nil {
							t.Fatalf("Wait with no sink: %v", err)
						}
						ejects := len(sh.fs) + 1
						if fusion == FusionOn {
							ejects = 1
						}
						if p.Ejects() != ejects {
							t.Errorf("%d Ejects, want %d", p.Ejects(), ejects)
						}
						if lazy {
							time.Sleep(20 * time.Millisecond)
							if n := k.Metrics().TransferInvocations.Value(); n != 0 {
								t.Fatalf("%d Transfers before the reader attached", n)
							}
						}
						id, ch := p.Outlet(0)
						if ch.Cap.IsNil() == capMode {
							t.Fatalf("outlet channel %v under CapabilityMode=%v", ch, capMode)
						}
						if capMode {
							forged := NewInPort(k, uid.Nil, id, Chan(0), InPortConfig{})
							if _, err := forged.Next(); !errors.Is(err, ErrNotPermitted) {
								t.Fatalf("forged channel number: %v, want ErrNotPermitted", err)
							}
						}
						got := drainAll(t, NewInPort(k, uid.Nil, id, ch, InPortConfig{Batch: 4}))
						if !slices.EqualFunc(got, want, bytes.Equal) {
							t.Errorf("drained %d items %q, want %d %q", len(got), got[:min(len(got), 5)], len(want), want[:5])
						}
					})
				}
			}
		}
	}
	refused := []struct {
		name string
		d    Discipline
		g    Graph
	}{
		{"write-only", WriteOnly, outlet(nil, 0)},
		{"buffered", Buffered, outlet(shapes[1].fs, 0)},
		{"sharded node", ReadOnly, outlet(shapes[1].fs, 2)},
	}
	for _, tc := range refused {
		t.Run("refused/"+tc.name, func(t *testing.T) {
			k := testKernel(t)
			before := k.ActiveCount()
			p, err := BuildGraph(k, tc.d, tc.g, Options{})
			var ge *GraphError
			if !errors.As(err, &ge) || !errors.Is(err, errOutlet) || p != nil {
				t.Fatalf("BuildGraph = %v, %v; want a *GraphError for the outlet", p, err)
			}
			if n := k.ActiveCount(); n != before {
				t.Errorf("%d Ejects bound by a refused build", n-before)
			}
		})
	}
}

// TestGraphDestroyRunsUnpulledLazyBody: a lazy stage that nothing ever
// invoked runs its body exactly once when its pipeline is destroyed,
// and the body's first Put finds the stream aborted — so what the body
// defers (closing its source) runs.  Both as a one-node graph whose
// outlet no reader attached to and as a path pipeline never started.
func TestGraphDestroyRunsUnpulledLazyBody(t *testing.T) {
	builds := map[string]func(*kernel.Kernel, Body) (*Pipeline, error){
		"outlet": func(k *kernel.Kernel, body Body) (*Pipeline, error) {
			p, err := BuildGraph(k, ReadOnly, Graph{
				Nodes: []Filter{{Name: "lazy", Body: body}},
				Edges: []Edge{{0, Outlet}},
			}, Options{LazyStart: true})
			if err == nil {
				p.Start()
			}
			return p, err
		},
		"unstarted-path": func(k *kernel.Kernel, body Body) (*Pipeline, error) {
			return BuildPipeline(k, ReadOnly, func(w ItemWriter) error { return body(nil, []ItemWriter{w}) },
				nil, func(ItemReader) error { return nil }, Options{LazyStart: true})
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			k := testKernel(t)
			var runs atomic.Int32
			puts := make(chan error, 2)
			p, err := build(k, func(_ []ItemReader, outs []ItemWriter) error {
				runs.Add(1)
				err := outs[0].Put([]byte("never read"))
				puts <- err
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(20 * time.Millisecond)
			if n := runs.Load(); n != 0 {
				t.Fatalf("lazy body ran %d times before any invocation", n)
			}
			p.Destroy()
			select {
			case err := <-puts:
				if !errors.Is(err, ErrAborted) {
					t.Errorf("first Put after Destroy: %v, want an abort", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Destroy did not run the lazy body")
			}
			p.Destroy()
			k.Shutdown()
			time.Sleep(20 * time.Millisecond)
			if n := runs.Load(); n != 1 {
				t.Errorf("lazy body ran %d times, want exactly 1", n)
			}
		})
	}
}
