package transput

import (
	"asymstream/internal/uid"
	"bytes"
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

// registerItems creates and registers an ROStage serving the given
// items on its primary channel, returning its UID and stage.
func registerItems(t *testing.T, k *kernel.Kernel, items [][]byte, cfg ROStageConfig) (uid.UID, *ROStage) {
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

// registerWOSink creates and registers a WOStage that collects its
// input items into *got (guarded by mu).
func registerWOSink(t *testing.T, k *kernel.Kernel, got *[][]byte, mu *sync.Mutex, cfg WOStageConfig) (uid.UID, *WOStage) {
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
