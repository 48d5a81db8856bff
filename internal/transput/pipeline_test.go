package transput

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"asymstream/internal/kernel"
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

// settledGoroutines returns the goroutine count once it has held still
// for 10 ms, so that stragglers of an earlier test (a kernel shutting
// down) are not mistaken for this one's.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
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
	// Figure 2 vs Figure 1: n+2 Ejects asymmetric, 2n+3 buffered.
	for _, n := range []int{1, 4} {
		k := testKernel(t)
		var fs []Filter
		for i := 0; i < n; i++ {
			fs = append(fs, Filter{Name: "f", Body: upcaseFilter})
		}
		var got [][]byte
		ro, err := BuildPipeline(k, ReadOnly, numbersSource(1), fs, collectSink(&got), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ro.Ejects() != n+2 {
			t.Errorf("read-only n=%d: %d Ejects, want %d", n, ro.Ejects(), n+2)
		}
		bu, err := BuildPipeline(k, Buffered, numbersSource(1), fs, collectSink(&got), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if bu.Ejects() != 2*n+3 {
			t.Errorf("buffered n=%d: %d Ejects, want %d", n, bu.Ejects(), 2*n+3)
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
