package transput

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"testing"
)

// runShardPipeline builds and runs numbers | fs | collect under d,
// failing the test on any pipeline error, and returns the sink items.
func runShardPipeline(t *testing.T, d Discipline, fs []Filter, items int, opt Options) [][]byte {
	t.Helper()
	k := testKernel(t)
	var got [][]byte
	p, err := BuildPipeline(k, d, numbersSource(items), fs, collectSink(&got), opt)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := p.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

// sequentialOutput runs the same pipeline unsharded and unwindowed to
// produce the reference output.
func sequentialOutput(t *testing.T, d Discipline, fs []Filter, items int) [][]byte {
	t.Helper()
	plain := make([]Filter, len(fs))
	for i, f := range fs {
		plain[i] = Filter{Name: f.Name, Body: f.Body}
	}
	return runShardPipeline(t, d, plain, items, Options{})
}

func assertSameItems(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("item count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("item %d = %q, want %q", i, got[i], want[i])
		}
	}
}

var disciplines = []Discipline{ReadOnly, WriteOnly, Buffered}

// TestShardedPipelinePreservesOrder checks the tentpole's core
// contract: a sharded run is byte-identical to the sequential one, in
// every discipline, with and without a send/pull window.
func TestShardedPipelinePreservesOrder(t *testing.T) {
	fs := []Filter{{Name: "upcase", Body: upcaseFilter}}
	const items = 300
	for _, d := range disciplines {
		for _, shards := range []int{2, 4} {
			for _, window := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/shards=%d/window=%d", d, shards, window), func(t *testing.T) {
					want := sequentialOutput(t, d, fs, items)
					got := runShardPipeline(t, d, fs, items,
						Options{Shards: shards, Window: window})
					assertSameItems(t, got, want)
				})
			}
		}
	}
}

// dropOddFilter keeps even numbers only — it exercises the
// punctuation path: a shard that consumes without producing must still
// prove progress to the merger.
func dropOddFilter(ins []ItemReader, outs []ItemWriter) error {
	for {
		item, err := ins[0].Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		n, _ := strconv.Atoi(string(item))
		if n%2 == 0 {
			if err := outs[0].Put(item); err != nil {
				return err
			}
		}
	}
}

// expandFilter emits each item twice — several outputs attributed to
// one input sequence number.
func expandFilter(ins []ItemReader, outs []ItemWriter) error {
	for {
		item, err := ins[0].Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := outs[0].Put(item); err != nil {
			return err
		}
		if err := outs[0].Put(append(item, '!')); err != nil {
			return err
		}
	}
}

// trailerFilter passes items through and appends a trailer after its
// input is exhausted — the epilogue path.
func trailerFilter(ins []ItemReader, outs []ItemWriter) error {
	count := 0
	for {
		item, err := ins[0].Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		count++
		if err := outs[0].Put(item); err != nil {
			return err
		}
	}
	return outs[0].Put([]byte(fmt.Sprintf("trailer:%d", count)))
}

// TestShardedDroppingFilter checks liveness and order with a sparse
// filter: half the shard inputs produce nothing.
func TestShardedDroppingFilter(t *testing.T) {
	fs := []Filter{{Name: "droporig", Body: dropOddFilter}}
	const items = 200
	for _, d := range disciplines {
		t.Run(d.String(), func(t *testing.T) {
			want := sequentialOutput(t, d, fs, items)
			got := runShardPipeline(t, d, fs, items, Options{Shards: 4, Window: 4})
			assertSameItems(t, got, want)
		})
	}
}

// TestShardedExpandingFilter checks that multiple outputs per input
// stay grouped at the input's position in the merged stream.
func TestShardedExpandingFilter(t *testing.T) {
	fs := []Filter{{Name: "expand", Body: expandFilter}}
	const items = 120
	for _, d := range disciplines {
		t.Run(d.String(), func(t *testing.T) {
			want := sequentialOutput(t, d, fs, items)
			got := runShardPipeline(t, d, fs, items, Options{Shards: 3})
			assertSameItems(t, got, want)
		})
	}
}

// TestShardedEpilogueOutputs checks that post-EOF outputs survive
// sharding.  The sequential reference emits exactly one trailer; each
// of P shards emits its own, so the sharded run is checked
// structurally: data order preserved, P trailers at the end counting
// items that sum to the total.
func TestShardedEpilogueOutputs(t *testing.T) {
	fs := []Filter{{Name: "trailer", Body: trailerFilter}}
	const items, shards = 90, 3
	got := runShardPipeline(t, ReadOnly, fs, items, Options{Shards: shards})
	if len(got) != items+shards {
		t.Fatalf("item count = %d, want %d data + %d trailers", len(got), items, shards)
	}
	for i := 0; i < items; i++ {
		if want := fmt.Sprintf("%d", i); string(got[i]) != want {
			t.Fatalf("item %d = %q, want %q", i, got[i], want)
		}
	}
	sum := 0
	for _, item := range got[items:] {
		var n int
		if _, err := fmt.Sscanf(string(item), "trailer:%d", &n); err != nil {
			t.Fatalf("unexpected trailer %q", item)
		}
		sum += n
	}
	if sum != items {
		t.Fatalf("trailer counts sum to %d, want %d", sum, items)
	}
}

// TestChainedShardedFilters runs two sharded rows back to back: the
// links between them are wired shard-to-shard with no intermediate
// merge.
func TestChainedShardedFilters(t *testing.T) {
	fs := []Filter{
		{Name: "drop", Body: dropOddFilter},
		{Name: "upcase2", Body: upcaseFilter},
	}
	const items = 200
	for _, d := range disciplines {
		t.Run(d.String(), func(t *testing.T) {
			want := sequentialOutput(t, d, fs, items)
			got := runShardPipeline(t, d, fs, items, Options{Shards: 4, Window: 2})
			assertSameItems(t, got, want)
		})
	}
}

// TestShardedAroundSequentialFilter puts a sequential filter between
// two sharded ones: merge then re-split at the sequential stage.
func TestShardedAroundSequentialFilter(t *testing.T) {
	fs := []Filter{
		{Name: "a", Body: upcaseFilter, Shards: 3},
		{Name: "b", Body: upcaseFilter, Shards: 1},
		{Name: "c", Body: upcaseFilter, Shards: 2},
	}
	const items = 150
	for _, d := range disciplines {
		t.Run(d.String(), func(t *testing.T) {
			want := sequentialOutput(t, d, fs, items)
			got := runShardPipeline(t, d, fs, items, Options{})
			assertSameItems(t, got, want)
		})
	}
}

// TestMismatchedShardCountsRejected checks the builder error for
// misaligned adjacent sharded rows.
func TestMismatchedShardCountsRejected(t *testing.T) {
	fs := []Filter{
		{Name: "a", Body: upcaseFilter, Shards: 2},
		{Name: "b", Body: upcaseFilter, Shards: 3},
	}
	for _, d := range disciplines {
		k := testKernel(t)
		var got [][]byte
		_, err := BuildPipeline(k, d, numbersSource(4), fs, collectSink(&got), Options{})
		if err == nil {
			t.Fatalf("%v: build accepted misaligned shard counts", d)
		}
	}
}

// TestShardedEjectCounts checks the parallel engine's Eject
// accounting: n filters at P shards give n·P+2 Ejects in the
// asymmetric disciplines, plus one passive buffer per shard link in
// the buffered one.
func TestShardedEjectCounts(t *testing.T) {
	const n, P, items = 2, 4, 40
	fs := []Filter{
		{Name: "f0", Body: upcaseFilter},
		{Name: "f1", Body: upcaseFilter},
	}
	for _, d := range disciplines {
		k := testKernel(t)
		var got [][]byte
		p, err := BuildPipeline(k, d, numbersSource(items), fs, collectSink(&got), Options{Shards: P})
		if err != nil {
			t.Fatal(err)
		}
		want := n*P + 2
		if d == Buffered {
			// Links: source→f0 (P buffers), f0→f1 (P), f1→sink (P).
			want += (n + 1) * P
		}
		if p.Ejects() != want {
			t.Fatalf("%v: Ejects = %d, want %d", d, p.Ejects(), want)
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardLoadsBalanced checks the utilization signal: a round-robin
// deal spreads a divisible stream exactly evenly.
func TestShardLoadsBalanced(t *testing.T) {
	const items, P = 400, 4
	k := testKernel(t)
	var got [][]byte
	p, err := BuildPipeline(k, ReadOnly, numbersSource(items),
		[]Filter{{Name: "f", Body: upcaseFilter}}, collectSink(&got), Options{Shards: P})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	loads := p.ShardLoads()
	if len(loads) != 1 || len(loads[0]) != P {
		t.Fatalf("ShardLoads shape = %v", loads)
	}
	for j, l := range loads[0] {
		if l != items/P {
			t.Fatalf("shard %d load = %d, want %d (loads %v)", j, l, items/P, loads[0])
		}
	}
}

// TestShardErrorPropagates checks that one failing shard aborts the
// whole pipeline: siblings unwind, the sink returns, and Wait
// surfaces the originating error.
func TestShardErrorPropagates(t *testing.T) {
	bang := errors.New("shard failure")
	failAt := func(n int) Body {
		return func(ins []ItemReader, outs []ItemWriter) error {
			for {
				item, err := ins[0].Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if v, _ := strconv.Atoi(string(item)); v == n {
					return bang
				}
				if err := outs[0].Put(item); err != nil {
					return err
				}
			}
		}
	}
	for _, d := range disciplines {
		t.Run(d.String(), func(t *testing.T) {
			k := testKernel(t)
			var got [][]byte
			p, err := BuildPipeline(k, d, numbersSource(500),
				[]Filter{{Name: "f", Body: failAt(250)}}, collectSink(&got),
				Options{Shards: 4, Window: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = p.Run()
			if err == nil {
				t.Fatal("pipeline succeeded despite failing shard")
			}
			if !errors.Is(err, ErrAborted) && !errors.Is(err, bang) {
				t.Fatalf("error = %v, want abort or %v", err, bang)
			}
		})
	}
}

// TestShardMergeMetricsObserved checks that a sharded windowed run
// feeds the new gauges.
func TestShardMergeMetricsObserved(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	p, err := BuildPipeline(k, ReadOnly, numbersSource(200),
		[]Filter{{Name: "f", Body: upcaseFilter}}, collectSink(&got),
		Options{Shards: 4, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	m := k.Metrics()
	if m.ShardFrames.Value() == 0 {
		t.Error("ShardFrames not counted")
	}
	if m.WindowDepthHighWater.Value() == 0 {
		t.Error("WindowDepthHighWater not observed")
	}
	if m.MergeReorderHighWater.Value() == 0 {
		t.Error("MergeReorderHighWater not observed")
	}
}

// TestFrameCodecRoundTrip exercises the shard frame encoding.
func TestFrameCodecRoundTrip(t *testing.T) {
	var buf []byte
	for _, tc := range []struct {
		class   byte
		seq     uint64
		payload string
	}{
		{frameData, 0, "hello"},
		{framePunct, 1<<40 + 7, ""},
		{frameEpilogue, 42, "tail"},
	} {
		buf = appendFrame(buf, tc.class, tc.seq, []byte(tc.payload))
		class, seq, err := decodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		payload := buf[frameHeader:]
		if class != tc.class || seq != tc.seq || string(payload) != tc.payload {
			t.Fatalf("round trip = (%d,%d,%q), want (%d,%d,%q)",
				class, seq, payload, tc.class, tc.seq, tc.payload)
		}
	}
	if _, _, err := decodeFrame([]byte("short")); err == nil {
		t.Fatal("decodeFrame accepted a truncated frame")
	}
}
