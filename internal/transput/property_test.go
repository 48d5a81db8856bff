package transput

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"asymstream/internal/uid"
)

// TestPipelinePreservesArbitraryData is the central property test: for
// random item sequences, random pipeline lengths and random tuning
// parameters, every discipline delivers exactly the input sequence.
func TestPipelinePreservesArbitraryData(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 12,
		Rand:     rand.New(rand.NewSource(1983)),
		Values: func(v []reflect.Value, r *rand.Rand) {
			nItems := r.Intn(120)
			items := make([][]byte, nItems)
			for i := range items {
				items[i] = make([]byte, r.Intn(40))
				r.Read(items[i])
			}
			v[0] = reflect.ValueOf(items)
			v[1] = reflect.ValueOf(r.Intn(4))     // filters
			v[2] = reflect.ValueOf(r.Intn(3))     // discipline
			v[3] = reflect.ValueOf(r.Intn(9) + 1) // batch
			v[4] = reflect.ValueOf(r.Intn(3))     // prefetch
			v[5] = reflect.ValueOf(r.Intn(4) + 1) // shards
			v[6] = reflect.ValueOf(r.Intn(4) + 1) // window
			v[7] = reflect.ValueOf(r.Intn(2))     // fusion
		},
	}
	f := func(items [][]byte, n, disc, batch, pref, shards, window, fusion int) bool {
		k := testKernel(t)
		var fs []Filter
		for i := 0; i < n; i++ {
			fs = append(fs, Filter{Name: fmt.Sprintf("id%d", i), Body: func(ins []ItemReader, outs []ItemWriter) error {
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
				}
			}})
		}
		src := func(out ItemWriter) error {
			for _, it := range items {
				if err := out.Put(it); err != nil {
					return err
				}
			}
			return nil
		}
		var got [][]byte
		sink := func(in ItemReader) error {
			for {
				item, err := in.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				got = append(got, item)
			}
		}
		p, err := BuildPipeline(k, Discipline(disc), src, fs, sink, Options{
			Batch: batch, Prefetch: pref, Shards: shards, Window: window,
			Fusion: FusionMode(fusion),
		})
		if err != nil {
			t.Log(err)
			return false
		}
		if err := p.Run(); err != nil {
			t.Log(err)
			return false
		}
		if len(got) != len(items) {
			t.Logf("disc=%d n=%d shards=%d window=%d: got %d items, want %d",
				disc, n, shards, window, len(got), len(items))
			return false
		}
		for i := range items {
			if !bytes.Equal(got[i], items[i]) {
				t.Logf("item %d differs", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestSplitLinesRoundTrip: joining split lines reproduces the input,
// and every item except possibly the last ends in '\n'.
func TestSplitLinesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		items := SplitLines(data)
		if !bytes.Equal(JoinItems(items), data) {
			return false
		}
		for i, it := range items {
			if len(it) == 0 {
				return false
			}
			if i < len(items)-1 && it[len(it)-1] != '\n' {
				return false
			}
			if bytes.IndexByte(it[:len(it)-1], '\n') >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRecordRoundTripProperty: arbitrary records survive the gob
// framing through a CollectWriter/SliceReader pair.
func TestRecordRoundTripProperty(t *testing.T) {
	type rec struct {
		A int64
		B string
		C []byte
		D bool
	}
	f := func(a int64, b string, c []byte, d bool) bool {
		var cw CollectWriter
		w := NewRecordWriter[rec](&cw)
		in := rec{A: a, B: b, C: c, D: d}
		if err := w.Write(in); err != nil {
			return false
		}
		r := NewRecordReader[rec](NewSliceReader(cw.Items))
		out, err := r.Read()
		if err != nil {
			return false
		}
		if out.A != in.A || out.B != in.B || out.D != in.D {
			return false
		}
		if len(out.C) != len(in.C) {
			return false
		}
		return bytes.Equal(out.C, in.C)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// EOF propagates.
	r := NewRecordReader[rec](NewSliceReader(nil))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("empty record stream: %v", err)
	}
	// Garbage items are decode errors, not panics.
	r2 := NewRecordReader[rec](NewSliceReader([][]byte{{0xde, 0xad}}))
	if _, err := r2.Read(); err == nil {
		t.Fatal("garbage decoded")
	}
}

// TestRecordStreamThroughPipeline runs typed records end to end over
// an actual invocation path.
func TestRecordStreamThroughPipeline(t *testing.T) {
	type point struct{ X, Y int }
	k := testKernel(t)
	src := func(out ItemWriter) error {
		w := NewRecordWriter[point](out)
		for i := 0; i < 30; i++ {
			if err := w.Write(point{X: i, Y: -i}); err != nil {
				return err
			}
		}
		return nil
	}
	var pts []point
	sink := func(in ItemReader) error {
		r := NewRecordReader[point](in)
		for {
			p, err := r.Read()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			pts = append(pts, p)
		}
	}
	p, err := BuildPipeline(k, ReadOnly, src, nil, sink, Options{Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pts) != 30 {
		t.Fatalf("got %d records", len(pts))
	}
	for i, pt := range pts {
		if pt.X != i || pt.Y != -i {
			t.Fatalf("record %d = %+v", i, pt)
		}
	}
}

// TestLazinessNoFlowBeforeSink asserts §4's headline: "No data flows
// until a sink is connected to the pipeline."
func TestLazinessNoFlowBeforeSink(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, numbered(100), ROStageConfig{LazyStart: true})
	time.Sleep(30 * time.Millisecond)
	if n := k.Metrics().TransferInvocations.Value(); n != 0 {
		t.Fatalf("%d transfer invocations before any sink", n)
	}
	// Connect the sink: everything flows.
	in := NewInPort(k, uid.Nil, src, Chan(0), InPortConfig{Batch: 8})
	if got := drainAll(t, in); len(got) != 100 {
		t.Fatalf("drained %d items", len(got))
	}
}

// TestAnticipationBounded asserts the §4 compromise: an eager stage
// runs ahead of its (absent) consumer by at most its buffer capacity.
func TestAnticipationBounded(t *testing.T) {
	k := testKernel(t)
	_, st := registerItems(t, k, numbered(1000), ROStageConfig{Anticipation: 7})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if st.Out().Buffered() == 7 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := st.Out().Buffered(); got != 7 {
		t.Fatalf("buffered %d items, want exactly the capacity 7", got)
	}
	// And it stays bounded.
	time.Sleep(20 * time.Millisecond)
	if got := st.Out().Buffered(); got > 7 {
		t.Fatalf("anticipation overran: %d", got)
	}
}

// TestCopyHelpers exercises Copy/Drain and the io adapters.
func TestCopyHelpers(t *testing.T) {
	items := numbered(10)
	var cw CollectWriter
	n, err := Copy(&cw, NewSliceReader(items))
	if err != nil || n != 10 {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if len(cw.Items) != 10 {
		t.Fatalf("copied %d", len(cw.Items))
	}
	got, err := Drain(NewSliceReader(items))
	if err != nil || got != 10 {
		t.Fatalf("Drain = %d, %v", got, err)
	}

	// io.Reader adapter: concatenated bytes.
	r := NewIOReader(NewSliceReader([][]byte{[]byte("ab"), []byte("cde")}))
	all, err := io.ReadAll(r)
	if err != nil || string(all) != "abcde" {
		t.Fatalf("ioReader: %q, %v", all, err)
	}

	// io.Writer adapter: each Write is one item.
	var cw2 CollectWriter
	w := NewIOWriter(&cw2)
	fmt.Fprintf(w, "hello")
	fmt.Fprintf(w, "world")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(cw2.Items) != 2 || string(cw2.Items[0]) != "hello" {
		t.Fatalf("ioWriter items: %q", cw2.Items)
	}
}
