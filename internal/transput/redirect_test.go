package transput

import (
	"asymstream/internal/kernel"
	"fmt"
	"io"
	"testing"

	"asymstream/internal/uid"
)

// buildShardedProducer assembles, by hand, the producing half of a
// parallel read-only pipeline: a source dealing sequence-tagged frames
// across P shard stages over windowed links, merged back into stream
// order by a tail stage.  It returns the tail's UID; the tail's single
// output channel carries prefix0, prefix1, ... in order.
func buildShardedProducer(t *testing.T, k *kernel.Kernel, prefix string, items, P, window int) uid.UID {
	t.Helper()
	met := k.Metrics()
	passthrough := func(ins []ItemReader, outs []ItemWriter) error {
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
	}
	srcUID := k.NewUID()
	src := NewROStage(k, ROStageConfig{
		Name: prefix + "src", OutNames: channelNames("Output", P), Anticipation: 16,
	}, splitBody(met, nil, func(_ []ItemReader, outs []ItemWriter) error {
		for i := 0; i < items; i++ {
			if err := outs[0].Put([]byte(fmt.Sprintf("%s%d", prefix, i))); err != nil {
				return nil // aborted by a redirect downstream: expected
			}
		}
		return nil
	}))
	if err := k.CreateWithUID(srcUID, src, 0); err != nil {
		t.Fatal(err)
	}
	src.Start()

	inCfg := InPortConfig{Window: window}
	ins := make([]ItemReader, P)
	for j := 0; j < P; j++ {
		fUID := k.NewUID()
		in := NewInPort(k, fUID, srcUID, src.Writer(j).ID(), inCfg)
		st := NewROStage(k, ROStageConfig{
			Name: fmt.Sprintf("%sshard%d", prefix, j), Anticipation: 16,
		}, shardBody(met, nil, nil, passthrough), in)
		if err := k.CreateWithUID(fUID, st, 0); err != nil {
			t.Fatal(err)
		}
		st.Start()
		tailIn := NewInPort(k, k.NewUID(), fUID, st.Writer(0).ID(), inCfg)
		ins[j] = tailIn
	}

	tailUID := k.NewUID()
	tail := NewROStage(k, ROStageConfig{
		Name: prefix + "tail", Anticipation: 16,
	}, mergeBody(met, passthrough), ins...)
	if err := k.CreateWithUID(tailUID, tail, 0); err != nil {
		t.Fatal(err)
	}
	tail.Start()
	return tailUID
}

// TestRedirectShardedWindowedAuditsSequence is the parallel engine's
// redirection contract: with Shards>1 upstream and Window>1 on every
// link including the redirecting port itself, a mid-stream redirect
// loses none of the data that had arrived and double-delivers nothing.
// The sink audits the sequence: a gapless, duplicate-free prefix a0..
// a(K-1) of the abandoned stream, then the complete replacement
// stream.
func TestRedirectShardedWindowedAuditsSequence(t *testing.T) {
	const P, window = 4, 4
	k := testKernel(t)
	tailA := buildShardedProducer(t, k, "a", 100000, P, window)
	tailB := buildShardedProducer(t, k, "b", 50, P, window)

	in := NewInPort(k, uid.Nil, tailA, Chan(0), InPortConfig{Batch: 2, Window: window})
	var got []string
	for i := 0; i < 100; i++ {
		item, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}
	if err := in.Redirect(tailB, Chan(0), "switch to b"); err != nil {
		t.Fatal(err)
	}
	for {
		item, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(item))
	}

	// Audit: a contiguous prefix of stream a...
	i := 0
	for ; i < len(got) && got[i][0] == 'a'; i++ {
		if want := fmt.Sprintf("a%d", i); got[i] != want {
			t.Fatalf("stream a broken at %d: got %q, want %q", i, got[i], want)
		}
	}
	if i < 100 {
		t.Fatalf("only %d items of stream a survived; %d had been consumed", i, 100)
	}
	// ...then the complete stream b, in order, exactly once.
	rest := got[i:]
	if len(rest) != 50 {
		t.Fatalf("stream b delivered %d items, want 50 (tail %v...)", len(rest), rest[:min(len(rest), 5)])
	}
	for j, s := range rest {
		if want := fmt.Sprintf("b%d", j); s != want {
			t.Fatalf("stream b broken at %d: got %q, want %q", j, s, want)
		}
	}
}
