package transput

import (
	"fmt"
	"io"
	"testing"

	"asymstream/internal/uid"
)

// TestWriteOnlySecondaryInputs reproduces §5's mixed arrangement for
// multi-input filters under the write-only discipline:
//
//	"In a 'write only' transput system each filter would have a
//	primary input, which is supplied by a source Eject performing
//	Write invocations, and a number of secondary inputs, which are
//	actively read.  These secondary inputs will typically be passive
//	buffers, filled by the active output of some pipeline, file or
//	device."
//
// The filter is a write-only stage (primary input pushed at it) whose body also
// holds an InPort actively reading a PassiveBuffer that was filled by
// another pipeline's active output — exactly the topology the paper
// sketches, with its cost visible: the secondary path re-introduces a
// passive buffer Eject and both kinds of active transput.
func TestWriteOnlySecondaryInputs(t *testing.T) {
	k := testKernel(t)

	// The secondary input: a passive buffer filled by active output.
	buf := NewPassiveBuffer(k, PassiveBufferConfig{Name: "secondary"})
	bufUID, err := k.Create(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	filler := NewPusher(k, uid.Nil, bufUID, Chan(0), PusherConfig{})
	for _, cmd := range []string{"PREFIX-A", "PREFIX-B"} {
		if err := filler.Put([]byte(cmd)); err != nil {
			t.Fatal(err)
		}
	}
	if err := filler.Close(); err != nil {
		t.Fatal(err)
	}

	// The filter: primary input pushed (write-only), secondary input
	// actively read from the buffer.  It tags each primary item with
	// the prefixes it read.
	filterUID := k.NewUID()
	secondary := NewInPort(k, filterUID, bufUID, Chan(0), InPortConfig{Batch: 4})
	var got []string
	done := make(chan struct{})
	filter := NewWOStage(k, WOStageConfig{Name: "tagger"},
		func(ins []ItemReader, _ []ItemWriter) error {
			defer close(done)
			// Drain the secondary (actively) first: it carries the
			// filter's parameters.
			var prefixes [][]byte
			for {
				p, err := secondary.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				prefixes = append(prefixes, p)
			}
			// Then consume the pushed primary stream.
			for {
				item, err := ins[0].Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				for _, p := range prefixes {
					got = append(got, fmt.Sprintf("%s:%s", p, item))
				}
			}
		})
	if err := k.CreateWithUID(filterUID, filter, 0); err != nil {
		t.Fatal(err)
	}
	filter.Start()

	// The primary input: a source Eject performing Write invocations.
	primary := NewPusher(k, uid.Nil, filterUID, Chan(0), PusherConfig{})
	for _, s := range []string{"x", "y"} {
		if err := primary.Put([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	<-done
	if err := filter.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"PREFIX-A:x", "PREFIX-B:x", "PREFIX-A:y", "PREFIX-B:y"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
