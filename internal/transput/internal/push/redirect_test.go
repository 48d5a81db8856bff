package push_test

import (
	"asymstream/internal/transput"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/push"
	"errors"
	"fmt"
	"sync"
	"testing"

	"asymstream/internal/uid"
)

func TestPusherRedirect(t *testing.T) {
	k := testKernel(t)
	var gotA, gotB [][]byte
	var muA, muB sync.Mutex
	sinkA, stA := registerWOSink(t, k, &gotA, &muA, transput.WOStageConfig{Name: "A"})
	sinkB, stB := registerWOSink(t, k, &gotB, &muB, transput.WOStageConfig{Name: "B"})

	p := push.NewPusher(k, uid.Nil, sinkA, core.Chan(0), push.PusherConfig{Batch: 2})
	// Three items: two flush to A as a batch, the third is pending
	// when we redirect — it must flush to A (it was written first).
	for i := 0; i < 3; i++ {
		if err := p.Put([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Redirect(sinkB, stB.Reader(0).ID()); err != nil {
		t.Fatal(err)
	}
	if err := p.Put([]byte("b0")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-stB.Done()
	// A's Delivers were acknowledged once buffered; its body drains the
	// channel on its own schedule, so wait for it.
	eventually(t, "sink A holds its 3 items", func() bool {
		muA.Lock()
		defer muA.Unlock()
		return len(gotA) == 3
	})
	muB.Lock()
	defer muB.Unlock()
	if len(gotB) != 1 || string(gotB[0]) != "b0" {
		t.Fatalf("sink B got %q", gotB)
	}
	// Sink A never received End; release it so the test harness can
	// shut down cleanly.
	stA.Reader(0).Cancel("test over")
	_ = stA
}

func TestPusherRedirectClosedFails(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, _ := registerWOSink(t, k, &got, &mu, transput.WOStageConfig{})
	p := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Redirect(sinkID, core.Chan(0)); !errors.Is(err, itemio.ErrClosed) {
		t.Fatalf("redirect after close: %v", err)
	}
}
