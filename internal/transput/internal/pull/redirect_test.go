package pull_test

import (
	"asymstream/internal/transput"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/pull"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"asymstream/internal/uid"
)

func TestRedirectAfterEOFConcatenates(t *testing.T) {
	k := testKernel(t)
	a, _ := registerItems(t, k, [][]byte{[]byte("a1"), []byte("a2")}, transput.ROStageConfig{})
	b, _ := registerItems(t, k, [][]byte{[]byte("b1")}, transput.ROStageConfig{})

	in := pull.NewInPort(k, uid.Nil, a, core.Chan(0), pull.InPortConfig{})
	var got []string
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
	if err := in.Redirect(b, core.Chan(0), ""); err != nil {
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
	want := []string{"a1", "a2", "b1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("concatenation = %v, want %v", got, want)
	}
}

func TestRedirectMidStream(t *testing.T) {
	k := testKernel(t)
	// An endless source we will abandon mid-stream.
	endless := transput.NewROStage(k, transput.ROStageConfig{Name: "endless", Anticipation: 4},
		func(_ []itemio.ItemReader, outs []itemio.ItemWriter) error {
			for i := 0; ; i++ {
				if err := outs[0].Put([]byte(fmt.Sprintf("old%d", i))); err != nil {
					return nil // aborted by the redirect: expected
				}
			}
		})
	endlessUID := k.NewUID()
	if err := k.CreateWithUID(endlessUID, endless, 0); err != nil {
		t.Fatal(err)
	}
	endless.Start()
	replacement, _ := registerItems(t, k, [][]byte{[]byte("new0"), []byte("new1")}, transput.ROStageConfig{})

	in := pull.NewInPort(k, uid.Nil, endlessUID, core.Chan(0), pull.InPortConfig{})
	for i := 0; i < 3; i++ {
		item, err := in.Next()
		if err != nil {
			t.Fatal(err)
		}
		if string(item) != fmt.Sprintf("old%d", i) {
			t.Fatalf("pre-redirect item %d = %q", i, item)
		}
	}
	if err := in.Redirect(replacement, core.Chan(0), "switching inputs"); err != nil {
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
	if len(tail) != 2 || tail[0] != "new0" || tail[1] != "new1" {
		t.Fatalf("post-redirect items = %v", tail)
	}
	// The abandoned producer must have been released (it returns when
	// its Put fails); Err blocks until the body finished.
	if err := endless.Err(); err != nil {
		t.Fatalf("endless stage err: %v", err)
	}
}

func TestRedirectWithPrefetchKeepsArrivedData(t *testing.T) {
	k := testKernel(t)
	a, _ := registerItems(t, k, numbered(20), transput.ROStageConfig{})
	b, _ := registerItems(t, k, [][]byte{[]byte("tail")}, transput.ROStageConfig{})

	in := pull.NewInPort(k, uid.Nil, a, core.Chan(0), pull.InPortConfig{Batch: 4, Prefetch: 2})
	first, err := in.Next()
	if err != nil || string(first) != "item-0" {
		t.Fatalf("first = %q, %v", first, err)
	}
	if err := in.Redirect(b, core.Chan(0), "switch"); err != nil {
		t.Fatal(err)
	}
	// Everything that physically arrived before the switch is
	// delivered, in order, then the new stream follows.
	var got []string
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
	if len(got) == 0 || got[len(got)-1] != "tail" {
		t.Fatalf("post-redirect = %v", got)
	}
	// Prefix (if any) must be in-order items from A.
	for i, s := range got[:len(got)-1] {
		if s != fmt.Sprintf("item-%d", i+1) {
			t.Fatalf("salvaged prefix broken at %d: %v", i, got)
		}
	}
}

// TestRedirectKeepsEveryArrivedBatch: a redirect takes in every batch
// the old source served before its abort, also those a helper holds
// while the read-ahead queue is full and those a window's helpers wait
// to queue in turn.  The audit is the source's own count: every item it
// served reaches the consumer, in order, before the new stream.
func TestRedirectKeepsEveryArrivedBatch(t *testing.T) {
	for _, cfg := range []pull.InPortConfig{{Batch: 4, Prefetch: 2}, {Batch: 4, Window: 4}} {
		t.Run(fmt.Sprintf("prefetch=%d/window=%d", cfg.Prefetch, cfg.Window), func(t *testing.T) {
			k := testKernel(t)
			a, st := registerItems(t, k, numbered(100), transput.ROStageConfig{Anticipation: 100})
			b, _ := registerItems(t, k, [][]byte{[]byte("tail")}, transput.ROStageConfig{})
			ch := st.Writer(0).Ref().C
			served := func() int64 {
				ch.Mu.Lock()
				defer ch.Mu.Unlock()
				return ch.ItemsOut
			}

			in := pull.NewInPort(k, uid.Nil, a, core.Chan(0), cfg)
			var got []string
			for i := 0; i < 5; i++ {
				item, err := in.Next()
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, string(item))
			}
			// The helpers stop once the read-ahead queue is full and each
			// holds one more batch: the source's count holds still.
			for n, still := served(), 0; still < 20; {
				time.Sleep(time.Millisecond)
				if m := served(); m == n {
					still++
				} else {
					n, still = m, 0
				}
			}
			if err := in.Redirect(b, core.Chan(0), "switch"); err != nil {
				t.Fatal(err)
			}
			rest, err := drainReleasing(in)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rest...)
			n := served()
			if int64(len(got)) != n+1 || got[len(got)-1] != "tail" {
				t.Fatalf("the old source served %d items; the consumer got %d of them, then %q", n, len(got)-1, got[len(got)-1])
			}
			for i, s := range got[:n] {
				if s != fmt.Sprintf("item-%d", i) {
					t.Fatalf("old stream broken at %d: %v", i, got)
				}
			}
		})
	}
}

func TestRedirectCancelledPortFails(t *testing.T) {
	k := testKernel(t)
	a, _ := registerItems(t, k, numbered(5), transput.ROStageConfig{})
	in := pull.NewInPort(k, uid.Nil, a, core.Chan(0), pull.InPortConfig{})
	if _, err := in.Next(); err != nil {
		t.Fatal(err)
	}
	in.Cancel("done")
	if err := in.Redirect(a, core.Chan(0), ""); !errors.Is(err, itemio.ErrClosed) {
		t.Fatalf("redirect after cancel: %v", err)
	}
}
