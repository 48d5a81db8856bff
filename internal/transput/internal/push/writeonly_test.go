package push_test

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/uid"

	"asymstream/internal/transput"
	"asymstream/internal/transput/internal/core"
	"asymstream/internal/transput/internal/itemio"
	"asymstream/internal/transput/internal/push"
)

// registerWOSink creates and registers a write-only stage that collects its
// input items into *got (guarded by mu).
func registerWOSink(t *testing.T, k *kernel.Kernel, got *[][]byte, mu *sync.Mutex, cfg transput.WOStageConfig) (uid.UID, *transput.Stage) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-sink"
	}
	st := transput.NewWOStage(k, cfg, func(ins []itemio.ItemReader, _ []itemio.ItemWriter) error {
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

func TestPusherDeliversInOrder(t *testing.T) {
	for _, batch := range []int{1, 4, 32} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			k := testKernel(t)
			var got [][]byte
			var mu sync.Mutex
			sinkID, sink := registerWOSink(t, k, &got, &mu, transput.WOStageConfig{})
			p := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{Batch: batch})
			for i := 0; i < 43; i++ {
				if err := p.Put([]byte(fmt.Sprintf("i%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			<-sink.Done()
			if err := sink.Err(); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(got) != 43 {
				t.Fatalf("got %d items", len(got))
			}
			for i, item := range got {
				if string(item) != fmt.Sprintf("i%d", i) {
					t.Fatalf("order broken at %d: %q", i, item)
				}
			}
			if batch == 1 && p.DeliversIssued() < 43 {
				t.Errorf("batch-1 delivers = %d", p.DeliversIssued())
			}
		})
	}
}

func TestPusherFlushAndDoubleClose(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, transput.WOStageConfig{})
	p := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{Batch: 100})
	if err := p.Put([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	flushed := len(got)
	mu.Unlock()
	if flushed == 0 {
		// Flush is synchronous (Deliver reply awaited), but the sink
		// body consumes asynchronously; give it a beat.
		time.Sleep(50 * time.Millisecond)
		mu.Lock()
		flushed = len(got)
		mu.Unlock()
	}
	if flushed != 1 {
		t.Fatalf("after Flush sink has %d items", flushed)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second Close must be a no-op:", err)
	}
	if err := p.Put([]byte("y")); !errors.Is(err, itemio.ErrClosed) {
		t.Fatalf("Put after Close: %v", err)
	}
	if err := p.Flush(); !errors.Is(err, itemio.ErrClosed) {
		t.Fatalf("Flush after Close: %v", err)
	}
	<-sink.Done()
}

func TestWOFanInMerge(t *testing.T) {
	// §5: multiple writers merge indistinguishably; the stream ends
	// after every expected writer sends End.
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, transput.WOStageConfig{Writers: []int{3}})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{})
			for i := 0; i < 10; i++ {
				if err := p.Put([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.Close(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	select {
	case <-sink.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("sink never saw 3 Ends")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 30 {
		t.Fatalf("merged %d items, want 30", len(got))
	}
	// Per-writer order must be preserved within the merge.
	pos := map[int]int{}
	for _, item := range got {
		var w, i int
		if _, err := fmt.Sscanf(string(item), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad item %q", item)
		}
		if i != pos[w] {
			t.Fatalf("writer %d out of order: got %d want %d", w, i, pos[w])
		}
		pos[w]++
	}
}

func TestWOBackpressureBlocksPusher(t *testing.T) {
	k := testKernel(t)
	// A sink with a tiny buffer whose consumer is gated.
	gate := make(chan struct{})
	st := transput.NewWOStage(k, transput.WOStageConfig{Name: "slow-sink", Capacity: 2}, func(ins []itemio.ItemReader, _ []itemio.ItemWriter) error {
		<-gate
		_, err := transput.Drain(ins[0])
		return err
	})
	sinkID := k.NewUID()
	if err := k.CreateWithUID(sinkID, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()

	p := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{})
	done := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 50; i++ {
			if err := p.Put([]byte("x")); err != nil {
				break
			}
			n++
		}
		_ = p.Close()
		done <- n
	}()
	// With capacity 2 and a gated consumer, the pusher must stall long
	// before 50.
	select {
	case <-done:
		t.Fatal("pusher never blocked against a full buffer")
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	select {
	case n := <-done:
		if n != 50 {
			t.Fatalf("pushed %d items", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pusher stuck after gate opened")
	}
	<-st.Done()
}

func TestWOReaderCancelReleasesPusher(t *testing.T) {
	k := testKernel(t)
	st := transput.NewWOStage(k, transput.WOStageConfig{Name: "cancelling-sink", Capacity: 1}, func(ins []itemio.ItemReader, _ []itemio.ItemWriter) error {
		// Read two items then cancel.
		for i := 0; i < 2; i++ {
			if _, err := ins[0].Next(); err != nil {
				return err
			}
		}
		ins[0].(*push.ChannelReader).Cancel("had enough")
		return nil
	})
	sinkID := k.NewUID()
	if err := k.CreateWithUID(sinkID, st, 0); err != nil {
		t.Fatal(err)
	}
	st.Start()
	p := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{})
	var lastErr error
	for i := 0; i < 100; i++ {
		if lastErr = p.Put([]byte("x")); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, itemio.ErrAborted) {
		t.Fatalf("pusher should see abort, got %v", lastErr)
	}
}

func TestPusherCloseWithErrorAborts(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, transput.WOStageConfig{})
	p := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{})
	if err := p.Put([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseWithError(errors.New("upstream exploded")); err != nil {
		t.Fatal(err)
	}
	<-sink.Done()
	err := sink.Err()
	if !errors.Is(err, itemio.ErrAborted) {
		t.Fatalf("sink error = %v, want abort", err)
	}
}

func TestWOCapabilityChannels(t *testing.T) {
	k := testKernel(t)
	var got [][]byte
	var mu sync.Mutex
	sinkID, sink := registerWOSink(t, k, &got, &mu, transput.WOStageConfig{CapabilityMode: true})
	capID := sink.Reader(0).ID()
	if !capID.IsCap() {
		t.Fatal("no capability minted")
	}
	// Forged deliveries refused.
	forged := push.NewPusher(k, uid.Nil, sinkID, core.Chan(0), push.PusherConfig{})
	if err := forged.Put([]byte("x")); !errors.Is(err, core.ErrNotPermitted) {
		t.Fatalf("integer forge: %v", err)
	}
	guessed := push.NewPusher(k, uid.Nil, sinkID, core.CapChan(uid.New()), push.PusherConfig{})
	if err := guessed.Put([]byte("x")); !errors.Is(err, core.ErrNotPermitted) {
		t.Fatalf("guessed cap: %v", err)
	}
	// Holder succeeds.
	p := push.NewPusher(k, uid.Nil, sinkID, capID, push.PusherConfig{})
	if err := p.Put([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	<-sink.Done()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || string(got[0]) != "ok" {
		t.Fatalf("got %q", got)
	}
}
