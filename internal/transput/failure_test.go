package transput

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"asymstream/internal/kernel"
	"asymstream/internal/netsim"
	"asymstream/internal/quiesce"
	"asymstream/internal/uid"
)

// Failure injection: the paper's pipelines assume a healthy network,
// but a production library must fail visibly, not hang, when the
// substrate misbehaves.

// crossNodeKernel builds a 2-node kernel with the given fault config.
func crossNodeKernel(t *testing.T, cfg netsim.Config) *kernel.Kernel {
	t.Helper()
	cfg.Nodes = 2
	k := kernel.New(kernel.Config{Net: cfg})
	t.Cleanup(k.Shutdown)
	return k
}

// spread places source on node 0 and everything else on node 1.
func spread(role Role, _ int) netsim.NodeID {
	if role == RoleSource {
		return 0
	}
	return 1
}

func runWithTimeout(t *testing.T, p *Pipeline) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- p.Run() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("pipeline hung under failure injection")
		return nil
	}
}

func TestPipelineSurvivesZeroDrops(t *testing.T) {
	k := crossNodeKernel(t, netsim.Config{})
	var got [][]byte
	p, err := BuildPipeline(k, ReadOnly, numbersSource(50), nil, collectSink(&got), Options{Placement: spread})
	if err != nil {
		t.Fatal(err)
	}
	if err := runWithTimeout(t, p); err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("moved %d items", len(got))
	}
}

func TestPipelineFailsFastUnderTotalLoss(t *testing.T) {
	k := crossNodeKernel(t, netsim.Config{DropRate: 1.0})
	var got [][]byte
	p, err := BuildPipeline(k, ReadOnly, numbersSource(50), nil, collectSink(&got), Options{Placement: spread})
	if err != nil {
		t.Fatal(err)
	}
	err = runWithTimeout(t, p)
	if err == nil {
		t.Fatal("lossy network produced a successful run")
	}
	if !errors.Is(err, netsim.ErrDropped) {
		t.Fatalf("error lost its identity across the wire: %v", err)
	}
}

func TestPipelinePartitionMidStream(t *testing.T) {
	k := crossNodeKernel(t, netsim.Config{})
	// A slow sink so the partition lands mid-stream.
	var got int
	sink := func(in ItemReader) error {
		for {
			_, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			got++
			time.Sleep(time.Millisecond)
		}
	}
	p, err := BuildPipeline(k, ReadOnly, numbersSource(500), nil, sink, Options{Placement: spread, Anticipation: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	time.Sleep(20 * time.Millisecond)
	k.Network().Partition(0, 1)
	errc := make(chan error, 1)
	go func() { errc <- p.Wait() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("partitioned pipeline completed successfully")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("partitioned pipeline hung")
	}
	if got == 0 {
		t.Error("no items moved before the partition")
	}
}

func TestDeactivatedStageSurfacesError(t *testing.T) {
	k := testKernel(t)
	src, _ := registerItems(t, k, numbered(1000), ROStageConfig{Anticipation: 2})
	in := NewInPort(k, uid.Nil, src, Chan(0), InPortConfig{})
	if _, err := in.Next(); err != nil {
		t.Fatal(err)
	}
	// Forcibly destroy the source mid-stream.
	if err := k.Destroy(src); err != nil {
		t.Fatal(err)
	}
	var err error
	for i := 0; i < 10; i++ {
		if _, err = in.Next(); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("reads kept succeeding after the source was destroyed")
	}
}

func TestCrashedNodeAbortsPipeline(t *testing.T) {
	k := crossNodeKernel(t, netsim.Config{})
	var got int
	sink := func(in ItemReader) error {
		for {
			_, err := in.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			got++
			time.Sleep(time.Millisecond)
		}
	}
	p, err := BuildPipeline(k, ReadOnly, numbersSource(500), nil, sink, Options{Placement: spread, Anticipation: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	time.Sleep(20 * time.Millisecond)
	k.CrashNode(0) // the source's machine dies; it never checkpointed
	errc := make(chan error, 1)
	go func() { errc <- p.Wait() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("pipeline over a crashed node completed successfully")
		}
		if !errors.Is(err, kernel.ErrNoSuchEject) && !errors.Is(err, kernel.ErrDeactivated) {
			t.Logf("surfaced error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("pipeline over a crashed node hung")
	}
}

// TestBodyPanicIsStageError holds a panicking body to what a body that
// returns an error gets: under each discipline a filter that panics
// after one Next ends the run with the panic as the pipeline's error at
// Wait, and the process goes on.  Its teardown leaves what a clean run
// of the same pipeline leaves: no goroutine, no leaked slab view, and as
// many live channels (Destroy retires none).
func TestBodyPanicIsStageError(t *testing.T) {
	panicky := func(ins []ItemReader, _ []ItemWriter) error {
		if _, err := ins[0].Next(); err != nil {
			return err
		}
		panic("boom")
	}
	for _, d := range []Discipline{ReadOnly, WriteOnly, Buffered} {
		t.Run(d.String(), func(t *testing.T) {
			run := func(body Body) (live int64, runErr error) {
				goroutines := quiesce.Baseline(t)
				k := kernel.New(kernel.Config{})
				met := k.Metrics()
				var got [][]byte
				p, err := BuildPipeline(k, d, numbersSource(500), []Filter{{Name: "f", Body: body}}, collectSink(&got), Options{})
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				runErr = runWithTimeout(t, p)
				for _, fe := range p.stageErr { // the abort may still be rippling upstream
					_ = fe()
				}
				p.Destroy()
				waitSlabQuiet(t, met)
				if n := met.SlabLeaked.Value(); n != 0 {
					t.Errorf("SlabLeaked = %d after teardown", n)
				}
				live = met.ChannelsLive.Value()
				k.Shutdown()
				goroutines()
				return live, runErr
			}
			panicked, err := run(panicky)
			if err == nil || !strings.Contains(err.Error(), `transput: body of "f" panicked: boom`) {
				t.Fatalf("Wait = %v, want the filter's panic", err)
			}
			if clean, err := run(passFilter); err != nil || panicked != clean {
				t.Fatalf("clean run: err %v, %d channels live; after the panic %d", err, clean, panicked)
			}
		})
	}
}
