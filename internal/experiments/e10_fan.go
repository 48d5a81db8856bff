package experiments

import (
	"fmt"
	"sync"

	"asymstream/internal/kernel"
	"asymstream/internal/metrics"
	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// E10Fan quantifies §5's asymmetry table:
//
//	"As we have described it so far, 'read only' transput allows
//	arbitrary fan-in but no fan-out.  The dual situation exists with
//	'write only' transput. ... There is arbitrary fan-out, but no
//	fan-in.  Conventional transput allows arbitrary fan-in and
//	fan-out because both reads and writes are active."
//
// and the channel-identifier remedy: with Read qualified by a channel
// id, read-only transput regains fan-out (Figure 4's mechanism).
//
// The experiment measures four topologies at fan degree k:
//
//	read-only fan-in   : one merging Eject holds k InPorts (k sources)
//	write-only fan-out : one source Eject holds k Pushers (k sinks)
//	read-only fan-out  : one source Eject with k channels, k pullers
//	write-only fan-in  : k pushers Deliver into one (anonymous) input
//
// Each topology moves k·items data items with k data invocations per
// produced datum — the disciplines are symmetric once channels exist;
// what differs (and the table notes) is *identity*: only the side
// holding UIDs or channel ids can tell its correspondents apart.
func E10Fan(ks []int, items int) (Table, error) {
	t := Table{
		ID:      "E10",
		Title:   "§5 fan-in/fan-out — all four directions at fan degree k",
		Columns: []string{"topology", "k", "items moved", "ejects", "data inv", "distinguishable?"},
		Notes: []string{
			"read-only fan-in and write-only fan-out are native; the reverse directions need channel ids (read) or merge anonymously (write)",
		},
	}
	for _, k := range ks {
		for _, topo := range []string{"ro fan-in", "wo fan-out", "ro fan-out (channels)", "wo fan-in (anonymous)"} {
			moved, ejects, inv, distinct, err := runFan(topo, k, items)
			if err != nil {
				return t, fmt.Errorf("E10 %s k=%d: %w", topo, k, err)
			}
			t.Rows = append(t.Rows, []string{
				topo,
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%d", moved),
				fmt.Sprintf("%d", ejects),
				fmt.Sprintf("%d", inv),
				distinct,
			})
		}
	}
	return t, nil
}

func runFan(topo string, k, items int) (moved, ejects, inv int64, distinct string, err error) {
	kn := newKernel()
	defer kn.Shutdown()
	before := kn.Metrics().Snapshot()

	switch topo {
	case "ro fan-in":
		moved, err = roFanIn(kn, k, items)
		distinct = "yes (k UIDs held by the reader)"
	case "wo fan-out":
		moved, err = woFanOut(kn, k, items)
		distinct = "yes (k UIDs held by the writer)"
	case "ro fan-out (channels)":
		moved, err = roFanOut(kn, k, items)
		distinct = "yes (k channel ids)"
	case "wo fan-in (anonymous)":
		moved, err = woFanIn(kn, k, items)
		distinct = "no (writers merge)"
	default:
		err = fmt.Errorf("unknown topology %q", topo)
	}
	if err != nil {
		return
	}
	diff := metrics.Diff(before, kn.Metrics().Snapshot())
	ejects = diff.Get("ejects_created")
	inv = diff.Get("transfer_invocations") + diff.Get("deliver_invocations")
	return
}

// roFanIn: k source Ejects, one external merger pulling all of them.
func roFanIn(kn *kernel.Kernel, k, items int) (int64, error) {
	var ins []*transput.InPort
	for i := 0; i < k; i++ {
		st := transput.NewROStage(kn, transput.ROStageConfig{Name: fmt.Sprintf("src%d", i)},
			emitN(items))
		id := kn.NewUID()
		if err := kn.CreateWithUID(id, st, 0); err != nil {
			return 0, err
		}
		st.Start()
		ins = append(ins, transput.NewInPort(kn, uid.Nil, id, transput.Chan(0), transput.InPortConfig{Batch: 4}))
	}
	// The merging sink is itself an Eject holding k UIDs (§5: "if F
	// needs n inputs, it maintains n UIDs").
	readers := make([]transput.ItemReader, len(ins))
	for i, in := range ins {
		readers[i] = in
	}
	var moved int64
	sink := transput.NewConvStage("merger", func(rs []transput.ItemReader, _ []transput.ItemWriter) error {
		for _, r := range rs {
			n, err := transput.Drain(r)
			if err != nil {
				return err
			}
			moved += int64(n)
		}
		return nil
	}, readers, nil)
	sinkID := kn.NewUID()
	if err := kn.CreateWithUID(sinkID, sink, 0); err != nil {
		return 0, err
	}
	sink.Start()
	<-sink.Done()
	return moved, sink.Err()
}

// woFanOut: one source Eject pushing duplicate streams at k sink
// Ejects.
func woFanOut(kn *kernel.Kernel, k, items int) (int64, error) {
	var moved int64
	var mu sync.Mutex
	var sinks []*transput.Stage
	var pushers []transput.ItemWriter
	srcID := kn.NewUID()
	for i := 0; i < k; i++ {
		st := transput.NewWOStage(kn, transput.WOStageConfig{Name: fmt.Sprintf("sink%d", i)},
			func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
				n, err := transput.Drain(ins[0])
				mu.Lock()
				moved += int64(n)
				mu.Unlock()
				return err
			})
		id := kn.NewUID()
		if err := kn.CreateWithUID(id, st, 0); err != nil {
			return 0, err
		}
		st.Start()
		sinks = append(sinks, st)
		pushers = append(pushers, transput.NewPusher(kn, srcID, id, transput.Chan(0), transput.PusherConfig{Batch: 4}))
	}
	src := transput.NewConvStage("fanout-source", func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
		return emitN(items)(nil, outs[:1])
	}, nil, []transput.ItemWriter{transput.NewMultiWriter(pushers...)})
	if err := kn.CreateWithUID(srcID, src, 0); err != nil {
		return 0, err
	}
	src.Start()
	for _, st := range sinks {
		<-st.Done()
		if err := st.Err(); err != nil {
			return 0, err
		}
	}
	return moved, nil
}

// roFanOut: one source Eject with k output channels; k external
// pullers, one per channel id (Figure 4's mechanism).
func roFanOut(kn *kernel.Kernel, k, items int) (int64, error) {
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("Out%d", i)
	}
	st := transput.NewROStage(kn, transput.ROStageConfig{Name: "fanout-src", OutNames: names},
		func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
			for i := 0; i < items; i++ {
				for _, out := range outs {
					if err := out.Put([]byte(fmt.Sprintf("%d\n", i))); err != nil {
						return err
					}
				}
			}
			return nil
		})
	id := kn.NewUID()
	if err := kn.CreateWithUID(id, st, 0); err != nil {
		return 0, err
	}
	st.Start()
	var moved int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			in := transput.NewInPort(kn, uid.Nil, id, transput.Chan(transput.ChannelNum(ch)), transput.InPortConfig{Batch: 4})
			n, err := transput.Drain(in)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			moved += int64(n)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, err
	}
	return moved, nil
}

// woFanIn: k anonymous pushers Deliver into one sink channel.
func woFanIn(kn *kernel.Kernel, k, items int) (int64, error) {
	var moved int64
	st := transput.NewWOStage(kn, transput.WOStageConfig{Name: "fanin-sink", Writers: []int{k}},
		func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
			n, err := transput.Drain(ins[0])
			moved = int64(n)
			return err
		})
	sinkID := kn.NewUID()
	if err := kn.CreateWithUID(sinkID, st, 0); err != nil {
		return 0, err
	}
	st.Start()
	var wg sync.WaitGroup
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		srcID := kn.NewUID()
		push := transput.NewPusher(kn, srcID, sinkID, transput.Chan(0), transput.PusherConfig{Batch: 4})
		src := transput.NewConvStage(fmt.Sprintf("pushsrc%d", i),
			func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
				return emitN(items)(nil, outs)
			}, nil, []transput.ItemWriter{push})
		if err := kn.CreateWithUID(srcID, src, 0); err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(s *transput.Stage) {
			defer wg.Done()
			s.Start()
			if err := s.Err(); err != nil {
				errs <- err
			}
		}(src)
	}
	wg.Wait()
	<-st.Done()
	close(errs)
	for err := range errs {
		return 0, err
	}
	return moved, st.Err()
}

// emitN writes items numbered lines to outs[0].
func emitN(items int) transput.Body {
	return func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
		for i := 0; i < items; i++ {
			if err := outs[0].Put([]byte(fmt.Sprintf("%d\n", i))); err != nil {
				return err
			}
		}
		return nil
	}
}
