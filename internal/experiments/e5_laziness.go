package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"asymstream/internal/transput"
	"asymstream/internal/uid"
)

// E5Laziness quantifies §4's laziness discussion:
//
//	"In both cases no computation need be done until the result is
//	requested. ... A consequence of this is that the filter Ejects are
//	pure transformers: they do not also pump data.  No data flows
//	until a sink is connected to the pipeline."
//
// and its deliberate compromise:
//
//	"Laziness, however, is not desirable in a system which permits
//	parallel execution. ... Typically, each Eject in a pipeline should
//	read some input and buffer-up some output, and then suspend
//	processing pending a request for output."
//
// The experiment builds a graph with NO sink — one source whose output
// is an outlet — waits, and records (a) how many Transfer invocations
// occurred — always 0 for the lazy build, by construction of the
// discipline — and (b) how many items the source *computed* ahead,
// which is bounded by the anticipation capacity.  It then connects a
// sink to the outlet and verifies the whole stream arrives.
func E5Laziness(items int) (Table, error) {
	t := Table{
		ID:    "E5",
		Title: "§4 laziness — work done before a sink is connected (read-only discipline)",
		Columns: []string{
			"mode", "transfers before sink", "items computed before sink", "bound", "items after drain",
		},
		Notes: []string{
			"'No data flows until a sink is connected': transfers-before-sink is identically 0",
			"anticipation K lets each stage run K items ahead, then suspend — laziness vs parallelism dial",
		},
	}
	type mode struct {
		name         string
		lazy         bool
		anticipation int // transput capacity semantics: -1 sync, 0 default, >0 bound
		bound        string
	}
	modes := []mode{
		{"lazy (no work at all)", true, 16, "0 until first pull"},
		{"eager, anticipation 4", false, 4, "≤ 4"},
		{"eager, anticipation 64", false, 64, "≤ 64"},
	}
	for _, m := range modes {
		k := newKernel()
		var produced atomic.Int64
		p, err := transput.BuildGraph(k, transput.ReadOnly, transput.Graph{
			Nodes: []transput.Filter{{Name: "source", Body: func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
				for i := 0; i < items; i++ {
					if err := outs[0].Put([]byte(fmt.Sprintf("%d\n", i))); err != nil {
						return err
					}
					produced.Add(1)
				}
				return nil
			}}},
			Edges: []transput.Edge{{From: 0, To: transput.Outlet}},
		}, transput.Options{Anticipation: m.anticipation, LazyStart: m.lazy})
		if err != nil {
			k.Shutdown()
			return t, err
		}
		p.Start()

		// Let any anticipatory computation run.
		time.Sleep(30 * time.Millisecond)
		transfersBefore := k.Metrics().TransferInvocations.Value()
		producedBefore := produced.Load()

		// Now connect the sink to the outlet and drain.
		srcUID, ch := p.Outlet(0)
		drained, err := transput.Drain(transput.NewInPort(k, uid.Nil, srcUID, ch, transput.InPortConfig{Batch: 8}))
		k.Shutdown()
		if err != nil {
			return t, fmt.Errorf("E5 %s: %w", m.name, err)
		}

		t.Rows = append(t.Rows, []string{
			m.name,
			fmt.Sprintf("%d", transfersBefore),
			fmt.Sprintf("%d", producedBefore),
			m.bound,
			fmt.Sprintf("%d", drained),
		})
	}
	return t, nil
}
