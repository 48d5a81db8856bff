package experiments

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"asymstream/internal/filters"
	"asymstream/internal/metrics"
	"asymstream/internal/transput"
)

// Figures 3 and 4 are one graph: a three-filter pipeline in which the
// source and the first filter also produce Report streams, both directed
// at a common Report Window.  The two experiments differ only in the
// discipline the walk wires it under:
//
//   - E6 / Figure 3 (write-only): reports are *pushed* — "the source,
//     F1 ... produce reports as well as normal output.  The reports
//     from source and F1 are directed to a common destination, perhaps
//     a window on a display."  The window's two inbound links are one
//     channel with two writers, so it cannot tell the reporters apart.
//
//   - E7 / Figure 4 (read-only with channel identifiers): each
//     reporter declares a Report channel beside its Output, and the
//     window pulls both — "It is assumed that the Report Window is
//     designed to read from multiple sources."  The streams stay
//     distinguishable: the window labels each line by its input.

// FigureResult is the measured outcome of one figure run.
type FigureResult struct {
	Items       int64
	ReportLines int
	Ejects      int64
	DataInv     int64
	TotalInv    int64
	Elapsed     time.Duration
}

// reportEvery controls report density in the figure workloads.
const reportEvery = 50

// fed runs body as a source whose one input is items numbered lines.
func fed(items int, body transput.Body) transput.Body {
	return func(_ []transput.ItemReader, outs []transput.ItemWriter) error {
		lines := make([][]byte, items)
		for i := range lines {
			lines[i] = fmt.Appendf(nil, "line %d\n", i)
		}
		return body([]transput.ItemReader{transput.NewSliceReader(lines)}, outs)
	}
}

// countInto is a sink that drains its inputs in turn into n.
func countInto(n *atomic.Int64) transput.Body {
	return func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
		for _, in := range ins {
			c, err := transput.Drain(in)
			n.Add(int64(c))
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// reportWindow is the figures' Report Window: it reads all its inputs at
// once — draining them in turn would stall Figure 4 as soon as a
// reporter's Report channel filled — and labels each line by its input.
func reportWindow(lines *[]string) transput.Body {
	return func(ins []transput.ItemReader, _ []transput.ItemWriter) error {
		var mu sync.Mutex
		var wg sync.WaitGroup
		errs := make([]error, len(ins))
		for c, in := range ins {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					item, err := in.Next()
					if err != nil {
						if err != io.EOF {
							errs[c] = err
						}
						return
					}
					mu.Lock()
					*lines = append(*lines, fmt.Sprintf("[%d] %s", c, item))
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// figureGraph is Figures 3 and 4: source → F1 → F2 → sink, with the
// second outputs of source and F1, their Report streams, into the window.
func figureGraph(items int, count *atomic.Int64, lines *[]string) transput.Graph {
	return transput.Graph{
		Nodes: []transput.Filter{
			{Name: "source", Body: fed(items, filters.WithReports("source", reportEvery, filters.Identity()))},
			{Name: "F1", Body: filters.Progress("F1", reportEvery)},
			{Name: "F2", Body: filters.Identity()},
			{Name: "sink", Body: countInto(count)},
			{Name: "window", Body: reportWindow(lines)},
		},
		Edges: []transput.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 0, To: 4}, {From: 1, To: 4}},
	}
}

// runGraph builds g on a fresh kernel, runs it until every sink is done
// and reports what that cost.
func runGraph(d transput.Discipline, g transput.Graph, opt transput.Options) (FigureResult, error) {
	k := newKernel()
	defer k.Shutdown()
	before := k.Metrics().Snapshot()
	p, err := transput.BuildGraph(k, d, g, opt)
	if err != nil {
		return FigureResult{}, err
	}
	defer p.Destroy()
	start := time.Now()
	if err := p.Run(); err != nil {
		return FigureResult{}, err
	}
	elapsed := time.Since(start)
	diff := metrics.Diff(before, k.Metrics().Snapshot())
	return FigureResult{
		Ejects:   diff.Get("ejects_created"),
		DataInv:  diff.Get("transfer_invocations") + diff.Get("deliver_invocations"),
		TotalInv: diff.Get("invocations"),
		Elapsed:  elapsed,
	}, nil
}

func runFigure(d transput.Discipline, items int, opt transput.Options) (FigureResult, error) {
	var count atomic.Int64
	var lines []string
	res, err := runGraph(d, figureGraph(items, &count, &lines), opt)
	res.Items, res.ReportLines = count.Load(), len(lines)
	return res, err
}

// RunFigure3 runs Figure 3: write-only discipline, reports pushed to the
// window.
func RunFigure3(items int) (FigureResult, error) {
	return runFigure(transput.WriteOnly, items, transput.Options{})
}

// RunFigure4 runs Figure 4: read-only discipline with channel
// identifiers, capabilities if capabilityMode; the window pulls both
// Report channels.
func RunFigure4(items int, capabilityMode bool) (FigureResult, error) {
	return runFigure(transput.ReadOnly, items, transput.Options{CapabilityMode: capabilityMode})
}

// E6Figure3 tabulates the write-only report topology.
func E6Figure3(items int) (Table, error) {
	res, err := RunFigure3(items)
	if err != nil {
		return Table{}, err
	}
	return figureTable("E6",
		"Figure 3 — write-only pipeline with Report streams pushed to a shared window",
		res, items,
		"fan-out is free in write-only transput: source and F1 each hold two Pushers; the window cannot tell the reporters apart"), nil
}

// E7Figure4 tabulates the read-only + channel-identifier topology.
func E7Figure4(items int) (Table, error) {
	res, err := RunFigure4(items, false)
	if err != nil {
		return Table{}, err
	}
	return figureTable("E7",
		"Figure 4 — the same topology in the read-only discipline with channel identifiers",
		res, items,
		"fan-out restored by channels: Read(Output) vs Read(Report); the window pulls and labels each reporter"), nil
}

func figureTable(id, title string, res FigureResult, items int, note string) Table {
	expectReports := 2 * (items/reportEvery + 1)
	return Table{
		ID:      id,
		Title:   title,
		Columns: []string{"data items", "report lines", "expected reports", "ejects", "data inv", "total inv", "elapsed"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.Items),
			fmt.Sprintf("%d", res.ReportLines),
			fmt.Sprintf("%d", expectReports),
			fmt.Sprintf("%d", res.Ejects),
			fmt.Sprintf("%d", res.DataInv),
			fmt.Sprintf("%d", res.TotalInv),
			res.Elapsed.Round(time.Millisecond).String(),
		}},
		Notes: []string{note},
	}
}
